// Allocation pins for the accelerated hot path. This binary replaces the
// global operator new with a counting one, so it is kept apart from the
// main test binary. After warm-up, an array activation of a cached
// configuration, its elastic or SIMT timing, an elastic admissibility
// check and a DIM capture that is thrown away (too short or aborted) must
// not touch the heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "mem/cache.hpp"
#include "mem/memory.hpp"
#include "rra/array_exec.hpp"
#include "rra/exec_mode/execution_model.hpp"
#include "sim/cpu_state.hpp"

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dim {
namespace {

using isa::Instr;
using isa::Op;

Instr r3(Op op, int rd, int rs, int rt) {
  Instr i;
  i.op = op;
  i.rd = static_cast<uint8_t>(rd);
  i.rs = static_cast<uint8_t>(rs);
  i.rt = static_cast<uint8_t>(rt);
  return i;
}

Instr imm(Op op, int rt, int rs, int16_t v) {
  Instr i;
  i.op = op;
  i.rt = static_cast<uint8_t>(rt);
  i.rs = static_cast<uint8_t>(rs);
  i.imm16 = static_cast<uint16_t>(v);
  return i;
}

sim::StepInfo retired(const Instr& instr, uint32_t pc, bool taken = false) {
  sim::StepInfo info;
  info.instr = instr;
  info.pc = pc;
  info.next_pc = pc + 4;
  info.is_branch = isa::is_branch(instr.op);
  info.taken = taken;
  return info;
}

bt::TranslatorParams params() {
  bt::TranslatorParams p;
  p.shape = rra::ArrayShape::config2();
  return p;
}

// Loads, stores with forwarding, a multiply and two speculated branches.
rra::Configuration mixed_configuration() {
  bt::ConfigBuilder b(0x100, params());
  EXPECT_TRUE(b.try_add(imm(Op::kLw, 9, 8, 0), 0x100));
  EXPECT_TRUE(b.try_add(r3(Op::kAddu, 10, 9, 9), 0x104));
  EXPECT_TRUE(b.try_add(imm(Op::kSw, 10, 8, 4), 0x108));
  EXPECT_TRUE(b.try_add(imm(Op::kSb, 9, 8, 9), 0x10C));
  EXPECT_TRUE(b.try_add(imm(Op::kLw, 11, 8, 8), 0x110));
  EXPECT_TRUE(b.try_add_branch(imm(Op::kBne, 8, 8, 0), 0x114, false));
  EXPECT_TRUE(b.try_add(r3(Op::kMult, 0, 10, 11), 0x118));
  EXPECT_TRUE(b.try_add(r3(Op::kMflo, 12, 0, 0), 0x11C));
  EXPECT_TRUE(b.try_add(imm(Op::kLhu, 13, 8, 6), 0x120));
  EXPECT_TRUE(b.try_add_branch(imm(Op::kBeq, 8, 8, 0), 0x124, true));
  EXPECT_TRUE(b.try_add(imm(Op::kAddiu, 14, 13, 1), 0x128));
  return b.finalize(0x12C);
}

TEST(AllocPin, CachedConfigurationActivationAllocatesNothing) {
  bt::ReconfigCache cache(16);
  cache.insert(mixed_configuration());

  mem::Memory memory;
  memory.write32(0x10008000, 7);
  mem::Cache dcache(mem::CacheParams{});
  const rra::ArrayTimingParams timing;
  sim::CpuState state;
  state.regs[8] = 0x10008000;
  rra::Configuration* config = cache.lookup(0x100);
  ASSERT_NE(config, nullptr);
  for (int k = 0; k < 4; ++k) {  // warm-up: pages and cache lines exist
    rra::execute_configuration(*config, state, memory, &dcache, timing);
  }

  int committed = 0;
  const long before = g_allocations.load();
  for (int k = 0; k < 1000; ++k) {
    const rra::ArrayExecOutcome out =
        rra::execute_configuration(*cache.lookup(0x100), state, memory, &dcache, timing);
    committed += out.committed_ops;
  }
  const long allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(committed, 1000 * config->instruction_count());
}

TEST(AllocPin, ElasticAndSimtTimingAllocatesNothing) {
  // The elastic and SIMT models reuse their per-activation scratch, and
  // the admissibility check reuses per-thread scratch: after warm-up,
  // timing an activation and classifying a configuration stay off the heap.
  const rra::Configuration config = mixed_configuration();
  mem::Memory memory;
  memory.write32(0x10008000, 7);
  mem::Cache dcache(mem::CacheParams{});
  const rra::ArrayTimingParams timing;
  for (const rra::ExecMode mode : {rra::ExecMode::kElastic, rra::ExecMode::kSimt}) {
    rra::ExecModeParams mode_params;
    mode_params.mode = mode;
    const auto model = rra::make_execution_model(mode_params);
    sim::CpuState state;
    state.regs[8] = 0x10008000;
    for (int k = 0; k < 4; ++k) model->execute(config, state, memory, &dcache, timing, false);

    uint64_t cycles = 0;
    const long before = g_allocations.load();
    for (int k = 0; k < 1000; ++k) {
      cycles += model->execute(config, state, memory, &dcache, timing, false).exec_cycles;
    }
    const long allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 0) << rra::exec_mode_name(mode);
    EXPECT_GT(cycles, 0u);
  }

  const bool admitted = rra::elastic_admissible(config, 1);
  int same = 0;
  const long before = g_allocations.load();
  for (int k = 0; k < 1000; ++k) same += rra::elastic_admissible(config, 1) == admitted;
  const long allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(same, 1000);
}

TEST(AllocPin, DiscardedCapturesAllocateNothing) {
  bt::ReconfigCache cache(16);
  bt::BimodalPredictor predictor;
  bt::TranslatorParams p = params();
  p.speculation = false;  // every branch ends the capture
  bt::Translator translator(p, &cache, &predictor);
  const Instr branch = imm(Op::kBne, 8, 8, 0);  // never taken
  const Instr add = imm(Op::kAddiu, 9, 0, 1);

  // One capture too short to keep (two ops, then a branch), and one that
  // the array interrupts (three ops, then an activation elsewhere).
  auto too_short = [&] {
    translator.observe(retired(branch, 0x0FC));
    translator.observe(retired(add, 0x100));
    translator.observe(retired(add, 0x104));
    translator.observe(retired(branch, 0x108));
  };
  auto aborted = [&] {
    translator.observe(retired(add, 0x200));
    translator.observe(retired(add, 0x204));
    translator.observe(retired(add, 0x208));
    translator.on_array_executed();
    translator.observe(retired(branch, 0x20C));
  };
  // Warm-up: a long finalized capture grows the builder, and the branch
  // PCs get their predictor entries.
  translator.observe(retired(branch, 0x2FC));
  for (uint32_t k = 0; k < 64; ++k) translator.observe(retired(add, 0x300 + 4 * k));
  translator.observe(retired(branch, 0x400));
  too_short();
  aborted();
  const bt::TranslatorStats warm = translator.stats();
  ASSERT_EQ(warm.configs_inserted, 1u);

  const long before = g_allocations.load();
  for (int k = 0; k < 500; ++k) {
    too_short();
    aborted();
  }
  const long allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0);
  EXPECT_EQ(translator.stats().too_short - warm.too_short, 500u);
  EXPECT_EQ(translator.stats().captures_aborted - warm.captures_aborted, 500u);
  EXPECT_EQ(translator.stats().configs_inserted, 1u);
}

}  // namespace
}  // namespace dim
