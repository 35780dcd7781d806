// Per-layer probes of the traced run. Each layer is timed from outside,
// around calls into its public functions, on the workload's own programs at
// the reference cell (Table 1 configuration #2, 64 slots, speculation).
// The inputs the replays need (a recorded retired stream, the harvested
// configurations, a mid-run snapshot) are recorded first, untimed.
#include <algorithm>
#include <cstdio>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "bt/predictor.hpp"
#include "bt/rcache.hpp"
#include "bt/translator.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "rra/array_exec.hpp"
#include "rra/exec_mode/execution_model.hpp"
#include "sim/machine.hpp"
#include "snap/snapshot.hpp"
#include "table2.hpp"
#include "workload.hpp"

namespace pb {
namespace {

using dim::accel::AcceleratedSystem;
using dim::accel::SystemConfig;

// Each repeated probe runs at least once and until this much time passed.
constexpr double kProbeMs = 15;
// Retired instructions recorded per program for the translator replays.
constexpr size_t kStreamCap = 200000;

// Sum of host time and of work units, for "ns per unit" figures.
struct Rate {
  double ns = 0;
  double units = 0;
  void add(Clock::time_point a, Clock::time_point b, double n) {
    ns += std::chrono::duration<double, std::nano>(b - a).count();
    units += n;
  }
  double per_unit() const { return units > 0 ? ns / units : 0; }
};

// Repeats `call` (which returns its own measured microseconds) for at
// least kProbeMs, appending every sample.
template <typename F>
void repeat_us(std::vector<double>& samples, F call) {
  const Clock::time_point begin = Clock::now();
  do {
    samples.push_back(call());
  } while (ms_between(begin, Clock::now()) < kProbeMs);
}

double us_since(Clock::time_point a) {
  return std::chrono::duration<double, std::micro>(Clock::now() - a).count();
}

dim::bt::TranslatorParams translator_params(const SystemConfig& c) {
  dim::bt::TranslatorParams p;
  p.shape = c.shape;
  p.speculation = c.speculation;
  p.max_spec_bbs = c.max_spec_bbs;
  p.min_instructions = c.min_instructions;
  p.exec_mode = c.exec_mode;
  return p;
}

struct Probes {
  std::vector<double> assemble_us, generate_us, check_ms, ctor_us, hash_us;
  std::vector<double> encode_us, restore_us, snap_bytes, admissible_us;
  Rate observe, rebuild, lookup, exec_act, exec_op, elastic, simt, fast, slow, run;
  double inserts = 0, flushes = 0, extensions = 0, hits = 0, misses = 0;
  double instructions = 0, array_instructions = 0, activations = 0;
};

void probe_program(const LayerInput& in, const SystemConfig& cfg, Probes& p) {
  {
    Span s("asm.assemble");
    repeat_us(p.assemble_us, [&] {
      const Clock::time_point t = Clock::now();
      const dim::asmblr::Program prog = dim::asmblr::assemble(in.source);
      const double us = us_since(t);
      if (prog.entry != in.program.entry) throw std::runtime_error("assembler nondeterminism");
      return us;
    });
  }
  {
    Span s("accel.ctor");
    repeat_us(p.ctor_us, [&] {
      const Clock::time_point t = Clock::now();
      auto sys = std::make_unique<AcceleratedSystem>(in.program, cfg);
      return us_since(t);
    });
  }

  auto sys = std::make_unique<AcceleratedSystem>(in.program, cfg);
  dim::accel::AccelStats st;
  {
    Span s("accel.run");
    const Clock::time_point t = Clock::now();
    st = sys->run();
    p.run.add(t, Clock::now(), static_cast<double>(st.instructions));
  }
  p.inserts += static_cast<double>(st.rcache_insertions);
  p.flushes += static_cast<double>(st.config_flushes);
  p.extensions += static_cast<double>(st.extensions);
  p.hits += static_cast<double>(st.rcache_hits);
  p.misses += static_cast<double>(st.rcache_misses);
  p.instructions += static_cast<double>(st.instructions);
  p.array_instructions += static_cast<double>(st.array_instructions);
  p.activations += static_cast<double>(st.array_activations);
  {
    Span s("mem.content_hash");
    repeat_us(p.hash_us, [&] {
      const Clock::time_point t = Clock::now();
      volatile uint64_t h = sys->memory().content_hash();
      (void)h;
      return us_since(t);
    });
  }

  // Untimed recording: the mid-run state, the configurations resident at
  // mid-run and at exit, and the retired stream of the plain machine.
  std::unique_ptr<AcceleratedSystem> mid;
  std::vector<dim::rra::Configuration> configs;
  std::vector<dim::sim::StepInfo> stream;
  {
    Span s("setup.record");
    mid = std::make_unique<AcceleratedSystem>(in.program, cfg);
    mid->run_until(st.instructions / 2);
    configs = mid->rcache().export_entries();
    for (dim::rra::Configuration& c : sys->rcache().export_entries()) {
      if (mid->rcache().peek(c.start_pc) == nullptr) configs.push_back(std::move(c));
    }
    dim::sim::MachineConfig mc;
    mc.host_trace_dispatch = false;
    dim::sim::Machine machine(in.program, mc);
    stream.reserve(std::min<uint64_t>(kStreamCap, st.instructions));
    machine.run([&](const dim::sim::StepInfo& info) {
      if (stream.size() < kStreamCap) stream.push_back(info);
    });
  }

  std::vector<uint8_t> payload;
  {
    Span s("snap.encode");
    repeat_us(p.encode_us, [&] {
      const Clock::time_point t = Clock::now();
      payload = dim::snap::encode_snapshot(*mid, in.program);
      return us_since(t);
    });
  }
  p.snap_bytes.push_back(static_cast<double>(payload.size()));
  auto restored = std::make_unique<AcceleratedSystem>(in.program, cfg);
  {
    Span s("snap.restore");
    repeat_us(p.restore_us, [&] {
      auto fresh = std::make_unique<AcceleratedSystem>(in.program, cfg);
      const Clock::time_point t = Clock::now();
      dim::snap::restore_snapshot_payload(*fresh, payload, in.program);
      const double us = us_since(t);
      restored = std::move(fresh);
      return us;
    });
  }

  if (!configs.empty()) {
    // The array's functional core and the two alternative timing models,
    // each activation against the restored mid-run registers and memory.
    const dim::sim::CpuState base = restored->state();
    dim::mem::Memory& memory = restored->memory();
    double ops = 0;
    for (const dim::rra::Configuration& c : configs) ops += c.instruction_count();
    auto activations = [&](const char* name, Rate& per_act, Rate* per_op, auto&& exec) {
      Span s(name);
      const Clock::time_point begin = Clock::now();
      do {
        const Clock::time_point t = Clock::now();
        for (const dim::rra::Configuration& c : configs) {
          dim::sim::CpuState state = base;
          exec(c, state);
        }
        const Clock::time_point e = Clock::now();
        per_act.add(t, e, static_cast<double>(configs.size()));
        if (per_op) per_op->add(t, e, ops);
      } while (ms_between(begin, Clock::now()) < kProbeMs);
    };
    activations("rra.exec", p.exec_act, &p.exec_op,
                [&](const dim::rra::Configuration& c, dim::sim::CpuState& state) {
                  dim::rra::execute_configuration(c, state, memory, nullptr, cfg.array_timing);
                });
    dim::rra::ExecModeParams elastic;
    elastic.mode = dim::rra::ExecMode::kElastic;
    const auto elastic_model = dim::rra::make_execution_model(elastic);
    activations("rra.elastic", p.elastic, nullptr,
                [&](const dim::rra::Configuration& c, dim::sim::CpuState& state) {
                  elastic_model->execute(c, state, memory, nullptr, cfg.array_timing, false);
                });
    dim::rra::ExecModeParams simt;
    simt.mode = dim::rra::ExecMode::kSimt;
    const auto simt_model = dim::rra::make_execution_model(simt);
    activations("rra.simt", p.simt, nullptr,
                [&](const dim::rra::Configuration& c, dim::sim::CpuState& state) {
                  simt_model->execute(c, state, memory, nullptr, cfg.array_timing, false);
                });
    {
      Span s("rra.admissible");
      repeat_us(p.admissible_us, [&] {
        const Clock::time_point t = Clock::now();
        int admitted = 0;
        for (const dim::rra::Configuration& c : configs) {
          admitted += dim::rra::elastic_admissible(c, elastic.fifo_capacity) ? 1 : 0;
        }
        volatile int sink = admitted;
        (void)sink;
        return us_since(t) / static_cast<double>(configs.size());
      });
    }
  }

  // The translator on its own: observe over the recorded stream, replay of
  // the harvested configurations, and rcache lookups over the PC stream.
  const dim::bt::TranslatorParams tp = translator_params(cfg);
  {
    Span s("bt.observe");
    dim::bt::ReconfigCache cache(cfg.cache_slots, cfg.cache_replacement);
    dim::bt::BimodalPredictor predictor;
    dim::bt::Translator translator(tp, &cache, &predictor);
    const Clock::time_point t = Clock::now();
    for (const dim::sim::StepInfo& info : stream) translator.observe(info);
    p.observe.add(t, Clock::now(), static_cast<double>(stream.size()));
  }
  if (!configs.empty()) {
    Span s("bt.rebuild");
    const Clock::time_point begin = Clock::now();
    do {
      for (const dim::rra::Configuration& c : configs) {
        const Clock::time_point t = Clock::now();
        dim::bt::ConfigBuilder builder(c.start_pc, tp);
        const bool fits = builder.replay(c);
        p.rebuild.add(t, Clock::now(), fits ? c.instruction_count() : 0);
      }
    } while (ms_between(begin, Clock::now()) < kProbeMs);
  }
  {
    Span s("bt.lookup");
    dim::bt::ReconfigCache cache(std::max<size_t>(configs.size(), 1), cfg.cache_replacement);
    for (const dim::rra::Configuration& c : configs) cache.preload(c);
    const Clock::time_point t = Clock::now();
    size_t found = 0;
    for (const dim::sim::StepInfo& info : stream) found += cache.lookup(info.pc) != nullptr;
    p.lookup.add(t, Clock::now(), static_cast<double>(stream.size()));
    volatile size_t sink = found;
    (void)sink;
  }

  // The plain simulator with trace dispatch on (fast) and off (slow).
  for (const bool fast : {true, false}) {
    Span s(fast ? "sim.fast" : "sim.slow");
    dim::sim::MachineConfig mc;
    mc.host_trace_dispatch = fast;
    const Clock::time_point t = Clock::now();
    const dim::sim::RunResult r = dim::sim::run_baseline(in.program, mc);
    (fast ? p.fast : p.slow).add(t, Clock::now(), static_cast<double>(r.instructions));
  }
}

}  // namespace

void probe_layers(const Args& args, const std::vector<LayerInput>& inputs,
                  std::map<std::string, double>& m) {
  const SystemConfig cfg = Cell{"", 1, true, 64}.config();
  Probes p;
  for (const LayerInput& in : inputs) probe_program(in, cfg, p);

  // The fuzz front end on the run's own seed range.
  const std::vector<dim::fuzz::MatrixPoint> matrix = dim::fuzz::full_matrix();
  dim::fuzz::GenOptions gen;
  gen.hammocks = gen.long_chains = gen.lane_divergence = true;
  {
    Span s("fuzz.generate");
    uint64_t seed = args.fuzz_seed_start;
    repeat_us(p.generate_us, [&] {
      const Clock::time_point t = Clock::now();
      const dim::fuzz::FuzzProgram prog = dim::fuzz::generate_program(seed++, gen);
      const double us = us_since(t);
      if (prog.stmts.empty()) throw std::runtime_error("empty fuzz program");
      return us;
    });
  }
  {
    Span s("fuzz.check");
    for (uint64_t k = 0; k < 3; ++k) {
      const std::string src = dim::fuzz::generate_program(args.fuzz_seed_start + k, gen).render();
      const Clock::time_point t = Clock::now();
      dim::fuzz::check_program(src, matrix);
      p.check_ms.push_back(us_since(t) / 1000.0);
    }
  }

  const double kinstr = p.instructions / 1000.0;
  m["asm.assemble_us"] = median(p.assemble_us);
  m["fuzz.generate_us"] = median(p.generate_us);
  m["fuzz.check_ms"] = median(p.check_ms);
  m["accel.ctor_us"] = median(p.ctor_us);
  m["mem.content_hash_us"] = median(p.hash_us);
  m["bt.observe_ns_per_instr"] = p.observe.per_unit();
  m["bt.rebuild_ns_per_op"] = p.rebuild.per_unit();
  m["bt.lookup_ns"] = p.lookup.per_unit();
  m["bt.inserts_per_kinstr"] = kinstr > 0 ? p.inserts / kinstr : 0;
  m["bt.flushes_per_kinstr"] = kinstr > 0 ? p.flushes / kinstr : 0;
  m["bt.extensions_per_kinstr"] = kinstr > 0 ? p.extensions / kinstr : 0;
  m["bt.config_survival"] = p.inserts > 0 ? (p.inserts - p.flushes) / p.inserts : 0;
  m["bt.rcache_hit_ratio"] = p.hits + p.misses > 0 ? p.hits / (p.hits + p.misses) : 0;
  m["rra.exec_ns_per_activation"] = p.exec_act.per_unit();
  m["rra.exec_ns_per_op"] = p.exec_op.per_unit();
  m["rra.ops_per_activation"] = p.activations > 0 ? p.array_instructions / p.activations : 0;
  m["rra.coverage"] = p.instructions > 0 ? p.array_instructions / p.instructions : 0;
  m["rra.elastic_ns_per_activation"] = p.elastic.per_unit();
  m["rra.simt_ns_per_activation"] = p.simt.per_unit();
  m["rra.admissible_us"] = median(p.admissible_us);
  m["sim.fast_ns_per_instr"] = p.fast.per_unit();
  m["sim.slow_ns_per_instr"] = p.slow.per_unit();
  m["accel.run_ns_per_instr"] = p.run.per_unit();
  m["snap.encode_us"] = median(p.encode_us);
  m["snap.restore_us"] = median(p.restore_us);
  m["snap.bytes"] = median(p.snap_bytes);
}

}  // namespace pb
