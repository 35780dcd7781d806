#include "rra/array_exec.hpp"

#include <algorithm>
#include <array>
#include <bitset>

#include "common/bitutil.hpp"
#include "common/inline_vec.hpp"
#include "sim/executor.hpp"

namespace dim::rra {

using isa::Instr;
using isa::Op;

namespace {

// Byte-granular store buffer: speculative stores stay here until commit,
// and younger loads see them (store-to-load forwarding). Entries live
// inline up to a typical configuration's store count, so an activation
// does not allocate. Address arithmetic wraps at 2^32 like the core's.
class StoreBuffer {
 public:
  void store(uint32_t addr, int width, uint32_t value) {
    entries_.push_back(Entry{addr, value, static_cast<uint32_t>(width)});
  }

  // Loads `width` bytes at `addr`: straight from memory when no buffered
  // store overlaps them, byte by byte (youngest store first) otherwise.
  uint32_t load(uint32_t addr, int width, const mem::Memory& memory) const {
    const uint32_t w = static_cast<uint32_t>(width);
    bool overlap = false;
    for (const Entry& e : entries_) {
      if (addr - e.addr < e.width || e.addr - addr < w) {
        overlap = true;
        break;
      }
    }
    if (!overlap) {
      switch (width) {
        case 1: return memory.read8(addr);
        case 2: return memory.read16(addr);
        default: return memory.read32(addr);
      }
    }
    uint32_t value = 0;
    for (uint32_t b = 0; b < w; ++b) {
      value |= static_cast<uint32_t>(load_byte(addr + b, memory)) << (8 * b);
    }
    return value;
  }

  void drain_to(mem::Memory& memory) const {
    for (const Entry& e : entries_) {
      switch (e.width) {
        case 1: memory.write8(e.addr, static_cast<uint8_t>(e.value)); break;
        case 2: memory.write16(e.addr, static_cast<uint16_t>(e.value)); break;
        default: memory.write32(e.addr, e.value); break;
      }
    }
  }

 private:
  struct Entry {
    uint32_t addr;
    uint32_t value;
    uint32_t width;
  };

  uint8_t load_byte(uint32_t addr, const mem::Memory& memory) const {
    for (size_t k = entries_.size(); k-- > 0;) {
      const Entry& e = entries_[k];
      const uint32_t offset = addr - e.addr;
      if (offset < e.width) return static_cast<uint8_t>(e.value >> (offset * 8));
    }
    return memory.read8(addr);
  }

  InlineVec<Entry, 16> entries_;
};

}  // namespace

ArrayExecOutcome execute_configuration(const Configuration& config,
                                       sim::CpuState& state, mem::Memory& memory,
                                       mem::Cache* dcache,
                                       const ArrayTimingParams& timing,
                                       bool resident, ArrayExecTrace* trace) {
  ArrayExecOutcome out;
  out.reconfig_stall_cycles = resident ? resident_stall_cycles(config, timing)
                                       : reconfig_stall_cycles(config, timing);

  // Context: 32 GPRs + HI + LO, loaded from the register bank.
  std::array<uint32_t, kNumCtxRegs> ctx{};
  std::copy(state.regs.begin(), state.regs.end(), ctx.begin());
  ctx[kCtxHi] = state.hi;
  ctx[kCtxLo] = state.lo;

  StoreBuffer store_buffer;
  int last_row = -1;
  uint32_t next_pc = config.end_pc;
  int committed_bbs = config.num_bbs;
  // Context registers actually written by committed ops: on a partial
  // (misspeculated) commit only these drain through the write ports —
  // the squashed suffix never produced a result to write back.
  std::bitset<kNumCtxRegs> committed_writes;

  // Predicate slots written by pred-defining branches (if-conversion).
  std::array<bool, kMaxPredSlots> pred{};

  for (const ArrayOp& op : config.ops) {
    const Instr& i = op.instr;
    const uint32_t rs = ctx[i.rs];
    const uint32_t rt = ctx[i.rt];
    last_row = std::max(last_row, op.row);

    ArrayExecTrace::OpTrace* ot = nullptr;
    if (trace != nullptr) {
      trace->ops.emplace_back();
      ot = &trace->ops.back();
    }

    if (op.is_pred_def) {
      // Hammock branch: both arms are placed, so it cannot misspeculate. It
      // just latches its condition into the predicate slot and retires.
      ++out.committed_ops;
      ++out.alu_ops;
      const bool taken = sim::branch_taken(i, rs, rt);
      pred[static_cast<size_t>(op.pred_slot)] = taken;
      out.branch_outcomes.push_back(BranchOutcome{op.pc, taken, true});
      if (ot != nullptr) ot->active = true;
      continue;
    }

    const bool active =
        op.pred_slot < 0 || pred[static_cast<size_t>(op.pred_slot)] == op.pred_when_taken;
    if (ot != nullptr) ot->active = active;

    if (op.is_join_jump) {
      // Diamond-internal `b join`: the FU evaluates it either way, but it
      // retires (and reaches the predictor) only on the fall-through arm —
      // the software path never fetches it when the hammock branch is taken.
      ++out.alu_ops;
      if (active) {
        ++out.committed_ops;
        out.branch_outcomes.push_back(BranchOutcome{op.pc, true, true});
      }
      continue;
    }

    if (!active) {
      // Squashed arm: the FU still toggles (it is physically wired into the
      // row), but register/HI-LO writeback, stores and cache traffic are all
      // suppressed and the op does not retire.
      if (isa::fu_kind(i.op) == isa::FuKind::kMul) {
        ++out.mul_ops;
      } else if (isa::fu_kind(i.op) != isa::FuKind::kLdSt) {
        ++out.alu_ops;
      }
      continue;
    }
    ++out.committed_ops;

    if (op.is_branch) {
      ++out.alu_ops;
      const bool taken = sim::branch_taken(i, rs, rt);
      const bool matched = (taken == op.predicted_taken);
      out.branch_outcomes.push_back(BranchOutcome{op.pc, taken, matched});
      if (!matched) {
        out.misspeculated = true;
        out.misspec_branch_pc = op.pc;
        next_pc = taken ? sim::branch_target(i, op.pc) : op.pc + 4;
        committed_bbs = op.bb_index + 1;
        break;
      }
      continue;
    }

    switch (isa::fu_kind(i.op)) {
      case isa::FuKind::kLdSt: {
        const uint32_t addr = sim::effective_address(i, rs);
        if (dcache != nullptr) {
          const uint64_t penalty = dcache->access(addr);
          out.dcache_stall_cycles += penalty;
          if (ot != nullptr) ot->dcache_penalty = penalty;
        }
        ++out.mem_ops;
        if (isa::is_store(i.op)) {
          ++out.stores;
          const int width = sim::mem_width(i.op);
          store_buffer.store(addr, width, rt);
          const uint32_t end = addr + static_cast<uint32_t>(width);
          if (!out.wrote_memory) {
            out.wrote_memory = true;
            out.store_lo = addr;
            out.store_hi = end;
          } else {
            out.store_lo = std::min(out.store_lo, addr);
            out.store_hi = std::max(out.store_hi, end);
          }
        } else {
          ++out.loads;
          const int width = sim::mem_width(i.op);
          uint32_t value = store_buffer.load(addr, width, memory);
          if (i.op == Op::kLb) value = static_cast<uint32_t>(static_cast<int8_t>(value));
          if (i.op == Op::kLh) value = static_cast<uint32_t>(static_cast<int16_t>(value));
          if (i.rt != 0) {
            ctx[i.rt] = value;
            committed_writes.set(i.rt);
          }
        }
        break;
      }
      case isa::FuKind::kMul: {
        ++out.mul_ops;
        const uint64_t product = sim::mult_eval(i.op, rs, rt);
        ctx[kCtxLo] = static_cast<uint32_t>(product);
        ctx[kCtxHi] = static_cast<uint32_t>(product >> 32);
        committed_writes.set(kCtxLo);
        committed_writes.set(kCtxHi);
        break;
      }
      default: {
        ++out.alu_ops;
        if (i.op == Op::kMfhi) {
          if (i.rd != 0) {
            ctx[i.rd] = ctx[kCtxHi];
            committed_writes.set(i.rd);
          }
        } else if (i.op == Op::kMflo) {
          if (i.rd != 0) {
            ctx[i.rd] = ctx[kCtxLo];
            committed_writes.set(i.rd);
          }
        } else {
          const uint32_t value = sim::alu_eval(i, rs, rt);
          const int rd = isa::dest_reg(i);
          if (rd > 0) {
            ctx[static_cast<size_t>(rd)] = value;
            committed_writes.set(static_cast<size_t>(rd));
          }
        }
        break;
      }
    }
  }

  // Commit: every executed op belongs to a resolved basic block (the walk
  // stops at the first mispredicted branch), so the whole context and the
  // store buffer are architectural now.
  ctx[0] = 0;
  std::copy_n(ctx.begin(), 32, state.regs.begin());
  state.hi = ctx[kCtxHi];
  state.lo = ctx[kCtxLo];
  store_buffer.drain_to(memory);
  state.pc = next_pc;

  out.next_pc = next_pc;
  out.committed_bbs = committed_bbs;
  out.exec_cycles = rows_exec_cycles(config, last_row, timing);
  // Drain of the final write-backs, limited by the register-bank write
  // ports (earlier rows' results retire during execution). On a partial
  // (misspeculated) commit only the registers actually written by the
  // committed prefix drain — the squashed suffix, which may hold most of
  // the configuration's output_regs, produced nothing to write back.
  const int drained_regs = out.misspeculated
                               ? static_cast<int>(committed_writes.count())
                               : config.output_regs;
  const int64_t port_cycles =
      ceil_div(drained_regs, timing.regfile_write_ports > 0 ? timing.regfile_write_ports : 1);
  out.finalize_cycles = static_cast<uint64_t>(
      port_cycles > timing.finalize_cycles ? port_cycles : timing.finalize_cycles);
  if (out.misspeculated) {
    out.misspec_penalty_cycles = static_cast<uint64_t>(timing.misspec_penalty);
  }
  return out;
}

}  // namespace dim::rra
