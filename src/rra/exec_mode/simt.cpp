// SIMT (DICE-style) personality: statically scheduled lockstep issue.
//
// One configuration is latched once and then executed for up to `lanes`
// consecutive dispatches (a warp); the warp bookkeeping — which dispatches
// skip the configuration stream — lives in the accelerated system's latch.
// This model supplies the per-dispatch timing: a fixed row cadence with NO
// intra-cycle ALU chaining (every row takes its full row time, 1 /
// mul_row_cycles / mem_row_cycles), because a static multi-lane schedule
// must budget the worst case for every lane. The cadence depends only on
// how many rows the walk traverses, never on predicate outcomes: a lane
// whose predicate mask squashes every op burns exactly the cycles of a
// fully active lane (that is the lockstep property the unit tests pin).
#include <algorithm>

#include "rra/exec_mode/models_internal.hpp"

namespace dim::rra::detail {
namespace {

class SimtModel final : public ExecutionModel {
 public:
  explicit SimtModel(const ExecModeParams& params)
      : lanes_(params.lanes > 0 ? params.lanes : 1) {}

  ExecMode mode() const override { return ExecMode::kSimt; }
  const char* name() const override { return exec_mode_name(ExecMode::kSimt); }
  bool admits(const Configuration&) const override { return true; }

  ArrayExecOutcome execute(const Configuration& config, sim::CpuState& state,
                           mem::Memory& memory, mem::Cache* dcache,
                           const ArrayTimingParams& timing,
                           bool resident) const override {
    trace_.ops.clear();
    ArrayExecOutcome out =
        execute_configuration(config, state, memory, dcache, timing, resident, &trace_);

    // Rows the walk actually traversed (a misspeculation-truncated walk
    // stops early; the static schedule stops with it).
    int last_row = -1;
    for (size_t k = 0; k < trace_.ops.size(); ++k) {
      last_row = std::max(last_row, config.ops[k].row);
    }
    const int limit = std::min(last_row, config.rows_used - 1);
    uint64_t cycles = 0;
    for (int r = 0; r <= limit; ++r) {
      switch (config.row_kinds[static_cast<size_t>(r)]) {
        case RowKind::kMul: cycles += static_cast<uint64_t>(timing.mul_row_cycles); break;
        case RowKind::kMem: cycles += static_cast<uint64_t>(timing.mem_row_cycles); break;
        default: cycles += 1; break;
      }
    }
    out.exec_cycles = cycles > 0 ? cycles : 1;
    // Cache-miss stalls stay a global serial term, exactly as in row-sync.
    return out;
  }

 private:
  // Warp size; consumed by the system's latch bookkeeping, kept here so a
  // model instance fully describes its personality.
  [[maybe_unused]] int lanes_;
  // Per-activation scratch, reused so that an activation does not
  // allocate. A model belongs to one system and is never shared across
  // threads.
  mutable ArrayExecTrace trace_;
};

}  // namespace

std::unique_ptr<ExecutionModel> make_simt_model(const ExecModeParams& params) {
  return std::make_unique<SimtModel>(params);
}

}  // namespace dim::rra::detail
