#include "rra/configuration.hpp"

#include "common/bitutil.hpp"

namespace dim::rra {

uint64_t rows_exec_cycles(const Configuration& config, int last_row,
                          const ArrayTimingParams& timing) {
  uint64_t cycles = 0;
  int alu_run = 0;
  const int limit = last_row < config.rows_used - 1 ? last_row : config.rows_used - 1;
  for (int r = 0; r <= limit; ++r) {
    const RowKind kind = config.row_kinds[static_cast<size_t>(r)];
    if (kind == RowKind::kAlu) {
      ++alu_run;
      continue;
    }
    cycles += static_cast<uint64_t>(ceil_div(alu_run, timing.alu_rows_per_cycle));
    alu_run = 0;
    cycles += (kind == RowKind::kMul) ? timing.mul_row_cycles : timing.mem_row_cycles;
  }
  cycles += static_cast<uint64_t>(ceil_div(alu_run, timing.alu_rows_per_cycle));
  return cycles;
}

uint64_t reconfig_stall_cycles(const Configuration& config,
                               const ArrayTimingParams& timing) {
  // One configuration word per placed op is a reasonable proxy for the bit
  // volume (FU opcode + mux selects + immediate).
  const int64_t load_cycles =
      ceil_div(config.instruction_count(), timing.config_words_per_cycle);
  const int64_t fetch_cycles = ceil_div(config.input_regs, timing.regfile_read_ports);
  const int64_t needed = load_cycles > fetch_cycles ? load_cycles : fetch_cycles;
  const int64_t stall = needed - timing.reconfig_overlap_cycles;
  return stall > 0 ? static_cast<uint64_t>(stall) : 0;
}

uint64_t resident_stall_cycles(const Configuration& config,
                               const ArrayTimingParams& timing) {
  // The configuration words are already latched in the array; only the
  // operand fetch remains, still overlapped with the pipeline front-end.
  const int64_t fetch_cycles = ceil_div(config.input_regs, timing.regfile_read_ports);
  const int64_t stall = fetch_cycles - timing.reconfig_overlap_cycles;
  return stall > 0 ? static_cast<uint64_t>(stall) : 0;
}

}  // namespace dim::rra
