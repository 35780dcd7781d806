#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <optional>
#include <sstream>

#include "accel/stats_io.hpp"
#include "asm/assembler.hpp"
#include "sim/machine.hpp"

namespace dim::fuzz {

namespace {

std::string hex32(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

std::string u64(uint64_t v) { return std::to_string(v); }

accel::SystemConfig make_config(const rra::ArrayShape& shape, size_t slots,
                                bt::Replacement policy, bool spec, int depth) {
  accel::SystemConfig c;
  c.shape = shape;
  c.cache_slots = slots;
  c.cache_replacement = policy;
  c.speculation = spec;
  c.max_spec_bbs = depth;
  return c;
}

void add_shape_points(std::vector<MatrixPoint>& out, const std::string& shape_label,
                      const rra::ArrayShape& shape) {
  struct CacheChoice {
    const char* label;
    size_t slots;
    bt::Replacement policy;
  };
  struct SpecChoice {
    const char* label;
    bool spec;
    int depth;
  };
  static const CacheChoice kCaches[] = {{"fifo4", 4, bt::Replacement::kFifo},
                                        {"lru64", 64, bt::Replacement::kLru}};
  static const SpecChoice kSpecs[] = {
      {"nospec", false, 3}, {"spec1", true, 1}, {"spec3", true, 3}};
  for (const CacheChoice& cache : kCaches) {
    for (const SpecChoice& spec : kSpecs) {
      MatrixPoint p;
      p.label = shape_label + "/" + cache.label + "/" + spec.label;
      p.config = make_config(shape, cache.slots, cache.policy, spec.spec, spec.depth);
      out.push_back(std::move(p));
    }
  }
}

}  // namespace

std::vector<MatrixPoint> full_matrix() {
  std::vector<MatrixPoint> out;
  add_shape_points(out, "shape1", rra::ArrayShape::config1());
  add_shape_points(out, "shape2", rra::ArrayShape::config2());
  add_shape_points(out, "tiny", rra::ArrayShape{6, 3, 1, 1});
  // The predication axis: every point again with if-conversion and loop
  // residency on ("…/pred"), doubling the grid to 36 points. Residency is
  // timing-only and predication must be transparent, so every /pred point
  // answers to the same oracles as its base point.
  const size_t base_points = out.size();
  for (size_t i = 0; i < base_points; ++i) {
    MatrixPoint p = out[i];
    p.label += "/pred";
    p.config.predication = true;
    p.config.residency = accel::Residency::kLoop;
    out.push_back(std::move(p));
  }
  // The execution-mode axis (src/rra/exec_mode/): every base point again
  // under the elastic and SIMT personalities, 72 points in total. Both
  // modes share the functional core with row-sync, so they answer to the
  // same architectural oracles; only timing/stats may differ — and those
  // must still agree between slow and fast dispatch at the same point.
  // Predication is on so that SIMT's per-lane masks and elastic's
  // predicate-slot edges actually get exercised; capacities/lanes
  // alternate so both a backpressure-heavy (cap 1) and a relaxed (cap 4)
  // FIFO, and both narrow and wide warps, appear in the grid.
  for (size_t i = 0; i < base_points; ++i) {
    MatrixPoint p = out[i];
    p.label += "/elastic";
    p.config.predication = true;
    p.config.exec_mode.mode = rra::ExecMode::kElastic;
    p.config.exec_mode.fifo_capacity = (i % 2 == 0) ? 1 : 4;
    out.push_back(std::move(p));
  }
  for (size_t i = 0; i < base_points; ++i) {
    MatrixPoint p = out[i];
    p.label += "/simt";
    p.config.predication = true;
    p.config.exec_mode.mode = rra::ExecMode::kSimt;
    p.config.exec_mode.lanes = (i % 2 == 0) ? 2 : 4;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<MatrixPoint> quick_matrix() {
  std::vector<MatrixPoint> out;
  MatrixPoint p;
  p.label = "shape1/fifo4/spec3";
  p.config = make_config(rra::ArrayShape::config1(), 4, bt::Replacement::kFifo, true, 3);
  out.push_back(p);
  p.label = "shape2/lru64/nospec";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, false, 3);
  out.push_back(p);
  p.label = "tiny/fifo4/spec1";
  p.config = make_config(rra::ArrayShape{6, 3, 1, 1}, 4, bt::Replacement::kFifo, true, 1);
  out.push_back(p);
  p.label = "shape2/lru64/spec3";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, true, 3);
  out.push_back(p);
  p.label = "shape1/fifo4/spec3/pred";
  p.config = make_config(rra::ArrayShape::config1(), 4, bt::Replacement::kFifo, true, 3);
  p.config.predication = true;
  p.config.residency = accel::Residency::kLoop;
  out.push_back(p);
  p.label = "shape2/lru64/nospec/pred";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, false, 3);
  p.config.predication = true;
  p.config.residency = accel::Residency::kLoop;
  out.push_back(p);
  p.label = "shape1/fifo4/spec3/elastic";
  p.config = make_config(rra::ArrayShape::config1(), 4, bt::Replacement::kFifo, true, 3);
  p.config.predication = true;
  p.config.exec_mode.mode = rra::ExecMode::kElastic;
  p.config.exec_mode.fifo_capacity = 1;
  out.push_back(p);
  p.label = "shape2/lru64/spec3/simt";
  p.config = make_config(rra::ArrayShape::config2(), 64, bt::Replacement::kLru, true, 3);
  p.config.predication = true;
  p.config.exec_mode.mode = rra::ExecMode::kSimt;
  p.config.exec_mode.lanes = 4;
  out.push_back(p);
  return out;
}

const char* divergence_field_name(DivergenceField field) {
  switch (field) {
    case DivergenceField::kNone: return "none";
    case DivergenceField::kTermination: return "termination";
    case DivergenceField::kOutput: return "output";
    case DivergenceField::kRegister: return "register";
    case DivergenceField::kHiLo: return "hi_lo";
    case DivergenceField::kMemory: return "memory";
    case DivergenceField::kRetiredCount: return "retired_count";
    case DivergenceField::kCycles: return "cycles";
    case DivergenceField::kStats: return "stats";
    case DivergenceField::kEvents: return "events";
  }
  return "unknown";
}

namespace {

// The two runs a diff compares, named as they appear in detail strings:
// the reference side first, the side under test second.
struct Sides {
  const char* reference;
  const char* tested;
};
constexpr Sides kTransparency{"baseline", "accelerated"};
constexpr Sides kDispatch{"slow", "fast"};

// "<reference> <a> vs <tested> <b>" — the tail of every detail string.
std::string versus(const Sides& sides, const std::string& a, const std::string& b) {
  return std::string(sides.reference) + " " + a + " vs " + sides.tested + " " + b;
}

// The architectural diff both oracles share: termination, output, every
// register, PC, HI/LO, the memory image (byte-precise) and the retired
// count, in that order. Fills field/detail on the first mismatch; leaves
// kNone when the runs agree.
void diff_cpu_state(const sim::CpuState& a, const sim::CpuState& b,
                    const Sides& sides, Divergence& d) {
  if (a.halted != b.halted) {
    d.field = DivergenceField::kTermination;
    d.detail = "halted: " + versus(sides, a.halted ? "true" : "false",
                                   b.halted ? "true" : "false");
    return;
  }
  if (a.output != b.output) {
    d.field = DivergenceField::kOutput;
    d.detail = "program output differs: " +
               versus(sides, "\"" + a.output + "\"", "\"" + b.output + "\"");
    return;
  }
  for (size_t r = 0; r < a.regs.size(); ++r) {
    if (a.regs[r] != b.regs[r]) {
      d.field = DivergenceField::kRegister;
      d.detail = "register $" + std::to_string(r) + ": " +
                 versus(sides, hex32(a.regs[r]), hex32(b.regs[r]));
      return;
    }
  }
  if (a.pc != b.pc) {
    d.field = DivergenceField::kRegister;
    d.detail = "pc: " + versus(sides, hex32(a.pc), hex32(b.pc));
    return;
  }
  if (a.hi != b.hi || a.lo != b.lo) {
    d.field = DivergenceField::kHiLo;
    d.detail = "hi/lo: " + versus(sides, hex32(a.hi) + "/" + hex32(a.lo),
                                  hex32(b.hi) + "/" + hex32(b.lo));
  }
}

void diff_memory(const mem::Memory& a, const mem::Memory& b, const Sides& sides,
                 Divergence& d) {
  const auto addr = a.first_difference(b);
  if (addr.has_value()) {
    d.field = DivergenceField::kMemory;
    d.detail = "memory byte at " + hex32(*addr) + ": " +
               versus(sides, hex32(a.read8(*addr)), hex32(b.read8(*addr)));
  }
}

void diff_architecture(const sim::CpuState& a, const sim::CpuState& b,
                       const mem::Memory& a_mem, const mem::Memory& b_mem,
                       uint64_t a_retired, uint64_t b_retired, const Sides& sides,
                       Divergence& d) {
  diff_cpu_state(a, b, sides, d);
  if (d.field == DivergenceField::kNone) diff_memory(a_mem, b_mem, sides, d);
  if (d.field == DivergenceField::kNone && a_retired != b_retired) {
    d.field = DivergenceField::kRetiredCount;
    d.detail = "retired instructions: " + versus(sides, u64(a_retired), u64(b_retired));
  }
}

// First differing line of two multi-line strings, for kStats details.
std::string first_line_diff(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::string la;
  std::string lb;
  while (true) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) return "(identical?)";
    if (!ga || !gb || la != lb) {
      return versus(kDispatch, "`" + (ga ? la : std::string("<eof>")) + "`",
                    "`" + (gb ? lb : std::string("<eof>")) + "`");
    }
  }
}

// Assembles `source`; a source that does not assemble leaves no verdict.
std::optional<asmblr::Program> assemble_or_inconclusive(const std::string& source,
                                                        OracleResult& result) {
  try {
    return asmblr::assemble(source);
  } catch (const std::exception& e) {
    result.inconclusive = true;
    result.inconclusive_reason = std::string("assembly failed: ") + e.what();
    return std::nullopt;
  }
}

// Stores `d` as the verdict when it names a difference, with the tail of
// the tested side's event stream; false when the runs agree.
bool report(Divergence& d, const std::vector<obs::Event>& events,
            const OracleOptions& options, OracleResult& result) {
  if (d.field == DivergenceField::kNone) return false;
  d.found = true;
  const size_t keep = std::min(options.event_context, events.size());
  d.recent_events.assign(events.end() - static_cast<ptrdiff_t>(keep), events.end());
  result.divergence = std::move(d);
  return true;
}

}  // namespace

OracleResult check_dispatch_program(const std::string& source,
                                    const std::vector<MatrixPoint>& matrix,
                                    const OracleOptions& options) {
  OracleResult result;
  const std::optional<asmblr::Program> program = assemble_or_inconclusive(source, result);
  if (!program) return result;

  // Level 1: the plain Machine, slow vs fast. Both sides share the limit
  // and must cut at the same instruction, so hitting it is comparable.
  sim::MachineConfig slow_cfg;
  slow_cfg.max_instructions = options.max_instructions;
  slow_cfg.host_trace_dispatch = false;
  sim::MachineConfig fast_cfg = slow_cfg;
  fast_cfg.host_trace_dispatch = true;

  sim::Machine slow_machine(*program, slow_cfg);
  sim::Machine fast_machine(*program, fast_cfg);
  const sim::RunResult rs = slow_machine.run();
  const sim::RunResult rf = fast_machine.run();

  {
    Divergence d;
    d.point_label = "machine";
    diff_architecture(rs.state, rf.state, slow_machine.memory(), fast_machine.memory(),
                      rs.instructions, rf.instructions, kDispatch, d);
    if (d.field == DivergenceField::kNone &&
        (rs.cycles != rf.cycles || rs.icache_misses != rf.icache_misses ||
         rs.dcache_misses != rf.dcache_misses)) {
      d.field = DivergenceField::kCycles;
      d.detail = "cycles/ic-misses/dc-misses: " +
                 versus(kDispatch,
                        u64(rs.cycles) + "/" + u64(rs.icache_misses) + "/" +
                            u64(rs.dcache_misses),
                        u64(rf.cycles) + "/" + u64(rf.icache_misses) + "/" +
                            u64(rf.dcache_misses));
    }
    if (d.field == DivergenceField::kNone && rs.mem_accesses != rf.mem_accesses) {
      d.field = DivergenceField::kStats;
      d.detail = "memory accesses: " +
                 versus(kDispatch, u64(rs.mem_accesses), u64(rf.mem_accesses));
    }
    if (report(d, {}, options, result)) return result;
  }

  // Level 2: the accelerated system at every matrix point, slow vs fast —
  // stats counters via the (schema-complete) JSON form and the stamped
  // event stream, on top of the architectural diff.
  for (const MatrixPoint& point : matrix) {
    obs::RecordingSink slow_sink;
    obs::RecordingSink fast_sink;
    accel::SystemConfig slow_sys_cfg = point.config;
    slow_sys_cfg.machine = slow_cfg;
    slow_sys_cfg.event_sink = &slow_sink;
    slow_sys_cfg.fault_injection = options.fault;
    accel::SystemConfig fast_sys_cfg = slow_sys_cfg;
    fast_sys_cfg.machine = fast_cfg;
    fast_sys_cfg.event_sink = &fast_sink;

    accel::AcceleratedSystem slow_sys(*program, slow_sys_cfg);
    accel::AcceleratedSystem fast_sys(*program, fast_sys_cfg);
    const accel::AccelStats as = slow_sys.run();
    const accel::AccelStats af = fast_sys.run();

    Divergence d;
    d.point_label = point.label;
    diff_architecture(as.final_state, af.final_state, slow_sys.memory(),
                      fast_sys.memory(), as.instructions, af.instructions, kDispatch, d);
    if (d.field == DivergenceField::kNone && as.cycles != af.cycles) {
      d.field = DivergenceField::kCycles;
      d.detail = "cycles: " + versus(kDispatch, u64(as.cycles), u64(af.cycles));
    }
    if (d.field == DivergenceField::kNone) {
      std::ostringstream js;
      std::ostringstream jf;
      accel::write_json(js, as, "cmp");
      accel::write_json(jf, af, "cmp");
      if (js.str() != jf.str()) {
        d.field = DivergenceField::kStats;
        d.detail = "stats: " + first_line_diff(js.str(), jf.str());
      }
    }
    if (d.field == DivergenceField::kNone) {
      const std::vector<obs::Event>& es = slow_sink.events();
      const std::vector<obs::Event>& ef = fast_sink.events();
      if (es.size() != ef.size()) {
        d.field = DivergenceField::kEvents;
        d.detail = "event count: " + versus(kDispatch, u64(es.size()), u64(ef.size()));
      } else {
        for (size_t k = 0; k < es.size(); ++k) {
          const std::string fs = obs::format_event(es[k]);
          const std::string ff = obs::format_event(ef[k]);
          if (fs != ff) {
            d.field = DivergenceField::kEvents;
            d.detail = "event " + u64(k) + ": " + versus(kDispatch, "`" + fs + "`",
                                                          "`" + ff + "`");
            break;
          }
        }
      }
    }
    if (report(d, fast_sink.events(), options, result)) return result;
  }
  return result;
}

OracleResult check_program(const std::string& source,
                           const std::vector<MatrixPoint>& matrix,
                           const OracleOptions& options) {
  OracleResult result;
  const std::optional<asmblr::Program> program = assemble_or_inconclusive(source, result);
  if (!program) return result;

  sim::MachineConfig machine;
  machine.max_instructions = options.max_instructions;
  sim::Machine baseline(*program, machine);
  const sim::RunResult base = baseline.run();
  if (base.hit_limit) {
    result.inconclusive = true;
    result.inconclusive_reason =
        "baseline hit the instruction limit (" + u64(machine.max_instructions) + ")";
    return result;
  }

  for (const MatrixPoint& point : matrix) {
    obs::RecordingSink sink;
    accel::SystemConfig config = point.config;
    config.machine = machine;
    config.event_sink = &sink;
    config.fault_injection = options.fault;
    accel::AcceleratedSystem system(*program, config);
    const accel::AccelStats accel = system.run();

    Divergence d;
    d.point_label = point.label;
    if (accel.hit_limit) {
      // The baseline halted (checked above), so a limited accelerated run
      // IS an architecturally visible difference — it never terminates.
      d.field = DivergenceField::kTermination;
      d.detail = "baseline halted after " + u64(base.instructions) +
                 " instructions; accelerated still running at the limit (" +
                 u64(machine.max_instructions) + ")";
    } else {
      diff_architecture(base.state, accel.final_state, baseline.memory(),
                        system.memory(), base.instructions, accel.instructions,
                        kTransparency, d);
    }
    if (report(d, sink.events(), options, result)) return result;
  }
  return result;
}

}  // namespace dim::fuzz
