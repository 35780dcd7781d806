// Elastic (STRELA-style) personality: dataflow firing over valid/ready
// handshakes with bounded per-row output queues.
//
// Timing model. Each evaluated op contributes two events — start (fires:
// all operands latched) and produce (its result enters the producing row's
// output queue) — connected by a static event graph measured in ALU slots
// (`alu_rows_per_cycle` slots per cycle, matching the row-sync chaining
// rate):
//
//   start(o)    -> produce(o)   taking duration(o) slots: 1 for ALU work,
//                               mul_row_cycles for multiplies, and
//                               mem_row_cycles plus the op's own cache-miss
//                               penalty for memory ops — misses ride the
//                               dependence edge instead of stalling rows.
//   produce(d)  -> start(o)     for each operand producer d (data deps via
//                               the context-register wiring, predicate-slot
//                               defs, and the memory-ordering spine: loads
//                               and stores wait on the last prior store, so
//                               independent loads overlap freely).
//   produce(p)  -> produce(o)   for p immediately before o on the same row:
//                               a row's results enter its queue in order.
//   start(c)    -> produce(o)   backpressure. o is the q-th op on its row
//                               and the (q - capacity)-th op's queue slot
//                               must free first — it frees once every
//                               consumer c of that older result has fired.
//
// The makespan is the longest path (deadlock = a cycle, rejected at
// config-build time via elastic_admissible); exec_cycles is the bounded
// makespan and fifo_stall_cycles the bounded-minus-unbounded difference,
// i.e. the share of exec attributable purely to token capacity. Any prefix
// of the op list (a misspeculation-truncated walk) only removes nodes and
// edges, so admissibility of the full graph covers every runtime walk.
#include <algorithm>
#include <array>
#include <numeric>
#include <utility>
#include <vector>

#include "common/bitutil.hpp"
#include "rra/exec_mode/models_internal.hpp"

namespace dim::rra {
namespace {

// The event graph in flat (CSR) form. Node ids: start(i) = 2i,
// produce(i) = 2i + 1. Every list of the form x_begin/x holds key k's
// items at x[x_begin[k] .. x_begin[k + 1]). One instance is reused across
// graphs (a model owns one, elastic_admissible keeps one per thread), so
// once its vectors have grown to the largest configuration seen, building
// and measuring a graph allocates nothing.
struct EventGraph {
  std::vector<uint64_t> cost;  // per node, applied when the node completes
  std::vector<int32_t> dep_begin, dep;    // producers each op waits on
  std::vector<int32_t> cons_begin, cons;  // consumers of each op's result
  std::vector<int32_t> row_begin, row_ops;  // each row's ops in issue order
  std::vector<int32_t> row_of;              // row of each op
  // Unbounded-queue edges first, then the capacity backpressure edges:
  // the first `unbounded_edges` entries are the unbounded graph, the whole
  // array the bounded one.
  std::vector<std::pair<int32_t, int32_t>> edges;
  size_t unbounded_edges = 0;
  // Kahn scratch.
  std::vector<int32_t> succ_begin, succ, indeg, queue, cursor;
  std::vector<uint64_t> ready;
};

// Turns per-key counts (begin[k + 1] = items of key k, begin[0] = 0) into
// CSR offsets, and sets `cursor` to each key's first free position.
void counts_to_offsets(std::vector<int32_t>& begin, std::vector<int32_t>& cursor) {
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  cursor.assign(begin.begin(), begin.end() - 1);
}

uint64_t op_duration_slots(const ArrayOp& op, const ArrayTimingParams& timing,
                           uint64_t spc, uint64_t dcache_penalty) {
  switch (op.kind) {
    case isa::FuKind::kMul:
      return static_cast<uint64_t>(timing.mul_row_cycles) * spc;
    case isa::FuKind::kLdSt:
      return (static_cast<uint64_t>(timing.mem_row_cycles) + dcache_penalty) * spc;
    default:
      return 1;
  }
}

// Builds the event graph over the first `n_ops` ops into `g`. `trace`
// (optional) supplies per-op cache penalties and is sized >= n_ops when
// present; without it all penalties are zero (the static/admissibility
// view). `capacity` <= 0 means unbounded queues (no backpressure edges).
void build_event_graph(EventGraph& g, const Configuration& config, int n_ops,
                       int capacity, const ArrayTimingParams& timing,
                       const ArrayExecTrace* trace) {
  const size_t n = static_cast<size_t>(n_ops);
  const size_t rows = static_cast<size_t>(std::max(config.rows_used, 1));
  g.cost.assign(2 * n, 0);
  g.dep_begin.resize(n + 1);
  g.dep.clear();
  g.cons_begin.assign(n + 1, 0);
  g.row_begin.assign(rows + 1, 0);
  g.row_of.resize(n);

  const uint64_t spc =
      timing.alu_rows_per_cycle > 0 ? static_cast<uint64_t>(timing.alu_rows_per_cycle) : 1;

  auto start_of = [](int32_t i) { return 2 * i; };
  auto produce_of = [](int32_t i) { return 2 * i + 1; };

  std::array<int, kNumCtxRegs> last_writer;
  last_writer.fill(-1);
  std::array<int, kMaxPredSlots> pred_def;
  pred_def.fill(-1);
  int last_store = -1;

  // Pass 1: dependence discovery. Consumers of an op always come LATER in
  // issue order, so the backpressure rule (which asks for the consumers of
  // an *older* row-mate) needs the full consumer lists before any
  // capacity edge can be placed — hence two passes.
  for (size_t i = 0; i < n; ++i) {
    const ArrayOp& op = config.ops[i];
    const uint64_t penalty = (trace != nullptr && op.kind == isa::FuKind::kLdSt)
                                 ? trace->ops[i].dcache_penalty
                                 : 0;
    g.cost[2 * i + 1] = op_duration_slots(op, timing, spc, penalty);
    g.dep_begin[i] = static_cast<int32_t>(g.dep.size());

    auto depend = [&g](int d) {
      g.dep.push_back(d);
      ++g.cons_begin[static_cast<size_t>(d) + 1];
    };

    // Data dependences through the context-register wiring. The wiring is
    // static (placement-time last writer), independent of predicates.
    int srcs[2];
    const int n_src = array_srcs(op.instr, srcs);
    for (int s = 0; s < n_src; ++s) {
      if (srcs[s] == 0) continue;
      const int d = last_writer[static_cast<size_t>(srcs[s])];
      if (d >= 0) depend(d);
    }
    // Predicated ops consume their slot's defining branch.
    if (!op.is_pred_def && op.pred_slot >= 0) {
      const int d = pred_def[static_cast<size_t>(op.pred_slot)];
      if (d >= 0) depend(d);
    }
    // Memory-ordering spine: stores serialize; loads wait on the last
    // prior store but run concurrently with each other.
    if (op.kind == isa::FuKind::kLdSt && last_store >= 0) depend(last_store);

    const int32_t row = std::min(std::max(op.row, 0), std::max(config.rows_used - 1, 0));
    g.row_of[i] = row;
    ++g.row_begin[static_cast<size_t>(row) + 1];

    // Static bookkeeping for later ops.
    int dests[2];
    const int n_dst = array_dests(op.instr, dests);
    for (int d = 0; d < n_dst; ++d) {
      if (dests[d] > 0) last_writer[static_cast<size_t>(dests[d])] = static_cast<int>(i);
    }
    if (op.is_pred_def) pred_def[static_cast<size_t>(op.pred_slot)] = static_cast<int>(i);
    if (op.kind == isa::FuKind::kLdSt && isa::is_store(op.instr.op)) {
      last_store = static_cast<int>(i);
    }
  }
  g.dep_begin[n] = static_cast<int32_t>(g.dep.size());

  // Consumer lists and row lists, both in issue order.
  counts_to_offsets(g.cons_begin, g.cursor);
  g.cons.resize(g.dep.size());
  for (size_t i = 0; i < n; ++i) {
    for (int32_t k = g.dep_begin[i]; k < g.dep_begin[i + 1]; ++k) {
      const size_t d = static_cast<size_t>(g.dep[static_cast<size_t>(k)]);
      g.cons[static_cast<size_t>(g.cursor[d]++)] = static_cast<int32_t>(i);
    }
  }
  counts_to_offsets(g.row_begin, g.cursor);
  g.row_ops.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t row = static_cast<size_t>(g.row_of[i]);
    g.row_ops[static_cast<size_t>(g.cursor[row]++)] = static_cast<int32_t>(i);
  }

  // Pass 2: edges.
  g.edges.clear();
  for (int32_t i = 0; i < n_ops; ++i) {
    g.edges.emplace_back(start_of(i), produce_of(i));
    for (int32_t k = g.dep_begin[static_cast<size_t>(i)];
         k < g.dep_begin[static_cast<size_t>(i) + 1]; ++k) {
      g.edges.emplace_back(produce_of(g.dep[static_cast<size_t>(k)]), start_of(i));
    }
  }
  // A row's results enter its queue in order.
  for (size_t r = 0; r < rows; ++r) {
    for (int32_t q = g.row_begin[r] + 1; q < g.row_begin[r + 1]; ++q) {
      g.edges.emplace_back(produce_of(g.row_ops[static_cast<size_t>(q) - 1]),
                           produce_of(g.row_ops[static_cast<size_t>(q)]));
    }
  }
  g.unbounded_edges = g.edges.size();
  // Capacity backpressure: the q-th op on a row reuses the queue slot of
  // the (q - capacity)-th, which frees only once every consumer of that
  // older result has fired. With no consumers it drains straight to the
  // output bank, which the in-order chain already sequences.
  if (capacity <= 0) return;
  for (size_t r = 0; r < rows; ++r) {
    if (g.row_begin[r + 1] - g.row_begin[r] <= capacity) continue;
    for (int32_t q = g.row_begin[r] + capacity; q < g.row_begin[r + 1]; ++q) {
      const size_t older = static_cast<size_t>(g.row_ops[static_cast<size_t>(q - capacity)]);
      for (int32_t k = g.cons_begin[older]; k < g.cons_begin[older + 1]; ++k) {
        g.edges.emplace_back(start_of(g.cons[static_cast<size_t>(k)]),
                             produce_of(g.row_ops[static_cast<size_t>(q)]));
      }
    }
  }
}

// Kahn longest-path over the first `n_edges` edges of `g`. Returns false
// on a cycle (deadlock); otherwise sets `makespan` to the latest
// completion over all nodes, in slots.
bool graph_makespan(EventGraph& g, size_t n_edges, uint64_t* makespan) {
  const size_t n = g.cost.size();
  g.succ_begin.assign(n + 1, 0);
  g.indeg.assign(n, 0);
  for (size_t e = 0; e < n_edges; ++e) {
    const auto [from, to] = g.edges[e];
    ++g.succ_begin[static_cast<size_t>(from) + 1];
    ++g.indeg[static_cast<size_t>(to)];
  }
  counts_to_offsets(g.succ_begin, g.cursor);
  g.succ.resize(n_edges);
  for (size_t e = 0; e < n_edges; ++e) {
    const auto [from, to] = g.edges[e];
    g.succ[static_cast<size_t>(g.cursor[static_cast<size_t>(from)]++)] = to;
  }

  g.ready.assign(n, 0);
  g.queue.clear();
  for (size_t v = 0; v < n; ++v) {
    if (g.indeg[v] == 0) g.queue.push_back(static_cast<int32_t>(v));
  }
  uint64_t best = 0;
  for (size_t head = 0; head < g.queue.size(); ++head) {
    const size_t u = static_cast<size_t>(g.queue[head]);
    const uint64_t finish = g.ready[u] + g.cost[u];
    best = std::max(best, finish);
    for (int32_t k = g.succ_begin[u]; k < g.succ_begin[u + 1]; ++k) {
      const size_t v = static_cast<size_t>(g.succ[static_cast<size_t>(k)]);
      g.ready[v] = std::max(g.ready[v], finish);
      if (--g.indeg[v] == 0) g.queue.push_back(static_cast<int32_t>(v));
    }
  }
  if (g.queue.size() != n) return false;  // cycle
  *makespan = best;
  return true;
}

uint64_t slots_to_cycles(uint64_t slots, const ArrayTimingParams& timing) {
  const uint64_t spc =
      timing.alu_rows_per_cycle > 0 ? static_cast<uint64_t>(timing.alu_rows_per_cycle) : 1;
  const uint64_t cycles = (slots + spc - 1) / spc;
  return cycles > 0 ? cycles : 1;
}

class ElasticModel final : public ExecutionModel {
 public:
  explicit ElasticModel(const ExecModeParams& params)
      : capacity_(params.fifo_capacity > 0 ? params.fifo_capacity : 1) {}

  ExecMode mode() const override { return ExecMode::kElastic; }
  const char* name() const override { return exec_mode_name(ExecMode::kElastic); }

  bool admits(const Configuration& config) const override {
    return elastic_admissible(config, capacity_);
  }

  ArrayExecOutcome execute(const Configuration& config, sim::CpuState& state,
                           mem::Memory& memory, mem::Cache* dcache,
                           const ArrayTimingParams& timing,
                           bool resident) const override {
    trace_.ops.clear();
    ArrayExecOutcome out =
        execute_configuration(config, state, memory, dcache, timing, resident, &trace_);

    const int evaluated = static_cast<int>(trace_.ops.size());
    build_event_graph(graph_, config, evaluated, capacity_, timing, &trace_);
    uint64_t bounded = 0;
    uint64_t unbounded = 0;
    if (!graph_makespan(graph_, graph_.edges.size(), &bounded) ||
        !graph_makespan(graph_, graph_.unbounded_edges, &unbounded)) {
      // Unreachable for admitted configurations (the dispatcher falls back
      // to row-sync on rejection); keep the row-sync timing untouched.
      return out;
    }
    const uint64_t exec = slots_to_cycles(bounded, timing);
    const uint64_t exec_free = slots_to_cycles(unbounded, timing);
    out.exec_cycles = exec;
    out.fifo_stall_cycles = exec - std::min(exec_free, exec);
    // Cache misses rode the dependence edges above — they are part of
    // exec_cycles now, not a separate serial stall.
    out.dcache_stall_cycles = 0;
    return out;
  }

 private:
  int capacity_;
  // Per-activation scratch, reused so that timing an activation does not
  // allocate. A model belongs to one system and is never shared across
  // threads.
  mutable ArrayExecTrace trace_;
  mutable EventGraph graph_;
};

}  // namespace

bool elastic_admissible(const Configuration& config, int fifo_capacity) {
  // Per-thread scratch: the translator classifies configurations from
  // sweep and fuzz worker threads.
  thread_local EventGraph g;
  // <= 0 means unbounded queues: no backpressure edges, always acyclic.
  build_event_graph(g, config, config.instruction_count(), fifo_capacity,
                    ArrayTimingParams{}, nullptr);
  uint64_t ignored = 0;
  return graph_makespan(g, g.edges.size(), &ignored);
}

namespace detail {

std::unique_ptr<ExecutionModel> make_elastic_model(const ExecModeParams& params) {
  return std::make_unique<ElasticModel>(params);
}

}  // namespace detail
}  // namespace dim::rra
