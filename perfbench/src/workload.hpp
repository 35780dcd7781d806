// The interface every benchmark workload implements. main.cpp owns the
// run: it times set-up in fresh processes, runs the timed phase, computes the
// end-to-end metrics from the RunRecord, and in a traced run adds the
// per-layer probes of layers.cpp.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "asm/program.hpp"
#include "common.hpp"

namespace pb {

// A program the per-layer probes replay (layers.cpp).
struct LayerInput {
  std::string name;
  std::string source;
  dim::asmblr::Program program;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the fixture the timed phase uses.
  virtual void setup() = 0;
  // Releases the fixture.
  virtual void teardown() {}

  // The timed phase: passes of fixed work until `seconds` elapsed. Calls
  // `after_pass` (when set) after each pass, outside the pass's timing.
  virtual void run(double seconds, RunRecord& rec, const std::function<void()>& after_pass) = 0;

  // Untimed, after the timed phase: the paper-reproduction guard and, with
  // --plant-fault, the self-check. Adds its checked operations to `rec`.
  virtual void finish(RunRecord& rec, PaperGuard& guard) = 0;

  // Per-layer probe inputs and the layer numbers only the workload itself
  // can see (serve counters, pool idle time, generator lag).
  virtual std::vector<LayerInput> layer_inputs() = 0;
  virtual void layer_metrics(const RunRecord& rec, std::map<std::string, double>& m) = 0;

  // True when the workload's service could not be shut down (a serve host
  // left requests unanswered): the process must exit without destroying it.
  virtual bool hung() const { return false; }
};

std::unique_ptr<Workload> make_grid_workload(const Args& args, bool churn);
std::unique_ptr<Workload> make_fuzz_workload(const Args& args);
std::unique_ptr<Workload> make_serve_workload(const Args& args, bool pool);

// Maintainer mode: simulates all 360 grid points and writes their digests.
int record_grid_digests(const Args& args);

// Runs the 18-cell Table 2 column C#2/spec/64 as a correctness and paper
// guard for workloads that simulate no Table 2 cell of their own.
void table2_anchor(const Args& args, RunRecord& rec, PaperGuard& guard);

// Per-layer probe of the serve layers for traced runs of the other
// workloads: a short stream through the in-process server and one through
// the pool, gated like the serve workloads (failures go into `rec`).
// Returns true when a serve host could not be shut down (see hung()).
bool probe_serve(const Args& args, RunRecord& rec, std::map<std::string, double>& m);

// Per-layer probes (layers.cpp): times each layer's public calls on the
// inputs, writes "<layer>.<metric>" entries into `m`.
void probe_layers(const Args& args, const std::vector<LayerInput>& inputs,
                  std::map<std::string, double>& m);

}  // namespace pb
