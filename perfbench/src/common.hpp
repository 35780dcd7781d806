// Shared pieces of the host-speed benchmark harness: arguments, summary
// statistics, the in-memory span recorder, and the record every workload
// fills so the end-to-end metrics are computed one way for all of them.
//
// All timing is taken here, outside the simulator, around calls into the
// public functions of each module; nothing under src/ is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
int64_t now_ns();
inline int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Self-check: plant bt::FaultInjection::kAddiuImmOffByOne on one grid
  // point / one request / one fuzz program; the run must report them failed.
  bool plant_fault = false;
  std::string record_digests;                 // maintainer mode: rewrite the digests
  std::string work_dir = ".bench_build/run";  // private temp dirs and traces
  int setup_probe_fd = -1;  // set-up probe child: pipe to report readiness on
  unsigned threads = 4;                       // load threads / sessions: min(4, nproc)
  // Generated inputs. Defaults derive from --seed; both can be given.
  uint64_t fuzz_seed_start = 0;
  int fuzz_seeds = 0;  // programs per fuzz-matrix pass
  uint64_t traffic_seed = 0;
};

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

// Splitmix64: the harness's only source of randomness, seeded by --seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Uniform in [0, n).
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

uint64_t fnv1a(const std::string& s);
std::string hex64(uint64_t v);

// Peak resident set of this process and of its reaped children (forked
// serve workers), in MiB.
double peak_rss_mb();

// --- spans -----------------------------------------------------------------

struct SpanRec {
  const char* name = "";  // "<layer>.<call>", a string literal
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int64_t parent = -1;  // index of the enclosing span, -1 for a root
  int64_t item = -1;    // grid point / fuzz seed / request index
};

// Records spans in memory (thread-safe); written out once at exit. When
// disabled every call is a cheap no-op.
class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // Opens a span now; returns its id (-1 when disabled).
  int64_t open(const char* name, int64_t parent, int64_t item = -1);
  void close(int64_t id);
  // Records a finished span measured by the caller.
  int64_t record(const char* name, int64_t start_ns, int64_t end_ns, int64_t parent,
                 int64_t item = -1);

  // Self time of a layer (span duration minus the part its children
  // cover, summed over the layer's spans on every thread) as a share of
  // the self time of all spans, in %.
  double self_pct(const std::string& layer) const;
  size_t size() const;
  bool write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRec> spans_;
};

// RAII span whose parent is the innermost open Span on this thread.
class Span {
 public:
  explicit Span(const char* name, int64_t item = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }
  // The innermost open span on this thread (-1 when none).
  static int64_t current();

 private:
  int64_t id_;
  int64_t prev_;
};

// --- the common run record ---------------------------------------------------

// One operation: a grid point, a fuzz program checked across the matrix,
// or one serve request.
struct OpSample {
  double service_ms = 0;  // from the call into the module to its result
  double latency_ms = 0;  // from when the operation was due to its result
  bool ok = false;        // checked correct and on time
};

// One pass of fixed work (a whole grid, a seed range, or a traffic stream).
struct PassSample {
  size_t first_op = 0;      // its operations are ops[first_op, next pass's first_op)
  double wall_s = 0;
  double ops = 0;
  double checks = 0;        // oracle checks made (see README)
  double instructions = 0;  // simulated instructions retired
  double good = 0;          // ops correct and within the latency limit
  double busy_s = 0;        // summed op service time
  double gen_lag_ms = 0;    // how late the load generator issued work
};

struct RunRecord {
  std::vector<OpSample> ops;
  std::vector<PassSample> passes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Paper-reproduction guard over a set of Table 2 cells.
struct PaperGuard {
  double log_speedup_sum = 0;
  double abs_err_pct_sum = 0;
  size_t cells = 0;
  void add(double speedup, double paper);
  double geomean() const;
  double err_pct() const;
};

}  // namespace pb
