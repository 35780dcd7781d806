// grid-churn / grid-steady: the paper's Table 2 sweep on SweepEngine.
//
// One pass is the full 20-point grid of every kernel in the set, heaviest
// kernel first. The grid is the paper's fixed sweep, so the seed does not
// change it (an earlier seeded point order spread the time to result by 37%
// between seeds). Each point must be transparent, halt with
// the golden output, and serialize to the AccelStats digest recorded in
// grid_digests.txt.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

#include "accel/sweep.hpp"
#include "table2.hpp"
#include "workload.hpp"

namespace pb {
namespace {

using dim::accel::SweepPoint;
using dim::accel::SweepResult;

// A point counts as on time when it lands within this long of its pass's
// start (the sweep request): generous, so only a stall misses it.
constexpr double kGridLimitMs = 30000;

// Times every point inside SweepEngine's own workers through the public
// ResultCache seam: load() runs just before a point simulates and store()
// just after. It never hits, so every point is simulated.
class PointClock : public dim::accel::ResultCache {
 public:
  void reset(const std::vector<SweepPoint>& points, int64_t pass_span) {
    base_ = points.data();
    start_.assign(points.size(), Clock::time_point{});
    end_.assign(points.size(), Clock::time_point{});
    pass_span_ = pass_span;
  }
  bool load(const SweepPoint& point, bool, SweepResult&) override {
    start_[index(point)] = Clock::now();
    return false;
  }
  void store(const SweepPoint& point, bool, const SweepResult&) override {
    const size_t i = index(point);
    end_[i] = Clock::now();
    Tracer::get().record("accel.point", to_ns(start_[i]), to_ns(end_[i]), pass_span_,
                         static_cast<int64_t>(i));
  }
  Clock::time_point start(size_t i) const { return start_[i]; }
  Clock::time_point end(size_t i) const { return end_[i]; }

 private:
  size_t index(const SweepPoint& point) const { return static_cast<size_t>(&point - base_); }

  const SweepPoint* base_ = nullptr;
  // Each slot is written by the one worker that runs that point.
  std::vector<Clock::time_point> start_;
  std::vector<Clock::time_point> end_;
  int64_t pass_span_ = -1;
};

// The grid points of `kernels` (prepared, in a stable vector) in cell order.
struct Grid {
  std::vector<Cell> cells;
  std::vector<SweepPoint> points;
};

Grid build_grid(const std::vector<Kernel>& kernels) {
  Grid g;
  for (const Kernel& k : kernels) {
    for (const Cell& c : kernel_cells(k.name)) {
      SweepPoint p;
      p.label = c.label();
      p.program = &k.program;
      p.config = c.config();
      p.baseline = &k.baseline;
      g.cells.push_back(c);
      g.points.push_back(std::move(p));
    }
  }
  return g;
}

bool point_correct(const SweepResult& r, const Kernel& k, const std::string& expected_digest) {
  return r.has_baseline && r.transparent && r.accelerated.final_state.halted &&
         !r.accelerated.hit_limit && r.accelerated.final_state.output == k.expected_output &&
         stats_digest(r.accelerated) == expected_digest;
}

std::vector<Kernel> prepare_kernels(const std::vector<std::string>& names) {
  std::vector<Kernel> kernels;
  kernels.reserve(names.size());
  for (const std::string& n : names) {
    kernels.push_back(prepare_kernel(n));
    if (kernels.back().baseline.final_state.output != kernels.back().expected_output) {
      throw std::runtime_error("baseline output of " + n + " differs from its golden model");
    }
  }
  return kernels;
}

class GridWorkload : public Workload {
 public:
  GridWorkload(const Args& args, bool churn) : args_(args), churn_(churn) {}

  void setup() override {
    kernels_ = prepare_kernels(churn_ ? churn_kernels() : steady_kernels());
    const std::map<std::string, std::string> digests = load_digests();
    Grid g = build_grid(kernels_);
    cells_ = std::move(g.cells);
    points_ = std::move(g.points);
    expected_.clear();
    for (const SweepPoint& p : points_) {
      auto it = digests.find(p.label);
      if (it == digests.end()) throw std::runtime_error("no digest for " + p.label);
      expected_.push_back(it->second);
    }
    planted_ = points_.size();
    if (args_.plant_fault) {
      const std::string label = kernels_.front().name + "/C2/sp/64";
      for (size_t i = 0; i < points_.size(); ++i) {
        if (points_[i].label == label) planted_ = i;
      }
      points_[planted_].config.fault_injection = dim::bt::FaultInjection::kAddiuImmOffByOne;
    }
  }

  void run(double seconds, RunRecord& rec, const std::function<void()>& after_pass) override {
    dim::accel::SweepOptions opts;
    opts.threads = args_.threads;
    opts.result_cache = &clock_;
    const dim::accel::SweepEngine engine(opts);
    threads_ = engine.threads();
    const Clock::time_point begin = Clock::now();
    do {
      const int64_t pass_span = Tracer::get().open("workload.pass", Span::current());
      clock_.reset(points_, pass_span);
      const Clock::time_point t0 = Clock::now();
      const std::vector<SweepResult> results = engine.run(points_);
      const Clock::time_point t1 = Clock::now();
      Tracer::get().close(pass_span);

      PassSample pass;
      pass.first_op = rec.ops.size();
      pass.wall_s = seconds_between(t0, t1);
      Clock::time_point first_start = t1;
      speedups_.assign(points_.size(), 0);
      for (size_t i = 0; i < points_.size(); ++i) {
        const SweepResult& r = results[i];
        const bool correct = point_correct(r, kernels_[i / kCellsPerKernel], expected_[i]);
        if (!correct && i != planted_) {
          std::fprintf(stderr, "grid point %s failed its correctness gate\n",
                       points_[i].label.c_str());
        }
        if (i == planted_) planted_failed_ += correct ? 0 : 1;
        OpSample op;
        op.service_ms = ms_between(clock_.start(i), clock_.end(i));
        op.latency_ms = ms_between(t0, clock_.end(i));
        op.ok = correct && op.latency_ms <= kGridLimitMs;
        rec.ops.push_back(op);
        rec.count(correct);
        first_start = std::min(first_start, clock_.start(i));
        pass.ops += 1;
        pass.checks += 1;
        pass.instructions += static_cast<double>(r.accelerated.instructions);
        pass.good += op.ok ? 1 : 0;
        pass.busy_s += op.service_ms / 1000.0;
        speedups_[i] = r.speedup();
      }
      pass.gen_lag_ms = ms_between(t0, first_start);
      rec.passes.push_back(pass);
      ++passes_;
      if (after_pass) after_pass();
    } while (seconds_between(begin, Clock::now()) < seconds);
  }

  void finish(RunRecord&, PaperGuard& guard) override {
    for (size_t i = 0; i < points_.size(); ++i) guard.add(speedups_[i], cells_[i].paper());
    if (args_.plant_fault) {
      std::printf("self-check: planted kAddiuImmOffByOne on grid point %s: failed in %llu of "
                  "%llu passes (%s)\n",
                  points_[planted_].label.c_str(),
                  static_cast<unsigned long long>(planted_failed_),
                  static_cast<unsigned long long>(passes_),
                  planted_failed_ == passes_ ? "detected" : "NOT DETECTED");
    }
  }

  std::vector<LayerInput> layer_inputs() override {
    std::vector<LayerInput> in;
    for (const Kernel& k : kernels_) in.push_back({k.name, k.source, k.program});
    return in;
  }

  void layer_metrics(const RunRecord& rec, std::map<std::string, double>& m) override {
    std::vector<double> idle;
    std::vector<double> lag;
    for (const PassSample& p : rec.passes) {
      const double capacity = static_cast<double>(threads_) * p.wall_s;
      idle.push_back(100.0 * (capacity - p.busy_s) / capacity);
      lag.push_back(p.gen_lag_ms);
    }
    m["accel.sweep_idle_pct"] = median(idle);
    m["serve.gen_lag_ms"] = median(lag);
  }

 private:
  Args args_;
  bool churn_;
  std::vector<Kernel> kernels_;
  std::vector<Cell> cells_;
  std::vector<SweepPoint> points_;
  std::vector<std::string> expected_;
  std::vector<double> speedups_;
  PointClock clock_;
  unsigned threads_ = 1;
  size_t planted_ = 0;
  uint64_t planted_failed_ = 0;
  uint64_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_grid_workload(const Args& args, bool churn) {
  return std::make_unique<GridWorkload>(args, churn);
}

int record_grid_digests(const Args& args) {
  std::vector<std::string> names = churn_kernels();
  names.insert(names.end(), steady_kernels().begin(), steady_kernels().end());
  const std::vector<Kernel> kernels = prepare_kernels(names);
  const Grid g = build_grid(kernels);
  dim::accel::SweepOptions opts;
  opts.threads = args.threads;
  const std::vector<SweepResult> results = dim::accel::SweepEngine(opts).run(g.points);
  std::ofstream out(args.record_digests);
  for (size_t i = 0; i < results.size(); ++i) {
    const Kernel& k = kernels[i / kCellsPerKernel];
    if (!results[i].transparent || results[i].accelerated.final_state.output != k.expected_output) {
      std::fprintf(stderr, "grid point %s is not transparent; digests not written\n",
                   g.points[i].label.c_str());
      return 1;
    }
    out << g.points[i].label << ' ' << stats_digest(results[i].accelerated) << '\n';
  }
  std::printf("wrote %zu grid digests to %s\n", results.size(), args.record_digests.c_str());
  return out ? 0 : 1;
}

void table2_anchor(const Args& args, RunRecord& rec, PaperGuard& guard) {
  std::vector<std::string> names = churn_kernels();
  names.insert(names.end(), steady_kernels().begin(), steady_kernels().end());
  const std::vector<Kernel> kernels = prepare_kernels(names);
  const std::map<std::string, std::string> digests = load_digests();
  std::vector<SweepPoint> points;
  std::vector<Cell> cells;
  for (const Kernel& k : kernels) {
    const Cell c{k.name, 1, true, 64};
    SweepPoint p;
    p.label = c.label();
    p.program = &k.program;
    p.config = c.config();
    p.baseline = &k.baseline;
    points.push_back(std::move(p));
    cells.push_back(c);
  }
  dim::accel::SweepOptions opts;
  opts.threads = args.threads;
  const std::vector<SweepResult> results = dim::accel::SweepEngine(opts).run(points);
  for (size_t i = 0; i < results.size(); ++i) {
    auto it = digests.find(points[i].label);
    const bool correct =
        it != digests.end() && point_correct(results[i], kernels[i], it->second);
    if (!correct) std::fprintf(stderr, "anchor point %s failed\n", points[i].label.c_str());
    rec.count(correct);
    guard.add(results[i].speedup(), cells[i].paper());
  }
}

}  // namespace pb
