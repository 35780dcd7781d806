// fuzz-matrix: a differential fuzz campaign over the full 72-point matrix.
//
// Each operation is fuzz::generate_program + render + fuzz::check_program
// across the whole matrix, on a cold system per point, fanned over
// --threads workers. Any divergence or inconclusive verdict is a failed
// operation. With --fuzz-seeds START:COUNT, pass k checks the COUNT seeds
// from START + k * COUNT: every pass draws fresh programs, because the
// tail of one 250-program block depends on which programs it holds (the
// p96 of 8 disjoint blocks spread by 0.10 of its median), and a median over
// a run's blocks follows the generator rather than one draw.
#include <atomic>
#include <cstdio>
#include <thread>

#include "asm/assembler.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "sim/machine.hpp"
#include "workload.hpp"

namespace pb {
namespace {

constexpr double kFuzzLimitMs = 30000;  // a verdict within 30 s of the pass start

dim::fuzz::GenOptions gen_options() {
  // Bait for every matrix axis: hammocks for predication, serial chains
  // for the elastic FIFOs, loop-parity branches for SIMT lane divergence.
  dim::fuzz::GenOptions g;
  g.hammocks = true;
  g.long_chains = true;
  g.lane_divergence = true;
  return g;
}

class FuzzWorkload : public Workload {
 public:
  explicit FuzzWorkload(const Args& args) : args_(args) {}

  void setup() override {
    matrix_ = dim::fuzz::full_matrix();
    next_seed_ = args_.fuzz_seed_start;
  }

  void run(double seconds, RunRecord& rec, const std::function<void()>& after_pass) override {
    const size_t n = static_cast<size_t>(args_.fuzz_seeds);
    const double points = static_cast<double>(matrix_.size());
    const Clock::time_point begin = Clock::now();
    do {
      const uint64_t first_seed = next_seed_;
      next_seed_ += n;
      const int64_t pass_span = Tracer::get().open("workload.pass", Span::current());
      std::vector<OpSample> ops(n);
      std::vector<char> correct(n, 0);
      std::vector<Clock::time_point> started(n);
      std::atomic<size_t> next{0};
      const Clock::time_point t0 = Clock::now();
      auto worker = [&]() {
        for (;;) {
          const size_t i = next.fetch_add(1);
          if (i >= n) return;
          const uint64_t seed = first_seed + i;
          dim::fuzz::OracleOptions oracle;
          if (args_.plant_fault && i == 0) oracle.fault = dim::bt::FaultInjection::kAddiuImmOffByOne;
          started[i] = Clock::now();
          const std::string src = dim::fuzz::generate_program(seed, gen_).render();
          const dim::fuzz::OracleResult r = dim::fuzz::check_program(src, matrix_, oracle);
          const Clock::time_point done = Clock::now();
          Tracer::get().record("fuzz.check", to_ns(started[i]), to_ns(done), pass_span,
                               static_cast<int64_t>(seed));
          correct[i] = !r.inconclusive && !r.divergence.found;
          if (!correct[i] && !(args_.plant_fault && i == 0)) {
            std::fprintf(stderr, "fuzz seed %llu: %s %s\n", static_cast<unsigned long long>(seed),
                         r.inconclusive ? "inconclusive" : "divergence",
                         r.inconclusive ? r.inconclusive_reason.c_str()
                                        : r.divergence.detail.c_str());
          }
          ops[i].service_ms = ms_between(started[i], done);
          ops[i].latency_ms = ms_between(t0, done);
        }
      };
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < args_.threads; ++t) pool.emplace_back(worker);
      for (std::thread& t : pool) t.join();
      const Clock::time_point t1 = Clock::now();
      Tracer::get().close(pass_span);

      PassSample pass;
      pass.first_op = rec.ops.size();
      pass.wall_s = seconds_between(t0, t1);
      Clock::time_point first_start = t1;
      for (size_t i = 0; i < n; ++i) {
        ops[i].ok = correct[i] && ops[i].latency_ms <= kFuzzLimitMs;
        rec.ops.push_back(ops[i]);
        rec.count(correct[i]);
        if (args_.plant_fault && i == 0) planted_failed_ += correct[i] ? 0 : 1;
        first_start = std::min(first_start, started[i]);
        pass.ops += 1;
        pass.checks += points;
        // Every oracle run of a transparent program retires the baseline's
        // instruction count; counted here, outside the pass's timing.
        const std::string src = dim::fuzz::generate_program(first_seed + i, gen_).render();
        const dim::sim::RunResult base = dim::sim::run_baseline(dim::asmblr::assemble(src));
        pass.instructions += (points + 1) * static_cast<double>(base.instructions);
        pass.good += ops[i].ok ? 1 : 0;
        pass.busy_s += ops[i].service_ms / 1000.0;
      }
      pass.gen_lag_ms = ms_between(t0, first_start);
      rec.passes.push_back(pass);
      ++passes_;
      if (after_pass) after_pass();
    } while (seconds_between(begin, Clock::now()) < seconds);
  }

  void finish(RunRecord& rec, PaperGuard& guard) override {
    table2_anchor(args_, rec, guard);
    if (args_.plant_fault) {
      std::printf("self-check: planted kAddiuImmOffByOne on the first program of each pass: "
                  "failed in %llu of %llu passes (%s)\n",
                  static_cast<unsigned long long>(planted_failed_),
                  static_cast<unsigned long long>(passes_),
                  planted_failed_ == passes_ ? "detected" : "NOT DETECTED");
    }
  }

  std::vector<LayerInput> layer_inputs() override {
    std::vector<LayerInput> in;
    for (uint64_t k = 0; k < 8 && k < static_cast<uint64_t>(args_.fuzz_seeds); ++k) {
      const uint64_t seed = args_.fuzz_seed_start + k;
      LayerInput li;
      li.name = "fuzz-" + std::to_string(seed);
      li.source = dim::fuzz::generate_program(seed, gen_).render();
      li.program = dim::asmblr::assemble(li.source);
      in.push_back(std::move(li));
    }
    return in;
  }

  void layer_metrics(const RunRecord& rec, std::map<std::string, double>& m) override {
    std::vector<double> idle;
    std::vector<double> lag;
    for (const PassSample& p : rec.passes) {
      const double capacity = static_cast<double>(args_.threads) * p.wall_s;
      idle.push_back(100.0 * (capacity - p.busy_s) / capacity);
      lag.push_back(p.gen_lag_ms);
    }
    m["accel.sweep_idle_pct"] = median(idle);
    m["serve.gen_lag_ms"] = median(lag);
  }

 private:
  Args args_;
  dim::fuzz::GenOptions gen_ = gen_options();
  std::vector<dim::fuzz::MatrixPoint> matrix_;
  uint64_t next_seed_ = 0;  // the first seed of the next pass
  uint64_t planted_failed_ = 0;
  uint64_t passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_workload(const Args& args) {
  return std::make_unique<FuzzWorkload>(args);
}

}  // namespace pb
