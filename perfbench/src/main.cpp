// perfbench: host-speed benchmark of dimsim (see ../README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--fuzz-seeds START:COUNT] [--traffic-seed N] [--plant-fault]
//             [--work-dir DIR]
//   perfbench --record-digests PATH
//
// --setup-probe FD is internal: the harness passes it to the copies of
// itself that time set-up (time_fresh_setup).
//
// Prints a human summary, then as its last line one JSON object with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "workload.hpp"

namespace {

using namespace pb;

// setup_s is the median over at least this many fresh processes.
constexpr size_t kSetupReps = 7;
// Programs per fuzz-matrix pass when --fuzz-seeds is not given.
constexpr int kFuzzSeedsPerPass = 250;

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"sim_mips", "Minstr/s"},     {"point_p50_ms", "ms"},
    {"point_tail_ms", "ms"},   {"speedup_geomean", "x"},     {"paper_err_pct", "%"},
    {"checks_per_s", "1/s"},   {"req_p50_ms", "ms"},         {"req_tail_ms", "ms"},
    {"goodput_rps", "1/s"},    {"peak_rss_mb", "MiB"},
};

const MetricDef kPerLayer[] = {
    {"asm.assemble_us", "us"},
    {"fuzz.generate_us", "us"},
    {"fuzz.check_ms", "ms"},
    {"accel.ctor_us", "us"},
    {"mem.content_hash_us", "us"},
    {"bt.observe_ns_per_instr", "ns"},
    {"bt.rebuild_ns_per_op", "ns"},
    {"bt.lookup_ns", "ns"},
    {"bt.inserts_per_kinstr", "count"},
    {"bt.flushes_per_kinstr", "count"},
    {"bt.extensions_per_kinstr", "count"},
    {"bt.config_survival", "ratio"},
    {"bt.rcache_hit_ratio", "ratio"},
    {"rra.exec_ns_per_activation", "ns"},
    {"rra.exec_ns_per_op", "ns"},
    {"rra.ops_per_activation", "count"},
    {"rra.coverage", "ratio"},
    {"rra.elastic_ns_per_activation", "ns"},
    {"rra.simt_ns_per_activation", "ns"},
    {"rra.admissible_us", "us"},
    {"sim.fast_ns_per_instr", "ns"},
    {"sim.slow_ns_per_instr", "ns"},
    {"accel.run_ns_per_instr", "ns"},
    {"accel.sweep_idle_pct", "%"},
    {"snap.encode_us", "us"},
    {"snap.restore_us", "us"},
    {"snap.bytes", "B"},
    {"snap.store_hit_ratio", "ratio"},
    {"serve.cells_per_batch", "count"},
    {"serve.gen_lag_ms", "ms"},
    {"serve.request_ms", "ms"},
    {"serve.pool_request_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
    {"self_pct.setup", "%"},
    {"self_pct.workload", "%"},
    {"self_pct.accel", "%"},
    {"self_pct.fuzz", "%"},
    {"self_pct.serve", "%"},
    {"self_pct.asm", "%"},
    {"self_pct.mem", "%"},
    {"self_pct.bt", "%"},
    {"self_pct.rra", "%"},
    {"self_pct.sim", "%"},
    {"self_pct.snap", "%"},
    {"self_pct.run", "%"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload grid-churn|grid-steady|fuzz-matrix|serve-mixed|"
               "serve-pool --seed N --seconds S --trace 0|1 [--fuzz-seeds START:COUNT] "
               "[--traffic-seed N] [--plant-fault] [--work-dir DIR]\n"
               "       perfbench --record-digests PATH\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_fuzz = false;
  bool have_traffic = false;
  a.threads = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") a.workload = value();
    else if (arg == "--seed") a.seed = std::stoull(value());
    else if (arg == "--seconds") a.seconds = std::stod(value());
    else if (arg == "--trace") a.trace = value() == "1";
    else if (arg == "--traffic-seed") { a.traffic_seed = std::stoull(value()); have_traffic = true; }
    else if (arg == "--plant-fault") a.plant_fault = true;
    else if (arg == "--work-dir") a.work_dir = value();
    else if (arg == "--setup-probe") a.setup_probe_fd = std::stoi(value());
    else if (arg == "--record-digests") a.record_digests = value();
    else if (arg == "--fuzz-seeds") {
      const std::string v = value();
      const size_t colon = v.find(':');
      if (colon == std::string::npos) usage("--fuzz-seeds takes START:COUNT");
      a.fuzz_seed_start = std::stoull(v.substr(0, colon));
      a.fuzz_seeds = std::stoi(v.substr(colon + 1));
      have_fuzz = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  if (!have_fuzz) {
    a.fuzz_seed_start = a.seed * 1000000;
    a.fuzz_seeds = kFuzzSeedsPerPass;
  }
  if (a.fuzz_seeds <= 0) usage("--fuzz-seeds COUNT must be positive");
  if (!have_traffic) a.traffic_seed = a.seed;
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "grid-churn") return make_grid_workload(a, true);
  if (a.workload == "grid-steady") return make_grid_workload(a, false);
  if (a.workload == "fuzz-matrix") return make_fuzz_workload(a);
  if (a.workload == "serve-mixed") return make_serve_workload(a, false);
  if (a.workload == "serve-pool") return make_serve_workload(a, true);
  usage(("unknown workload '" + a.workload + "'").c_str());
}

void print_result(bool correct, const RunRecord& rec, const MetricDef* defs, size_t n,
                  const std::map<std::string, double>& values) {
  for (size_t i = 0; i < n; ++i) {
    std::printf("  %-32s %14.6g %s\n", defs[i].name, values.at(defs[i].name), defs[i].unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(rec.failed));
  for (size_t i = 0; i < n; ++i) {
    double v = values.at(defs[i].name);
    if (!std::isfinite(v)) v = 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void report_counts(const Args& args, const RunRecord& rec) {
  std::printf("%s seed %llu: %zu passes, %zu operations, %llu attempted, %llu failed\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              rec.passes.size(), rec.ops.size(), static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(rec.failed));
}

// The tail percentile for passes of at least `n` operations: the highest
// whole percentile with ten or more of them beyond its nearest rank, or the
// median when no percentile has.
double tail_pct(size_t n) {
  for (int p = 99; p > 50; --p) {
    if (static_cast<double>(n) - std::ceil(p / 100.0 * static_cast<double>(n)) >= 10) return p;
  }
  return 50;
}

std::vector<double> service_ms(const RunRecord& rec) {
  std::vector<double> v;
  for (const OpSample& op : rec.ops) v.push_back(op.service_ms);
  return v;
}

// One set-up from process start: starts the harness again with the same
// arguments plus --setup-probe, and times it from the spawn to the byte the
// child writes where its timed phase would begin. Waits for the child.
//
// The child starts pinned to the first CPU this process may use. Unpinned,
// each fresh process lands on whichever CPU was idle, and set-up time of
// the same fixture varied by 60% between back-to-back starts; pinned, the
// median of 12 starts differed by under 7% between the host's four CPUs.
double time_fresh_setup(int argc, char** argv) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("cannot make a pipe for the set-up probe");
  std::vector<std::string> words(argv, argv + argc);
  words.push_back("--setup-probe");
  words.push_back(std::to_string(fds[1]));
  std::vector<char*> child_argv;
  for (std::string& w : words) child_argv.push_back(w.data());
  child_argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addclose(&actions, fds[0]);

  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof allowed, &allowed);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &one);
      break;
    }
  }
  sched_setaffinity(0, sizeof one, &one);  // inherited by the child

  const Clock::time_point t0 = Clock::now();
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, child_argv.data(), environ);
  sched_setaffinity(0, sizeof allowed, &allowed);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  char ready = 0;
  ssize_t got = 0;
  if (rc == 0) {
    do {
      got = ::read(fds[0], &ready, 1);
    } while (got < 0 && errno == EINTR);
  }
  const Clock::time_point t1 = Clock::now();
  ::close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot start the set-up probe");
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("the set-up probe failed");
  }
  return seconds_between(t0, t1);
}

// --setup-probe FD: builds the fixture, reports on FD that the timed phase
// would begin now, then tears down and leaves.
int setup_probe(const Args& args, Workload& wl) {
  wl.setup();
  const char ready = 1;
  const bool told = ::write(args.setup_probe_fd, &ready, 1) == 1;
  ::close(args.setup_probe_fd);
  wl.teardown();
  if (wl.hung()) std::_Exit(told ? 0 : 1);
  return told ? 0 : 1;
}

// --trace 0: the timed phase, the guards, every end-to-end metric.
void untraced_run(const Args& args, Workload& wl, int argc, char** argv) {
  // The host's speed drifts over a run, so set-up is sampled across it like
  // the per-pass figures: one fresh-process set-up after each pass, topped
  // up to kSetupReps at the end.
  std::vector<double> setup_s;
  const auto probe = [&] { setup_s.push_back(time_fresh_setup(argc, argv)); };
  RunRecord rec;
  wl.run(args.seconds, rec, probe);
  while (setup_s.size() < kSetupReps) probe();
  std::printf("set-up from process start, %zu fresh processes: %.4f to %.4f s\n",
              setup_s.size(), *std::min_element(setup_s.begin(), setup_s.end()),
              *std::max_element(setup_s.begin(), setup_s.end()));
  PaperGuard guard;
  wl.finish(rec, guard);
  report_counts(args, rec);

  // Every figure is taken per pass, then the median over passes, so a few
  // seconds of host contention spoil one pass and not the run's figure.
  const auto pass_end = [&](size_t k) {
    return k + 1 < rec.passes.size() ? rec.passes[k + 1].first_op : rec.ops.size();
  };
  size_t fewest = rec.ops.size();
  for (size_t k = 0; k < rec.passes.size(); ++k) {
    fewest = std::min(fewest, pass_end(k) - rec.passes[k].first_op);
  }
  const double tail = tail_pct(fewest);
  std::vector<double> p50, ptail, r50, rtail, mips, checks, good;
  for (size_t k = 0; k < rec.passes.size(); ++k) {
    const PassSample& p = rec.passes[k];
    std::vector<double> service;
    std::vector<double> latency;
    for (size_t i = p.first_op; i < pass_end(k); ++i) {
      service.push_back(rec.ops[i].service_ms);
      latency.push_back(rec.ops[i].latency_ms);
    }
    p50.push_back(percentile(service, 50));
    ptail.push_back(percentile(service, tail));
    r50.push_back(percentile(latency, 50));
    rtail.push_back(percentile(latency, tail));
    mips.push_back(p.instructions / p.wall_s / 1e6);
    checks.push_back(p.checks / p.wall_s);
    good.push_back(p.good / p.wall_s);
  }
  std::printf("tails: p%g per pass, median over %zu passes of >= %zu operations\n", tail,
              rec.passes.size(), fewest);
  std::map<std::string, double> m;
  m["setup_s"] = median(setup_s);
  m["sim_mips"] = median(mips);
  m["point_p50_ms"] = median(p50);
  m["point_tail_ms"] = median(ptail);
  m["speedup_geomean"] = guard.geomean();
  m["paper_err_pct"] = guard.err_pct();
  m["checks_per_s"] = median(checks);
  m["req_p50_ms"] = median(r50);
  m["req_tail_ms"] = median(rtail);
  m["goodput_rps"] = median(good);
  m["peak_rss_mb"] = peak_rss_mb();
  print_result(rec.failed == 0, rec, kEndToEnd, std::size(kEndToEnd), m);
}

// --trace 1: half the time untraced, then the fixture again and the other
// half traced, then the per-layer probes, all under one root span. Returns
// true when the serve probe left a host that cannot be shut down.
bool traced_run(const Args& args, Workload& wl) {
  RunRecord untraced;
  wl.run(args.seconds / 2, untraced, {});

  Tracer& tracer = Tracer::get();
  tracer.enable(true);
  RunRecord rec;
  std::map<std::string, double> m;
  for (const MetricDef& d : kPerLayer) m[d.name] = 0;
  bool hung = false;
  {
    Span root("run.traced");
    wl.teardown();
    {
      Span s("setup.fixture");
      wl.setup();
    }
    {
      Span s("workload.run");
      wl.run(args.seconds / 2, rec, {});
    }
    PaperGuard guard;
    {
      Span s("setup.finish");
      wl.finish(rec, guard);
    }
    {
      Span s("setup.probes");
      probe_layers(args, wl.layer_inputs(), m);
    }
    wl.layer_metrics(rec, m);
    if (args.workload.rfind("serve-", 0) != 0) hung = probe_serve(args, rec, m);
  }
  rec.attempted += untraced.attempted;
  rec.failed += untraced.failed;
  report_counts(args, rec);

  const double base = percentile(service_ms(untraced), 50);
  m["trace.overhead_pct"] = base > 0 ? 100 * (percentile(service_ms(rec), 50) - base) / base : 0;
  m["trace.spans"] = static_cast<double>(tracer.size());
  for (const MetricDef& d : kPerLayer) {
    const std::string name = d.name;
    if (name.rfind("self_pct.", 0) == 0) m[name] = tracer.self_pct(name.substr(9));
  }
  const std::string trace_dir = args.work_dir + "/../traces";
  std::filesystem::create_directories(trace_dir);
  const std::string path =
      trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed) + ".jsonl";
  if (tracer.write_jsonl(path)) std::printf("spans written to %s\n", path.c_str());
  print_result(rec.failed == 0, rec, kPerLayer, std::size(kPerLayer), m);
  return hung;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (!args.record_digests.empty()) return record_grid_digests(args);
    if (args.workload.empty()) usage("--workload is required");
    std::filesystem::create_directories(args.work_dir);
    std::unique_ptr<Workload> wl = make_workload(args);
    if (args.setup_probe_fd >= 0) return setup_probe(args, *wl);
    wl->setup();

    bool hung = false;
    if (args.trace) {
      hung = traced_run(args, *wl);
    } else {
      untraced_run(args, *wl, argc, argv);
    }
    if (hung || wl->hung()) {
      // The serve host cannot be shut down; leave without destroying it.
      std::fflush(stdout);
      std::_Exit(0);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
