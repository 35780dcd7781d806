// serve-mixed / serve-pool: dimsim-serve driven open-loop at a fixed rate.
//
// The traffic is drawn from the traffic seed: sweeps (1-4 Table 2 cells),
// plain runs, budgeted runs and (serve-mixed only) warm runs, over the
// Table 2 kernels. A fixed share of requests repeats an earlier request's
// cells, which the result store answers; the rest are new cells. Requests
// are issued on a fixed schedule over up to 4 sessions and timed from
// their due time. Every response must be ok, transparent where reported,
// arrive before its deadline, and match byte for byte the response a
// fresh single-session serve::Server gives for the same request stream.
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <signal.h>
#include <sstream>
#include <thread>

#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "serve/batcher.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "table2.hpp"
#include "work/workload.hpp"
#include "workload.hpp"

namespace pb {
namespace {

// Offered load in requests/s (README.md, "Serve rate"): about a quarter of
// the pool's measured capacity and 15% of the in-process server's. At half
// capacity both amplified run-to-run host noise into a 32-37% spread of the
// median latency over 10 seeds.
constexpr double kRate = 25;
// A response later than this after its due time misses the latency limit
// (goodput); one later than the deadline is a failed operation.
constexpr double kLimitMs = 2000;
constexpr double kDeadlineMs = 10000;
constexpr double kTeardownMs = 5000;
// Length of the serve streams in the per-layer probe of other workloads.
constexpr double kServeProbeSeconds = 2;
// Share of requests that repeat an earlier request's cells.
constexpr uint64_t kRepeatPct = 30;
// Budgeted runs stop at this many instructions and checkpoint every
// kCheckpointInterval (the pool writes migration checkpoints there).
constexpr uint64_t kBudget = 250000;
constexpr uint64_t kCheckpointInterval = 65536;

// The Table 2 kernels whose cells cost 4-16 ms of host time: with a
// narrow spread of per-request work, latency reflects the service and not
// which heavy kernel a seed happened to queue behind.
const std::vector<std::string>& serve_kernels() {
  static const std::vector<std::string> k = {"crc32", "rijndael_e", "rijndael_d", "gsm_d",
                                             "gsm_e", "sha",        "jpeg_d",     "jpeg_e"};
  return k;
}

struct Traffic {
  std::vector<std::string> lines;  // id "r<i>"
  std::vector<size_t> cells;       // grid cells each request simulates
  std::vector<int> kind;
};

enum { kSweep = 0, kRun = 1, kBudgeted = 2, kWarm = 3 };

// The schedule -- which kernel, kind, shape and speculation each position
// gets, and which positions repeat an earlier request -- is one fixed,
// well-mixed sequence (drawn from a constant): every kernel equally often,
// kinds in fixed shares (4 sweeps of 2 cells : 3 runs : 1.5 budgeted : 1.5
// warm), ~30% repeats. The seed draws every slot count (from [8, 512], so a
// new request is a new cell) and which earlier sweep or run each repeat
// reads from the store. Every seed thus offers the same work.
Traffic make_traffic(uint64_t seed, size_t n, bool allow_warm) {
  static const int kPattern[20] = {kSweep, kRun,  kSweep, kBudgeted, kRun,  kSweep, kWarm,
                                   kRun,   kSweep, kBudgeted, kSweep, kRun, kSweep, kWarm,
                                   kRun,   kSweep, kBudgeted, kRun, kSweep, kWarm};
  const std::vector<std::string>& kernels = serve_kernels();
  const char* shapes[3] = {"config1", "config2", "config3"};
  Rng schedule(0x5eedu);
  Rng rng(seed);
  auto slots = [&rng] { return std::to_string(8 + rng.below(505)); };

  std::vector<std::pair<std::string, int>> deck;  // (kernel, kind)
  for (size_t i = 0; i < n; ++i) {
    int kind = kPattern[i % 20];
    if (kind == kWarm && !allow_warm) kind = kBudgeted;
    deck.push_back({kernels[i % kernels.size()], kind});
  }
  for (size_t i = deck.size(); i > 1; --i) std::swap(deck[i - 1], deck[schedule.below(i)]);

  Traffic t;
  std::vector<std::string> bodies;
  std::vector<size_t> memoizable;  // earlier sweeps and plain runs
  size_t next_new = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool repeat = schedule.below(100) < kRepeatPct;
    const size_t s0 = schedule.below(3);
    const bool spec = schedule.below(2) == 1;
    const bool two_shapes = schedule.below(2) == 1;
    if (repeat && !memoizable.empty()) {
      const size_t j = memoizable[rng.below(memoizable.size())];
      bodies.push_back(bodies[j]);
      t.cells.push_back(t.cells[j]);
      t.kind.push_back(t.kind[j]);
      continue;
    }
    const auto& [k, kind] = deck[next_new++];
    const std::string slots0 = slots();
    const std::string slots1 = slots();
    std::string body;
    if (kind == kSweep) {
      // Two cells: two shapes at one slot count, or one shape at two.
      body = "\"kind\": \"sweep\", \"workload\": \"" + k + "\", \"shapes\": [\"" +
             shapes[s0] + "\"" +
             (two_shapes ? std::string(", \"") + shapes[(s0 + 1) % 3] + "\"" : std::string()) +
             "], \"slots_axis\": [" + slots0 + (two_shapes ? std::string() : ", " + slots1) +
             "], \"spec_axis\": [" + (spec ? "true" : "false") + "]";
    } else {
      body = "\"kind\": \"run\", \"workload\": \"" + k + "\", \"shape\": \"" + shapes[s0] +
             "\", \"slots\": " + slots0 + ", \"speculation\": " + (spec ? "true" : "false");
      if (kind == kBudgeted) body += ", \"budget\": " + std::to_string(kBudget);
      if (kind == kWarm) body += ", \"warm\": true";
    }
    if (kind == kSweep || kind == kRun) memoizable.push_back(i);
    bodies.push_back(body);
    t.cells.push_back(kind == kSweep ? 2 : 1);
    t.kind.push_back(kind);
  }
  for (size_t i = 0; i < n; ++i) {
    t.lines.push_back("{\"id\": \"r" + std::to_string(i) + "\", " + bodies[i] + "}");
  }
  return t;
}

// "r<i>" id of a response line; -1 when absent.
long response_index(const std::string& line) {
  const size_t at = line.find("\"id\": \"r");
  if (at == std::string::npos) return -1;
  return std::strtol(line.c_str() + at + 8, nullptr, 10);
}

// Collects responses of one stream from every session's sink.
class Inbox {
 public:
  explicit Inbox(size_t n) : lines_(n), at_(n), arrived_(n, 0) {}
  void deliver(const std::string& line) {
    const Clock::time_point now = Clock::now();
    const long i = response_index(line);
    std::lock_guard<std::mutex> lock(mutex_);
    if (i < 0 || static_cast<size_t>(i) >= lines_.size() || arrived_[i]) return;
    lines_[i] = line;
    at_[i] = now;
    arrived_[i] = 1;
    ++count_;
    cv_.notify_all();
  }
  // Waits until every response arrived or `until`; returns the count.
  size_t wait(Clock::time_point until) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_until(lock, until, [&] { return count_ == lines_.size(); });
    return count_;
  }
  // Snapshot under the lock (late deliveries after it are ignored).
  void take(std::vector<std::string>& lines, std::vector<Clock::time_point>& at,
            std::vector<char>& arrived) {
    std::lock_guard<std::mutex> lock(mutex_);
    lines = lines_;
    at = at_;
    arrived = arrived_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::string> lines_;
  std::vector<Clock::time_point> at_;
  std::vector<char> arrived_;
  size_t count_ = 0;
};

// The reference bytes: the same lines, in the same order, on one session of
// a fresh in-memory single-process server.
std::vector<std::string> reference_responses(const Traffic& t, unsigned threads) {
  dim::serve::ServerOptions opt;
  opt.worker_threads = threads;
  opt.checkpoint_interval = kCheckpointInterval;
  opt.queue_capacity = t.lines.size() + 1;  // the whole stream is queued at once
  dim::serve::Server server(opt);
  Inbox inbox(t.lines.size());
  auto session = server.open_session([&](const std::string& l) { inbox.deliver(l); });
  for (const std::string& line : t.lines) session->submit(line);
  session->drain();
  server.shutdown();
  std::vector<std::string> lines;
  std::vector<Clock::time_point> at;
  std::vector<char> arrived;
  inbox.take(lines, at, arrived);
  return lines;
}

// A private directory for the store, warm pool and migration checkpoints,
// removed when the fixture goes.
class TempDir {
 public:
  explicit TempDir(const std::string& parent) {
    std::filesystem::create_directories(parent);
    std::string tmpl = parent + "/serve-XXXXXX";
    if (mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp in " + parent);
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

class ServeWorkload : public Workload {
 public:
  ServeWorkload(const Args& args, bool pool) : args_(args), pool_(pool) {}
  ~ServeWorkload() override { teardown(); }

  // Set-up is a cold start to the first answer: construct the host (the
  // pool forks its workers) in a fresh private directory, then one warm-up
  // run request until its response arrives.
  void setup() override {
    dir_ = std::make_unique<TempDir>(args_.work_dir);
    if (pool_) {
      dim::serve::SupervisorOptions opt;
      opt.workers = 2;
      opt.store_dir = dir_->path();
      opt.checkpoint_interval = kCheckpointInterval;
      opt.engine_threads = std::max(1u, args_.threads / 2);
      supervisor_ = std::make_unique<dim::serve::Supervisor>(opt);
    } else {
      dim::serve::ServerOptions opt;
      opt.worker_threads = args_.threads;
      opt.store_dir = dir_->path();
      opt.checkpoint_interval = kCheckpointInterval;
      server_ = std::make_unique<dim::serve::Server>(opt);
    }
    // A request admitted while the pool's scheduler is still starting can
    // lose its wakeup (the known lost-wakeup hang, ROADMAP.md); give the
    // scheduler time to reach its wait first.
    if (pool_) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto inbox = std::make_shared<Inbox>(1);
    auto session = host().open_session([inbox](const std::string& l) { inbox->deliver(l); });
    session->submit("{\"id\": \"r0\", \"kind\": \"run\", \"workload\": \"crc32\", "
                    "\"shape\": \"config1\", \"slots\": 16}");
    const auto limit = std::chrono::milliseconds(static_cast<int64_t>(kTeardownMs));
    if (inbox->wait(Clock::now() + limit) < 1) {
      ++setup_failures_;
      unstick(session, *inbox, 1);
    }
    if (!hung_) session->drain();
  }

  // One pass: the whole stream. `after_pass` is not called (see main.cpp).
  void run(double seconds, RunRecord& rec, const std::function<void()>&) override {
    const size_t n = static_cast<size_t>(std::ceil(kRate * seconds));
    const Traffic t = make_traffic(args_.traffic_seed + streams_, n, !pool_);
    ++streams_;
    // Shared with the sinks: a hung host may still deliver after run().
    auto inbox_ptr = std::make_shared<Inbox>(n);
    Inbox& inbox = *inbox_ptr;
    std::vector<std::shared_ptr<dim::serve::SessionHost::Session>> sessions;
    for (unsigned s = 0; s < std::max(1u, args_.threads); ++s) {
      sessions.push_back(
          host().open_session([inbox_ptr](const std::string& l) { inbox_ptr->deliver(l); }));
    }

    const int64_t pass_span = Tracer::get().open("workload.pass", Span::current());
    std::vector<Clock::time_point> due(n);
    std::vector<Clock::time_point> sent(n);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      due[i] = t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(i) / kRate));
      std::this_thread::sleep_until(due[i]);
      sent[i] = Clock::now();
      sessions[i % sessions.size()]->submit(t.lines[i]);
    }
    const Clock::time_point last_deadline =
        due.back() + std::chrono::milliseconds(static_cast<int64_t>(kDeadlineMs));
    if (inbox.wait(last_deadline) < n) unstick(sessions.front(), inbox, n);
    Tracer::get().close(pass_span);

    std::vector<std::string> lines;
    std::vector<Clock::time_point> at;
    std::vector<char> arrived;
    inbox.take(lines, at, arrived);
    collect_counters(t);
    if (!hung_) {
      for (auto& s : sessions) s->drain();
    }

    // Untimed: the reference bytes, then the per-request verdicts.
    std::vector<std::string> expected = reference_responses(t, args_.threads);
    if (args_.plant_fault) plant(t, lines, expected);

    PassSample pass;
    pass.first_op = rec.ops.size();
    Clock::time_point last = t0;
    int reported = 0;
    for (size_t i = 0; i < n; ++i) {
      OpSample op;
      const bool in_time = arrived[i] && ms_between(due[i], at[i]) <= kDeadlineMs;
      const bool correct = in_time && lines[i] == expected[i] &&
                           lines[i].find("\"ok\": true") != std::string::npos &&
                           lines[i].find("\"transparent\": false") == std::string::npos;
      if (!correct && static_cast<long>(i) != planted_ && ++reported <= 5) {
        std::fprintf(stderr, "request r%zu failed: %s\n  sent     %s\n  got      %.300s\n"
                     "  expected %.300s\n", i,
                     !arrived[i] ? "no response" : !in_time ? "past its deadline"
                                                            : "response mismatch or error",
                     t.lines[i].c_str(), lines[i].c_str(), expected[i].c_str());
      }
      if (static_cast<long>(i) == planted_) planted_failed_ = !correct;
      if (arrived[i]) {
        op.service_ms = ms_between(sent[i], at[i]);
        op.latency_ms = ms_between(due[i], at[i]);
        last = std::max(last, at[i]);
        Tracer::get().record("serve.request", to_ns(sent[i]), to_ns(at[i]), pass_span,
                             static_cast<int64_t>(i));
      } else {
        op.service_ms = op.latency_ms = kDeadlineMs;
      }
      op.ok = correct && op.latency_ms <= kLimitMs;
      rec.ops.push_back(op);
      rec.count(correct);
      pass.ops += 1;
      pass.checks += arrived[i] ? 1 : 0;
      pass.good += op.ok ? 1 : 0;
      pass.busy_s += op.service_ms / 1000.0;
      if (correct) pass.instructions += delivered_instructions(lines[i]);
      lags_.push_back(ms_between(due[i], sent[i]));
    }
    pass.wall_s = seconds_between(t0, std::max(last, due.back()));
    pass.gen_lag_ms = median(std::vector<double>(lags_.end() - static_cast<long>(n), lags_.end()));
    rec.passes.push_back(pass);
    teardown();
  }

  void finish(RunRecord& rec, PaperGuard& guard) override {
    rec.attempted += teardown_hangs_ + setup_failures_;
    rec.failed += teardown_hangs_ + setup_failures_;
    if (teardown_hangs_ + setup_failures_ > 0) {
      std::printf("serve: %llu teardowns needed their workers killed, %llu warm-up requests "
                  "missed their deadline\n",
                  static_cast<unsigned long long>(teardown_hangs_),
                  static_cast<unsigned long long>(setup_failures_));
    }
    table2_anchor(args_, rec, guard);
    if (args_.plant_fault) {
      std::printf("self-check: planted kAddiuImmOffByOne on request r%ld: %s\n", planted_,
                  planted_ < 0 ? "NO PLAIN RUN REQUEST TO PLANT ON"
                  : planted_failed_ ? "reported failed (detected)"
                                    : "NOT DETECTED");
    }
  }

  std::vector<LayerInput> layer_inputs() override {
    std::vector<LayerInput> in;
    for (const std::string& k : serve_kernels()) {
      const Kernel kern = prepare_kernel(k);
      in.push_back({kern.name, kern.source, kern.program});
    }
    return in;
  }

  void layer_metrics(const RunRecord& rec, std::map<std::string, double>& m) override {
    std::vector<double> service;
    for (const OpSample& op : rec.ops) service.push_back(op.service_ms);
    m[pool_ ? "serve.pool_request_ms" : "serve.request_ms"] = median(service);
    if (!pool_) {
      m["snap.store_hit_ratio"] = store_hit_ratio_;
      m["serve.cells_per_batch"] = cells_per_batch_;
    }
    m["serve.gen_lag_ms"] = median(lags_);
  }

  bool hung() const override { return hung_; }

 private:
  // A request still unanswered at its deadline has already failed. One
  // more queued request wakes a scheduler that missed a notification, so
  // the host can drain and shut down; if nothing moves, the run is hung.
  void unstick(const std::shared_ptr<dim::serve::SessionHost::Session>& session, Inbox& inbox,
               size_t n) {
    std::fprintf(stderr, "serve: %zu of %zu responses missing at the deadline\n",
                 n - inbox.wait(Clock::now()), n);
    session->submit("{\"id\": \"wake\", \"kind\": \"run\", \"workload\": \"crc32\", "
                    "\"shape\": \"config1\", \"slots\": 16}");
    inbox.wait(Clock::now() + std::chrono::seconds(5));
    if (inbox.wait(Clock::now()) < n) hung_ = true;
  }

  void collect_counters(const Traffic& t) {
    if (server_) {
      const dim::serve::ServerCounters c = server_->counters();
      const double lookups = static_cast<double>(c.store.hits + c.store.misses);
      store_hit_ratio_ = lookups > 0 ? static_cast<double>(c.store.hits) / lookups : 0;
      cells_per_batch_ =
          c.batches > 0 ? static_cast<double>(c.batched_cells) / static_cast<double>(c.batches) : 0;
    } else if (supervisor_) {
      // Store counters stay inside the workers; a job is the pool's batch.
      const dim::serve::SupervisorCounters c = supervisor_->counters();
      double cells = 0;
      for (size_t i = 0; i < t.cells.size(); ++i) cells += static_cast<double>(t.cells[i]);
      cells_per_batch_ = c.dispatched > 0 ? cells / static_cast<double>(c.dispatched) : 0;
    }
  }

  // Simulated instructions a response delivers (accelerated side).
  static double delivered_instructions(const std::string& line) {
    const dim::serve::JsonValue doc = dim::serve::parse_json(line);
    double sum = 0;
    if (const dim::serve::JsonValue* stats = doc.get("stats")) {
      if (const dim::serve::JsonValue* v = stats->get("instructions")) sum += v->number;
    }
    if (const dim::serve::JsonValue* points = doc.get("points")) {
      for (const dim::serve::JsonValue& p : points->array) {
        if (const dim::serve::JsonValue* v = p.get("instructions")) sum += v->number;
      }
    }
    return sum;
  }

  // Self-check: the first plain run request's reference becomes the bytes
  // of the same cell simulated with the translator fault planted. The
  // unplanted bytes, built the same way, must equal what was served.
  void plant(const Traffic& t, const std::vector<std::string>& served,
             std::vector<std::string>& expected) {
    planted_ = -1;
    for (size_t i = 0; i < t.lines.size() && planted_ < 0; ++i) {
      if (t.kind[i] == kRun) planted_ = static_cast<long>(i);
    }
    if (planted_ < 0) return;
    const size_t i = static_cast<size_t>(planted_);
    const dim::serve::ParseOutcome req = dim::serve::parse_request(t.lines[i]);
    const dim::asmblr::Program program =
        dim::asmblr::assemble(dim::work::make_workload(req.request.workload, 1).source);
    auto bytes = [&](dim::bt::FaultInjection fault) {
      dim::accel::SystemConfig cfg =
          dim::serve::config_for(req.request.shape, req.request.slots, req.request.speculation);
      cfg.fault_injection = fault;
      dim::serve::RunResponse r;
      r.accelerated = dim::accel::run_accelerated(program, cfg);
      r.baseline = dim::accel::baseline_as_stats(program, cfg.machine);
      r.has_baseline = true;
      r.transparent = r.accelerated.final_state.output == r.baseline.final_state.output &&
                      r.accelerated.memory_hash == r.baseline.memory_hash;
      r.halted = !r.accelerated.hit_limit;
      std::ostringstream out;
      dim::serve::write_run_response(out, req.request.id, r);
      return out.str();
    };
    if (bytes(dim::bt::FaultInjection::kNone) != served[i]) {
      std::printf("self-check: rebuilt response of r%zu differs from the served one\n", i);
    }
    expected[i] = bytes(dim::bt::FaultInjection::kAddiuImmOffByOne);
  }

  dim::serve::SessionHost& host() {
    if (pool_) return *supervisor_;
    return *server_;
  }

  void teardown() override {
    if (hung_) return;
    if (server_) server_->shutdown();
    if (supervisor_) shutdown_pool();
    if (hung_) return;
    server_.reset();
    supervisor_.reset();
    dir_.reset();
  }

  // Supervisor::shutdown can miss the wakeup it sends its scheduler and
  // block forever (the same lost wakeup), most easily right after start-up. So
  // teardown first lets the scheduler reach its wait; if shutdown still
  // blocks after kTeardownMs, the workers are killed, whose deaths wake the
  // scheduler. Such a teardown counts as one failed operation.
  void shutdown_pool() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> finished = done->get_future();
    dim::serve::Supervisor* sup = supervisor_.get();
    std::thread t([sup, done] {
      sup->shutdown();
      done->set_value();
    });
    const auto limit = std::chrono::milliseconds(static_cast<int64_t>(kTeardownMs));
    if (finished.wait_for(limit) != std::future_status::ready) {
      ++teardown_hangs_;
      std::fprintf(stderr, "serve-pool: Supervisor::shutdown blocked; killing its workers\n");
      for (const pid_t pid : sup->worker_pids()) ::kill(pid, SIGKILL);
      if (finished.wait_for(limit) != std::future_status::ready) {
        // Still stuck: the process must leave without destroying the pool.
        hung_ = true;
        stuck_ = std::move(t);
        return;
      }
    }
    t.join();
  }

  Args args_;
  bool pool_;
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<dim::serve::Server> server_;
  std::unique_ptr<dim::serve::Supervisor> supervisor_;
  uint64_t streams_ = 0;
  bool hung_ = false;
  uint64_t teardown_hangs_ = 0;
  uint64_t setup_failures_ = 0;
  std::thread stuck_;  // a shutdown that never returned; never joined
  double store_hit_ratio_ = 0;
  double cells_per_batch_ = 0;
  std::vector<double> lags_;
  long planted_ = -1;
  bool planted_failed_ = false;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const Args& args, bool pool) {
  return std::make_unique<ServeWorkload>(args, pool);
}

bool probe_serve(const Args& args, RunRecord& rec, std::map<std::string, double>& m) {
  for (const bool pool : {false, true}) {
    Span s(pool ? "serve.pool_probe" : "serve.probe");
    auto wl = std::make_unique<ServeWorkload>(args, pool);
    wl->setup();
    RunRecord r;
    wl->run(kServeProbeSeconds, r, {});
    rec.attempted += r.attempted;
    rec.failed += r.failed;
    std::map<std::string, double> layers;
    wl->layer_metrics(r, layers);
    for (const char* key : {"serve.request_ms", "serve.pool_request_ms", "snap.store_hit_ratio",
                            "serve.cells_per_batch"}) {
      if (layers.count(key) != 0) m[key] = layers[key];
    }
    if (wl->hung()) {
      (void)wl.release();  // cannot be shut down; the caller exits
      return true;
    }
  }
  return false;
}

}  // namespace pb
