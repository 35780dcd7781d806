// The one serve scheduler (docs/serving.md): sessions, admission,
// scheduling and shutdown, shared by both serving topologies.
//
// SessionHost owns everything about a request except running it: the
// per-session ordered emit, parsing and the immediate kinds (ping, stats,
// cancel, shutdown), the bounded EDF-within-priority admission queue with
// its overload and shutting-down rejections, the pickup check (cancel
// mark, expired deadline, crash-retry cap), the counters and the `stats`
// writer, the drain-then-stop shutdown sequence, and the scheduler
// thread's single wait. An executor derives from it and runs the jobs the
// scheduler hands over:
//
//   serve::Server      runs them in this process, batching grid work into
//                      one SweepEngine call on the scheduler thread;
//   serve::Supervisor  forwards each one to a pre-forked worker process,
//                      which runs it with a Server of its own.
//
// Transports (serve_stdio, UnixSocketServer) bind to this class, so a
// daemon picks its topology without the transports knowing.
//
// Every state change the scheduler's wait predicate reads — queue pushes
// and pops, the close, the retry list and whatever the executor reports
// through room_locked()/idle_locked() — happens under mutex_, so no
// wakeup can fall between the predicate check and the block.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/queue.hpp"
#include "snap/resultstore.hpp"

namespace dim::serve {

// The counters of both topologies; each fills (and `stats` reports) its
// own subset next to the shared admission counters.
struct ServeCounters {
  uint64_t accepted = 0;           // admitted into the queue
  uint64_t rejected_overload = 0;  // bounced off the full (or closed) queue
  uint64_t rejected_invalid = 0;   // parse/validation failures
  uint64_t rejected_deadline = 0;  // expired before the scheduler picked them up
  uint64_t completed = 0;          // responses emitted (any outcome)
  uint64_t canceled = 0;           // requests answered `canceled`
  // In-process executor.
  uint64_t batches = 0;            // executor passes with >= 1 grid item
  uint64_t batched_cells = 0;      // grid points handed to the SweepEngine
  uint64_t direct_runs = 0;        // budgeted/warm runs outside the engine
  uint64_t fuzz_campaigns = 0;
  uint64_t warm_entries = 0;       // resident warm-start pool size
  uint64_t warm_preloads = 0;
  uint64_t warm_exports = 0;
  bool has_store = false;
  snap::ResultStore::Counters store;
  // Worker-pool executor.
  uint64_t dispatched = 0;         // job frames handed to workers
  uint64_t worker_restarts = 0;    // deaths handled (reaped + respawned)
  uint64_t migrations = 0;         // crash re-queues with a checkpoint to resume
  uint64_t abandoned = 0;          // answered `internal` after the attempt cap
};

class SessionHost {
 public:
  // Serialized per session; called with one complete response line
  // (including the trailing '\n') in admission order.
  using ResponseSink = std::function<void(const std::string&)>;

  class Session : public std::enable_shared_from_this<Session> {
   public:
    // Feeds one raw request line; the response arrives on the sink (in
    // submission order, possibly before this returns for immediate
    // kinds). Returns false once the host is shutting down — queued
    // kinds have then been answered with a shutting_down rejection.
    bool submit(const std::string& line);

    // Blocks until every submitted request has produced its response.
    void drain();

   private:
    friend class SessionHost;
    Session(SessionHost* host, ResponseSink sink)
        : host_(host), sink_(std::move(sink)) {}

    void complete(uint64_t seq, std::string response_line);
    // True (and the mark consumed) when `id` was canceled on this session.
    bool take_cancel(const RequestId& id);

    SessionHost* host_;
    ResponseSink sink_;
    std::mutex mutex_;
    std::condition_variable drained_;
    uint64_t next_seq_ = 0;  // next seq to hand out
    uint64_t emit_seq_ = 0;  // next seq to emit
    std::map<uint64_t, std::string> ready_;  // completed, waiting for order
    std::set<std::string> canceled_;         // keyed "s:"/"i:" + id text
  };

  virtual ~SessionHost() = default;
  // Sessions and the scheduler thread hold `this`.
  SessionHost(const SessionHost&) = delete;
  SessionHost& operator=(const SessionHost&) = delete;

  std::shared_ptr<Session> open_session(ResponseSink sink);

  // Stops accepting, drains admitted work, stops the executor. Idempotent.
  void shutdown();
  bool shutting_down() const { return shutting_down_.load(); }
  // Blocks until a shutdown request (or shutdown() call) arrived.
  void wait_for_shutdown();

  ServeCounters counters() const;

  // Runs queued work on the calling thread until the queue is empty or the
  // executor has no room. The only pump when the scheduler thread is off
  // (ServerOptions::auto_dispatch == false, e.g. tests that control batch
  // composition); a no-op while the scheduler thread runs.
  void dispatch_pending();

 protected:
  // One admitted queued request (run / sweep / fuzz).
  struct Job {
    std::shared_ptr<Session> session;  // null for a worker process's run
    uint64_t seq = 0;
    uint64_t job_id = 0;  // unique per host; names migration checkpoints
    Request request;
    std::string line;     // the raw request line, as a worker re-parses it
    ScheduleKey key;
    int attempts = 0;     // dispatches to a worker so far
  };

  // `pool_workers` > 0 selects the worker-pool key set of `stats`.
  SessionHost(size_t queue_capacity, int pool_workers);

  // Starts the scheduler thread; called last by the executor's constructor
  // (the thread calls its virtuals). Executors call shutdown() first thing
  // in their destructor for the same reason.
  void start();

  // Runs jobs that passed the pickup check. Called without mutex_.
  virtual void execute(std::vector<Job> jobs) = 0;
  // How many jobs execute() can take now (0 = wait). mutex_ held.
  virtual size_t room_locked() = 0;
  // True when no executed job is still awaiting its response. mutex_ held.
  virtual bool idle_locked() const { return true; }
  // Stops the executor after the drain (the scheduler thread is joined).
  virtual void stop_executor() {}

  // Answers a job through its session.
  static void finish(const Job& job, std::string response_line);
  static bool take_cancel(const Job& job);
  void bump(uint64_t ServeCounters::*counter, uint64_t by = 1);

  // Guards the scheduler state: the queue's pushes, pops and close,
  // retry_, and the executor's room/idle state.
  mutable std::mutex mutex_;
  std::condition_variable cv_;  // the scheduler's one wait
  // Crash retries: popped before anything still queued (they were
  // admitted and scheduled earlier). Unbounded because a re-queue must not
  // fail — that would lose admitted work.
  std::deque<Job> retry_;
  snap::ResultStore* store_ = nullptr;  // reported by `stats` when set

  mutable std::mutex counters_mutex_;  // a leaf lock: taken last, held briefly
  ServeCounters counters_;

 private:
  void admit(const std::shared_ptr<Session>& session, const std::string& line);
  void begin_shutdown();
  void scheduler_loop();
  // Hands up to room_locked() jobs to the executor; false if none were
  // queued. Enters and leaves with `lock` held.
  bool step(std::unique_lock<std::mutex>& lock);
  bool drained_locked() const;
  // False (and the job answered) when a cancel mark, an expired deadline
  // or the crash-retry cap stops the job at pickup.
  bool pick_up(const Job& job);
  std::string stats_response(const RequestId& id) const;

  const int pool_workers_;
  AdmissionQueue<Job> queue_;  // pushed, popped and closed under mutex_
  uint64_t next_job_id_ = 1;   // mutex_
  std::atomic<bool> shutting_down_{false};
  std::condition_variable shutdown_cv_;  // on mutex_

  std::mutex teardown_mutex_;  // serializes the shutdown() join sequence
  bool torn_down_ = false;
  std::thread scheduler_;
};

}  // namespace dim::serve
