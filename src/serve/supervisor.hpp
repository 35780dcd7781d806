// The worker-pool executor of the serve scheduler (docs/serving.md).
//
// One supervisor process owns admission, scheduling and fault handling;
// N forked worker processes own execution. Admission, the immediate kinds
// and the pickup check are SessionHost's (host.hpp), byte for byte the
// same as for serve::Server; the scheduler thread hands each job that
// passes pickup to an idle worker over a socketpair (serve/ipc.hpp
// framing), and the worker runs it with Server::run. All workers share one
// store directory, so memoized cells and warm-start exports are pooled.
//
// Fault model: a worker death (crash, SIGKILL) is detected as EOF on its
// socketpair by that worker's reader thread, which reaps the child,
// re-queues the job whose response never fully arrived (at-most-once
// framing makes "arrived" unambiguous), forks a replacement, and life
// goes on. Budgeted runs checkpoint snapshots into <store>/migrate/ at
// every run_until chunk, so the retry resumes mid-run on another worker
// and still returns byte-identical response bytes. Admitted work is never
// lost: every admitted request is answered exactly once, by a worker
// response or by a supervisor-side rejection (canceled / deadline_expired
// / internal after the attempt cap).
//
// Cancellation is queued-only here: a cancel mark stops a job that is
// still waiting at schedule time, but a job already on a worker runs to
// completion (workers are not interrupted — killing them is the fault
// path, not the cancel path). Single-process Server additionally cancels
// at run_until checkpoints; docs/serving.md has the full table.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "serve/host.hpp"

namespace dim::serve {

struct SupervisorOptions {
  int workers = 2;
  size_t queue_capacity = 256;
  // Shared persistence root ("" = in-memory stores per worker and no
  // migration checkpoints — crashed jobs restart cold, same bytes).
  std::string store_dir;
  uint64_t checkpoint_interval = 1u << 20;
  // SweepEngine threads inside each worker (0 = hardware concurrency).
  unsigned engine_threads = 0;
};

using SupervisorCounters = ServeCounters;

class Supervisor : public SessionHost {
 public:
  explicit Supervisor(SupervisorOptions options);
  ~Supervisor() override;  // drains admitted work, then stops the pool

  // Live worker pids, for the chaos harness (and ps-level debugging).
  std::vector<pid_t> worker_pids() const;

 private:
  struct Worker {
    pid_t pid = -1;
    int fd = -1;       // supervisor side of the socketpair
    bool busy = false;
    uint64_t job_id = 0;
    std::thread reader;
  };

  void execute(std::vector<Job> jobs) override;
  size_t room_locked() override;
  bool idle_locked() const override { return inflight_.empty(); }
  void stop_executor() override;

  void reader_loop(size_t slot);
  // mutex_ held. Forks the replacement and starts its reader.
  void spawn_worker(size_t slot);
  void handle_worker_death(size_t slot);
  std::string migrate_path(uint64_t job_id) const;

  SupervisorOptions options_;

  // Guarded by SessionHost::mutex_, like the rest of the scheduler state.
  std::vector<Worker> workers_;
  std::map<uint64_t, Job> inflight_;  // keyed by job_id
  std::vector<std::thread> reader_graveyard_;  // replaced readers, joined late
  bool stopping_ = false;  // pool teardown (post-drain): no more respawns
};

}  // namespace dim::serve
