// The in-process executor of the serve scheduler (docs/serving.md).
//
// Everything the paper's transparent-acceleration story amortizes —
// translated configurations, memoized sweep cells, assembled program
// images — stays warm in one long-lived process. SessionHost (host.hpp)
// admits and schedules; the Server runs each batch the scheduler hands
// over on the scheduler thread: every batched grid point goes through one
// shared SweepEngine (memoized by a resident snap::ResultStore), budgeted
// runs execute in run_until checkpoint chunks with cooperative
// cancellation, fuzz campaigns fan out over the engine threads. A worker
// process of the pre-forked pool (supervisor.hpp) runs its jobs through
// the same executor via run().
//
// Determinism contract: for a fixed request stream on one session (with a
// fixed result-store temperature), response bytes are identical for any
// worker-thread count, any batch composition, and across a daemon restart
// that kept the store directory — `stats` responses excepted (they report
// live counters). The load bench's --check mode and the serve CI job pin
// this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "accel/stats.hpp"
#include "asm/program.hpp"
#include "serve/host.hpp"
#include "serve/protocol.hpp"
#include "snap/resultstore.hpp"

namespace dim::serve {

struct ServerOptions {
  // SweepEngine worker pool for batched grids (0 = hardware concurrency).
  unsigned worker_threads = 0;
  // Admission bound: requests beyond this are rejected with `overloaded`.
  size_t queue_capacity = 256;
  // Max requests merged into one executor batch.
  size_t batch_max = 32;
  // Persistence root ("" = fully in-memory): result-store cells go to
  // <store_dir>/cells, warm-start exports to <store_dir>/warm.
  std::string store_dir;
  // run_until chunk for budgeted runs: the cancellation latency bound.
  uint64_t checkpoint_interval = 1u << 20;
  // Tests set false and call dispatch_pending() for deterministic control
  // over when (and in what batches) queued work executes; worker processes
  // set false and call run().
  bool auto_dispatch = true;
};

using ServerCounters = ServeCounters;

// Hooks a worker process (serve::worker_main) passes to Server::run so
// budgeted runs survive the process: `resume` supplies a prior
// checkpoint's snapshot payload (empty = cold start, taken BEFORE the
// budget loop but AFTER the warm preload so `warm_preloaded` matches the
// uncrashed run), and `checkpoint` receives a fresh snapshot payload after
// every run_until chunk that did not finish the request.
struct MigrationHooks {
  std::function<std::vector<uint8_t>(const Request&)> resume;
  std::function<void(const Request&, const std::vector<uint8_t>&)> checkpoint;
};

class Server : public SessionHost {
 public:
  explicit Server(ServerOptions options);
  ~Server() override;  // drains and joins

  // Runs one queued-kind request (run / sweep / fuzz) on the calling
  // thread and returns its response line: a worker process's entry point.
  // `hooks` let a budgeted run resume from and checkpoint to a migration
  // snapshot.
  std::string run(const Request& request, const MigrationHooks& hooks);

 private:
  using Respond = std::function<void(const Job&, std::string)>;

  // A cached, already-assembled program plus its lazily computed
  // unbudgeted baseline (resident across requests).
  struct ProgramEntry {
    asmblr::Program program;
    bool has_baseline = false;
    accel::AccelStats baseline;
  };

  void execute(std::vector<Job> jobs) override;
  size_t room_locked() override { return std::max<size_t>(options_.batch_max, 1); }

  // Executor-thread only (the program cache is not locked).
  void process_batch(const std::vector<Job>& jobs, const MigrationHooks& hooks,
                     const Respond& respond);
  ProgramEntry* resolve_program(const Job& job, const Respond& respond);
  void execute_direct(const Job& job, ProgramEntry& entry,
                      const MigrationHooks& hooks, const Respond& respond);
  void execute_fuzz(const Job& job, const Respond& respond);

  // Warm-start pool: payload per (program hash, system fingerprint); the
  // payload for a key is unique (only halted runs export), so concurrent
  // writers write identical bytes and the pool stays deterministic.
  std::vector<uint8_t>* warm_lookup(uint64_t program_hash, uint64_t fingerprint);
  void warm_insert(uint64_t program_hash, uint64_t fingerprint,
                   std::vector<uint8_t> payload);

  ServerOptions options_;
  std::unique_ptr<snap::ResultStore> result_store_;  // null without store_dir

  std::map<std::string, ProgramEntry> programs_;  // executor-thread only

  std::mutex warm_mutex_;
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint8_t>> warm_pool_;
};

}  // namespace dim::serve
