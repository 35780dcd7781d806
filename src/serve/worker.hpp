// The worker side of the pre-forked pool: one process, one socketpair fd.
//
// A worker is a thin loop around the in-process executor. Each 'J' frame
// carries one raw request line the supervisor already admitted and
// picked up; the worker parses it, runs it on this thread with
// Server::run, and sends the one response line back as an 'R' frame.
// Budgeted runs pass MigrationHooks that persist a snapshot into the
// shared store's migrate/ directory after every run_until chunk — if this
// process is SIGKILLed mid-run, the supervisor re-queues the job and the
// next worker resumes from that snapshot, returning the byte-identical
// response the uncrashed run would have produced.
#pragma once

#include <cstdint>
#include <string>

namespace dim::serve {

struct WorkerOptions {
  // Shared persistence root ("" = in-memory; migration checkpoints are
  // then unavailable and a crashed job simply restarts cold).
  std::string store_dir;
  uint64_t checkpoint_interval = 1u << 20;
  // SweepEngine threads inside this worker (0 = hardware concurrency).
  unsigned engine_threads = 0;
};

// Runs the frame loop until the supervisor closes its end (EOF) or the fd
// breaks. Returns the process exit code; the forked child must pass it to
// _exit (not exit) so atexit handlers and sanitizer leak checks of the
// parent image don't run twice.
int worker_main(int fd, const WorkerOptions& options);

}  // namespace dim::serve
