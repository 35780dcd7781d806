#include "serve/supervisor.hpp"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <system_error>

#include "serve/ipc.hpp"
#include "serve/worker.hpp"

namespace dim::serve {
namespace {

// Forked children inherit every parent fd: other workers' socketpairs
// (keeping those open would break the supervisor's EOF-based death
// detection), transport sockets, open stores. Close everything except
// stdio and this worker's own pair end.
void close_inherited_fds(int keep) {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return;
  std::vector<int> fds;
  while (dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long fd = std::strtol(entry->d_name, &end, 10);
    if (end == entry->d_name || *end != '\0') continue;
    fds.push_back(static_cast<int>(fd));
  }
  const int dir_fd = ::dirfd(dir);
  for (const int fd : fds) {
    if (fd > 2 && fd != keep && fd != dir_fd) ::close(fd);
  }
  ::closedir(dir);
}

}  // namespace

Supervisor::Supervisor(SupervisorOptions options)
    : SessionHost(options.queue_capacity, std::max(options.workers, 1)),
      options_(options) {
  if (options_.workers < 1) options_.workers = 1;
  if (options_.checkpoint_interval == 0) options_.checkpoint_interval = 1u << 20;
  if (!options_.store_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.store_dir + "/migrate", ec);
  }
  workers_.resize(static_cast<size_t>(options_.workers));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < workers_.size(); ++i) spawn_worker(i);
  }
  start();
}

Supervisor::~Supervisor() { shutdown(); }

void Supervisor::stop_executor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    for (Worker& w : workers_) {
      // SHUT_RDWR (not close): the reader thread still recv()s on this
      // fd, and closing it here could let the number be reused under it.
      if (w.fd >= 0) ::shutdown(w.fd, SHUT_RDWR);
    }
  }
  for (Worker& w : workers_) {
    if (w.reader.joinable()) w.reader.join();
  }
  // All readers are gone (each closed its fd and reaped its child on the
  // way out), so the graveyard can no longer grow.
  for (std::thread& t : reader_graveyard_) {
    if (t.joinable()) t.join();
  }
  reader_graveyard_.clear();
}

std::vector<pid_t> Supervisor::worker_pids() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<pid_t> pids;
  for (const Worker& w : workers_) {
    if (w.pid > 0) pids.push_back(w.pid);
  }
  return pids;
}

std::string Supervisor::migrate_path(uint64_t job_id) const {
  return options_.store_dir + "/migrate/job-" + std::to_string(job_id) + ".snap";
}

// mutex_ held by the caller.
void Supervisor::spawn_worker(size_t slot) {
  Worker& w = workers_[slot];
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return;  // retried later
  const pid_t pid = ::fork();
  if (pid == 0) {
    close_inherited_fds(sv[1]);
    WorkerOptions wopts;
    wopts.store_dir = options_.store_dir;
    wopts.checkpoint_interval = options_.checkpoint_interval;
    wopts.engine_threads = options_.engine_threads;
    // _exit, never exit: the child shares the parent's atexit handlers
    // and sanitizer end-of-process checks, which must run exactly once.
    ::_exit(worker_main(sv[1], wopts));
  }
  ::close(sv[1]);
  if (pid < 0) {
    ::close(sv[0]);
    return;  // fork pressure; the scheduler retries the slot
  }
  w.pid = pid;
  w.fd = sv[0];
  w.busy = false;
  w.job_id = 0;
  w.reader = std::thread([this, slot] { reader_loop(slot); });
}

void Supervisor::reader_loop(size_t slot) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fd = workers_[slot].fd;
  }
  std::string payload;
  while (fd >= 0 && recv_frame(fd, payload)) {
    uint64_t job_id = 0;
    std::string response;
    if (!decode_response_frame(payload, job_id, response)) break;
    Job job;
    bool found = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = inflight_.find(job_id);
      if (it != inflight_.end()) {
        job = std::move(it->second);
        inflight_.erase(it);
        found = true;
      }
      Worker& w = workers_[slot];
      if (w.busy && w.job_id == job_id) {
        w.busy = false;
        w.job_id = 0;
      }
    }
    if (found) {
      if (!options_.store_dir.empty()) {
        // The worker removes its checkpoint after responding, but a kill
        // between the two leaves the file; sweep it here as well.
        std::error_code ec;
        std::filesystem::remove(migrate_path(job_id), ec);
      }
      finish(job, response);
    }
    cv_.notify_all();
  }
  handle_worker_death(slot);
}

void Supervisor::handle_worker_death(size_t slot) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    Worker& w = workers_[slot];
    const pid_t pid = w.pid;
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
    w.pid = -1;
    if (pid > 0) {
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
    if (w.busy) {
      // The in-flight job's response never (fully) arrived — the framing
      // is at-most-once, so re-running it cannot double-deliver. Retries
      // go to the front: this job was admitted and scheduled before
      // anything still queued.
      auto it = inflight_.find(w.job_id);
      if (it != inflight_.end()) {
        Job job = std::move(it->second);
        inflight_.erase(it);
        const bool has_checkpoint =
            !options_.store_dir.empty() &&
            std::filesystem::exists(migrate_path(job.job_id));
        retry_.push_front(std::move(job));
        if (has_checkpoint) bump(&ServeCounters::migrations);
      }
      w.busy = false;
      w.job_id = 0;
    }
    if (!stopping_) {
      // This thread IS the dying worker's reader: it cannot join itself,
      // so it parks its own handle in the graveyard and hands the slot a
      // fresh worker + reader. The graveyard is joined at teardown.
      reader_graveyard_.push_back(std::move(w.reader));
      spawn_worker(slot);
      // Counted once the replacement is forked, so a caller that waits
      // for the count also knows the fork is behind it.
      bump(&ServeCounters::worker_restarts);
    }
  }
  cv_.notify_all();
}

size_t Supervisor::room_locked() {
  size_t idle = 0;
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    // fd < 0 with no live reader = a slot whose spawn failed (a slot
    // mid-death still has its reader running and is repaired there).
    if (w.fd < 0 && !w.reader.joinable() && !stopping_) spawn_worker(i);
    if (w.fd >= 0 && !w.busy) ++idle;
  }
  return idle;
}

void Supervisor::execute(std::vector<Job> jobs) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = jobs.begin(); it != jobs.end(); ++it) {
    Job& job = *it;
    size_t slot = 0;
    while (slot < workers_.size() && (workers_[slot].fd < 0 || workers_[slot].busy)) {
      ++slot;
    }
    if (slot == workers_.size()) {
      // The worker counted at pickup died since and could not be
      // replaced: the rest go back to the front, in order, for the next
      // scheduler pass.
      for (auto rest = jobs.end(); rest != it;) retry_.push_front(std::move(*--rest));
      return;
    }
    Worker& w = workers_[slot];
    w.busy = true;
    w.job_id = job.job_id;
    ++job.attempts;
    const std::string frame = encode_job_frame(job.job_id, job.line);
    inflight_.emplace(job.job_id, std::move(job));
    bump(&ServeCounters::dispatched);
    // Sent under mutex_ so the fd cannot be closed/reused by a concurrent
    // death handler. Frames are small and at most one job is outstanding
    // per worker, so this send cannot block on a full pipe. If the worker
    // just died, the send fails and its reader re-queues the job exactly
    // as for a mid-run death.
    send_frame(w.fd, frame);
  }
}

}  // namespace dim::serve
