#include "serve/host.hpp"

#include <sstream>

namespace dim::serve {
namespace {

constexpr int kMaxAttempts = 100;  // crash-retry backstop per job

std::string cancel_key(const RequestId& id) {
  return (id.is_string ? "s:" : "i:") + id.text;
}

std::string ok_line(const RequestId& id, const char* kind) {
  std::ostringstream out;
  write_ok_prefix(out, id);
  out << ", \"kind\": \"" << kind << "\"}\n";
  return out.str();
}

std::string error_line(const RequestId& id, const std::string& error,
                       const std::string& detail) {
  std::ostringstream out;
  write_error_response(out, id, error, detail);
  return out.str();
}

}  // namespace

// --- Session ---------------------------------------------------------------

bool SessionHost::Session::submit(const std::string& line) {
  // Admission decides everything, including the shutting-down rejection
  // (it knows the request id, so the rejection is still correlatable).
  host_->admit(shared_from_this(), line);
  return !host_->shutting_down();
}

void SessionHost::Session::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return emit_seq_ == next_seq_; });
}

void SessionHost::Session::complete(uint64_t seq, std::string response_line) {
  std::unique_lock<std::mutex> lock(mutex_);
  ready_.emplace(seq, std::move(response_line));
  // Emit every response that is now next in admission order. The sink is
  // called under the lock, so per-session output is serialized and
  // ordered by construction.
  while (!ready_.empty() && ready_.begin()->first == emit_seq_) {
    const std::string line = std::move(ready_.begin()->second);
    ready_.erase(ready_.begin());
    ++emit_seq_;
    if (sink_) sink_(line);
  }
  lock.unlock();
  drained_.notify_all();
  host_->bump(&ServeCounters::completed);
}

bool SessionHost::Session::take_cancel(const RequestId& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  return canceled_.erase(cancel_key(id)) > 0;
}

// --- SessionHost -----------------------------------------------------------

SessionHost::SessionHost(size_t queue_capacity, int pool_workers)
    : pool_workers_(pool_workers), queue_(queue_capacity) {}

void SessionHost::start() {
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

std::shared_ptr<SessionHost::Session> SessionHost::open_session(ResponseSink sink) {
  return std::shared_ptr<Session>(new Session(this, std::move(sink)));
}

void SessionHost::begin_shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_.load()) return;
    shutting_down_.store(true);
    queue_.close();
  }
  cv_.notify_all();
  shutdown_cv_.notify_all();
}

void SessionHost::shutdown() {
  begin_shutdown();
  std::lock_guard<std::mutex> teardown(teardown_mutex_);
  if (torn_down_) return;
  // The scheduler exits only when everything admitted has been answered
  // (queue drained, no retries, nothing in flight) — the drain promise.
  if (scheduler_.joinable()) scheduler_.join();
  stop_executor();
  torn_down_ = true;
}

void SessionHost::wait_for_shutdown() {
  std::unique_lock<std::mutex> lock(mutex_);
  shutdown_cv_.wait(lock, [this] { return shutting_down_.load(); });
}

ServeCounters SessionHost::counters() const {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  ServeCounters c = counters_;
  if (store_ != nullptr) {
    c.has_store = true;
    c.store = store_->counters();
  }
  return c;
}

void SessionHost::bump(uint64_t ServeCounters::*counter, uint64_t by) {
  std::lock_guard<std::mutex> lock(counters_mutex_);
  counters_.*counter += by;
}

void SessionHost::finish(const Job& job, std::string response_line) {
  job.session->complete(job.seq, std::move(response_line));
}

bool SessionHost::take_cancel(const Job& job) {
  return job.session != nullptr && job.session->take_cancel(job.request.id);
}

std::string SessionHost::stats_response(const RequestId& id) const {
  const ServeCounters c = counters();
  std::ostringstream out;
  write_ok_prefix(out, id);
  out << ", \"kind\": \"stats\"";
  if (pool_workers_ > 0) out << ", \"workers\": " << pool_workers_;
  out << ", \"accepted\": " << c.accepted
      << ", \"rejected_overload\": " << c.rejected_overload
      << ", \"rejected_invalid\": " << c.rejected_invalid
      << ", \"rejected_deadline\": " << c.rejected_deadline
      << ", \"completed\": " << c.completed
      << ", \"canceled\": " << c.canceled;
  if (pool_workers_ > 0) {
    out << ", \"dispatched\": " << c.dispatched
        << ", \"worker_restarts\": " << c.worker_restarts
        << ", \"migrations\": " << c.migrations
        << ", \"abandoned\": " << c.abandoned;
  } else {
    out << ", \"batches\": " << c.batches
        << ", \"batched_cells\": " << c.batched_cells
        << ", \"direct_runs\": " << c.direct_runs
        << ", \"fuzz_campaigns\": " << c.fuzz_campaigns
        << ", \"warm_entries\": " << c.warm_entries
        << ", \"warm_preloads\": " << c.warm_preloads
        << ", \"warm_exports\": " << c.warm_exports;
    if (c.has_store) {
      out << ", \"store\": {\"hits\": " << c.store.hits
          << ", \"misses\": " << c.store.misses
          << ", \"stores\": " << c.store.stores
          << ", \"corrupt_discards\": " << c.store.corrupt_discards << "}";
    }
  }
  out << "}\n";
  return out.str();
}

void SessionHost::admit(const std::shared_ptr<Session>& session,
                        const std::string& line) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(session->mutex_);
    seq = session->next_seq_++;
  }
  ParseOutcome parsed = parse_request(line);
  if (!parsed.ok) {
    bump(&ServeCounters::rejected_invalid);
    session->complete(seq, error_line(parsed.id, parsed.error, parsed.detail));
    return;
  }

  Request& req = parsed.request;
  switch (req.kind) {
    case RequestKind::kPing: {
      std::ostringstream out;
      write_pong_response(out, req.id);
      session->complete(seq, out.str());
      return;
    }
    case RequestKind::kStats:
      session->complete(seq, stats_response(req.id));
      return;
    case RequestKind::kCancel: {
      // The mark takes effect immediately (admission thread), so it stops
      // the target at pickup, and an in-process budgeted run in flight
      // sees it at its next checkpoint; only the *response* waits for
      // FIFO order.
      {
        std::lock_guard<std::mutex> lock(session->mutex_);
        session->canceled_.insert(cancel_key(req.target));
      }
      session->complete(seq, ok_line(req.id, "cancel"));
      return;
    }
    case RequestKind::kShutdown:
      session->complete(seq, ok_line(req.id, "shutdown"));
      // Close after responding: already-admitted work still drains.
      begin_shutdown();
      return;
    case RequestKind::kRun:
    case RequestKind::kSweep:
    case RequestKind::kFuzz:
      break;
  }

  Job job;
  job.session = session;
  job.seq = seq;
  job.line = line;
  job.key.priority = req.priority;
  if (req.has_deadline) {
    job.key.has_deadline = true;
    job.key.deadline = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(req.deadline_ms);
  }
  const RequestId id = req.id;  // survives the move below
  job.request = std::move(req);
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.job_id = next_job_id_++;
    const ScheduleKey key = job.key;
    admitted = queue_.try_push(std::move(job), key);
  }
  if (!admitted) {
    const bool closing = shutting_down();
    bump(&ServeCounters::rejected_overload);
    session->complete(seq, error_line(id, closing ? kErrShuttingDown : kErrOverloaded,
                                      closing ? "server is shutting down"
                                              : "admission queue is full; retry later"));
    return;
  }
  bump(&ServeCounters::accepted);
  cv_.notify_all();
}

bool SessionHost::pick_up(const Job& job) {
  const RequestId& id = job.request.id;
  if (take_cancel(job)) {
    bump(&ServeCounters::canceled);
    finish(job, error_line(id, kErrCanceled, "canceled before dispatch"));
    return false;
  }
  // Expiry is judged here, at pickup, not in the queue: the request is
  // rejected exactly once, with a response. `>=` makes deadline_ms: 0
  // expire unconditionally (admission time is the deadline), which is
  // what pins this path deterministically in tests.
  if (job.key.has_deadline && std::chrono::steady_clock::now() >= job.key.deadline) {
    bump(&ServeCounters::rejected_deadline);
    finish(job, error_line(id, kErrDeadlineExpired, "deadline passed before dispatch"));
    return false;
  }
  if (job.attempts >= kMaxAttempts) {
    bump(&ServeCounters::abandoned);
    finish(job, error_line(id, kErrInternal,
                           "job abandoned after repeated worker failures"));
    return false;
  }
  return true;
}

bool SessionHost::drained_locked() const {
  return queue_.closed() && queue_.size() == 0 && retry_.empty() && idle_locked();
}

bool SessionHost::step(std::unique_lock<std::mutex>& lock) {
  std::vector<Job> jobs;
  const size_t room = room_locked();
  while (jobs.size() < room) {
    Job job;
    if (!retry_.empty()) {
      job = std::move(retry_.front());
      retry_.pop_front();
    } else if (!queue_.try_pop(job)) {
      break;
    }
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) return false;
  lock.unlock();
  std::vector<Job> runnable;
  for (Job& job : jobs) {
    if (pick_up(job)) runnable.push_back(std::move(job));
  }
  if (!runnable.empty()) execute(std::move(runnable));
  lock.lock();
  return true;
}

void SessionHost::dispatch_pending() {
  if (scheduler_.joinable()) return;
  std::unique_lock<std::mutex> lock(mutex_);
  while (step(lock)) {
  }
}

void SessionHost::scheduler_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      if (drained_locked()) return true;
      const bool work = !retry_.empty() || queue_.size() > 0;
      return work && room_locked() > 0;
    });
    if (drained_locked()) return;
    step(lock);
  }
}

}  // namespace dim::serve
