#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace pb {

int64_t now_ns() { return to_ns(Clock::now()); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t Rng::next() {
  state_ += 0x9E3779B97F4A7C15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

// --- Tracer ------------------------------------------------------------------

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::open(const char* name, int64_t parent, int64_t item) {
  if (!enabled_) return -1;
  SpanRec s;
  s.name = name;
  s.start_ns = now_ns();
  s.parent = parent;
  s.item = item;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::close(int64_t id) {
  if (id < 0) return;
  const int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

int64_t Tracer::record(const char* name, int64_t start_ns, int64_t end_ns,
                       int64_t parent, int64_t item) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, item});
  return static_cast<int64_t>(spans_.size()) - 1;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

double Tracer::self_pct(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  double layer_ns = 0;
  double total_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    if (s.end_ns < 0) continue;
    // Union of the children's intervals, clipped to this span: children on
    // worker threads may overlap each other.
    int64_t covered = 0;
    auto it = children.find(static_cast<int64_t>(i));
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0;
      int64_t cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    const double self = static_cast<double>(s.end_ns - s.start_ns - covered);
    total_ns += self;
    if (std::string(s.name).compare(0, layer.size() + 1, layer + ".") == 0) layer_ns += self;
  }
  return total_ns > 0 ? 100.0 * layer_ns / total_ns : 0;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"item\": " << s.item << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {
thread_local int64_t t_current_span = -1;
}  // namespace

Span::Span(const char* name, int64_t item)
    : id_(Tracer::get().open(name, t_current_span, item)), prev_(t_current_span) {
  if (id_ >= 0) t_current_span = id_;
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::get().close(id_);
  t_current_span = prev_;
}

int64_t Span::current() { return t_current_span; }

// --- PaperGuard ----------------------------------------------------------------

void PaperGuard::add(double speedup, double paper) {
  log_speedup_sum += std::log(speedup);
  abs_err_pct_sum += 100.0 * std::fabs(speedup - paper) / paper;
  ++cells;
}

double PaperGuard::geomean() const {
  return cells == 0 ? 0 : std::exp(log_speedup_sum / static_cast<double>(cells));
}

double PaperGuard::err_pct() const {
  return cells == 0 ? 0 : abs_err_pct_sum / static_cast<double>(cells);
}

}  // namespace pb
