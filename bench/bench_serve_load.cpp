// bench_serve_load: latency/throughput of the dimsim-serve batching daemon.
//
// Replays a fixed, deterministic request mix (sweeps, plain runs, budgeted
// runs, warm runs) through a serve::Server twice — a cold pass that fills
// the resident result store and a warm pass that must be served from it —
// and reports per-request latency percentiles and sweep-cell throughput
// for both. The warm pass asserts the store counters moved by zero stores
// and zero misses: repeated requests re-simulate nothing.
//
// Modes:
//   (default)        in-process server, workers from --workers
//   --procs LIST     multi-process scaling mode: for each N in LIST (e.g.
//                    1,2,4) run the stream through an in-process
//                    serve::Supervisor with N forked workers and a fresh
//                    store, compare every response byte-for-byte against
//                    a single-process reference, and report per-topology
//                    p50/p99/throughput (warm requests are excluded from
//                    this stream: concurrent warm exports on different
//                    workers would make warm_exported/warm_preloaded
//                    order-dependent)
//   --connect PATH   drive an already-running dimsim-serve over its socket
//   --check FILE     also dump every response line (stats excluded) to
//                    FILE; diffing two dumps pins byte-determinism across
//                    worker counts / daemon restarts (CI serve job)
//   --check-pass P   which passes the dump covers: cold|warm|both
//                    (default both). Fresh-store daemons compare `both`;
//                    a restart comparison uses `warm`, because the first
//                    pass after a restart finds the persisted caches warm
//                    (warm_preloaded where the fresh daemon said
//                    warm_exported) while warm passes match bytewise.
//
// Other flags: --requests N (default 30), --workers N, --store DIR
// (default: a fresh per-run directory under the system temp dir, removed
// on exit; the warm pass still hits the store the cold pass filled),
// --json PATH (BENCH_serve.json artifact).
#include <algorithm>
#include <chrono>
#include <thread>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/transport.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  size_t requests = 30;
  unsigned workers = 0;
  std::string store_dir;
  std::string json_path;
  std::string check_path;
  std::string check_pass = "both";
  std::string connect_path;
  std::vector<int> procs;  // multi-process scaling mode when non-empty
};

// One request of the replayed stream plus how many grid cells it costs.
struct StreamEntry {
  std::string line;
  size_t cells = 1;
};

// Deterministic mix: half sweeps over two fast workloads, the rest plain,
// budgeted and warm-started runs. Ids are stable ("q<i>") so two replays
// of the stream produce byte-identical response dumps.
std::vector<StreamEntry> build_stream(size_t n, bool allow_warm = true) {
  std::vector<StreamEntry> stream;
  stream.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const char* workload = (i % 2 == 0) ? "crc32" : "bitcount";
    StreamEntry e;
    const std::string id = "\"id\": \"q" + std::to_string(i) + "\"";
    switch (i % 10) {
      case 0: case 1: case 2: case 3: case 4: {
        const bool both_shapes = i % 4 < 2;
        e.line = "{" + id + ", \"kind\": \"sweep\", \"workload\": \"" + workload +
                 "\", \"shapes\": [\"config1\"" +
                 (both_shapes ? std::string(", \"config2\"") : std::string()) +
                 "], \"slots_axis\": [16, 64]}";
        e.cells = both_shapes ? 4 : 2;
        break;
      }
      case 5: case 6: case 7:
        e.line = "{" + id + ", \"kind\": \"run\", \"workload\": \"" + workload + "\"}";
        break;
      case 8:
        e.line = "{" + id + ", \"kind\": \"run\", \"workload\": \"" + workload +
                 "\", \"budget\": 100000}";
        break;
      default:
        // Warm runs are order-sensitive across worker processes; the
        // multi-process stream swaps them for budgeted runs instead.
        e.line = allow_warm
                     ? "{" + id + ", \"kind\": \"run\", \"workload\": \"" +
                           workload + "\", \"warm\": true}"
                     : "{" + id + ", \"kind\": \"run\", \"workload\": \"" +
                           workload + "\", \"budget\": 200000}";
        break;
    }
    stream.push_back(std::move(e));
  }
  return stream;
}

struct PassResult {
  double seconds = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double cells_per_sec = 0;
  std::vector<std::string> responses;  // admission order
};

double percentile(std::vector<double> sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const size_t idx = std::min(sorted_ms.size() - 1,
                              static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

void finish_pass(PassResult& pass, const std::vector<Clock::time_point>& sent,
                 const std::vector<Clock::time_point>& received,
                 Clock::time_point t0, size_t cells) {
  pass.seconds = dim::bench::seconds_since(t0);
  std::vector<double> lat;
  lat.reserve(sent.size());
  for (size_t i = 0; i < sent.size() && i < received.size(); ++i) {
    lat.push_back(std::chrono::duration<double, std::milli>(received[i] - sent[i]).count());
  }
  std::sort(lat.begin(), lat.end());
  pass.p50_ms = percentile(lat, 0.50);
  pass.p99_ms = percentile(lat, 0.99);
  pass.cells_per_sec =
      pass.seconds > 0 ? static_cast<double>(cells) / pass.seconds : 0;
}

// All requests are submitted up front (the pipelined-client shape that
// actually exercises batching); latency is submit-to-response per request.
PassResult run_pass_inprocess(dim::serve::SessionHost& server,
                              const std::vector<StreamEntry>& stream) {
  PassResult pass;
  std::mutex mutex;
  std::vector<Clock::time_point> received;
  auto session = server.open_session([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    received.push_back(Clock::now());
    pass.responses.push_back(line);
  });
  size_t cells = 0;
  std::vector<Clock::time_point> sent;
  sent.reserve(stream.size());
  const Clock::time_point t0 = Clock::now();
  for (const StreamEntry& e : stream) {
    sent.push_back(Clock::now());
    session->submit(e.line);
    cells += e.cells;
  }
  session->drain();
  finish_pass(pass, sent, received, t0, cells);
  return pass;
}

PassResult run_pass_socket(dim::serve::UnixSocketClient& client,
                           const std::vector<StreamEntry>& stream) {
  PassResult pass;
  size_t cells = 0;
  std::vector<Clock::time_point> sent;
  std::vector<Clock::time_point> received;
  const Clock::time_point t0 = Clock::now();
  for (const StreamEntry& e : stream) {
    sent.push_back(Clock::now());
    if (!client.send_line(e.line)) {
      std::fprintf(stderr, "send failed\n");
      std::exit(1);
    }
    cells += e.cells;
  }
  std::string line;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (!client.recv_line(line)) {
      std::fprintf(stderr, "connection closed after %zu responses\n", i);
      std::exit(1);
    }
    received.push_back(Clock::now());
    pass.responses.push_back(line + "\n");
  }
  finish_pass(pass, sent, received, t0, cells);
  return pass;
}

// Store counters via the protocol (works both in-process and over the
// socket): send a stats request and pull the store object out of the
// response.
struct StoreCounters {
  bool present = false;
  uint64_t misses = 0;
  uint64_t stores = 0;
};

StoreCounters parse_store_counters(const std::string& response) {
  StoreCounters c;
  const dim::serve::JsonValue doc = dim::serve::parse_json(response);
  if (const dim::serve::JsonValue* store = doc.get("store")) {
    c.present = true;
    if (const auto* v = store->get("misses")) c.misses = v->as_u64();
    if (const auto* v = store->get("stores")) c.stores = v->as_u64();
  }
  return c;
}

StoreCounters query_stats_inprocess(dim::serve::SessionHost& server) {
  std::string response;
  std::mutex mutex;
  auto session = server.open_session([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mutex);
    response = line;
  });
  session->submit("{\"id\": \"stats\", \"kind\": \"stats\"}");
  session->drain();
  return parse_store_counters(response);
}

StoreCounters query_stats_socket(dim::serve::UnixSocketClient& client) {
  if (!client.send_line("{\"id\": \"stats\", \"kind\": \"stats\"}")) std::exit(1);
  std::string line;
  if (!client.recv_line(line)) std::exit(1);
  return parse_store_counters(line);
}

void dump_check(const std::string& path, const std::vector<PassResult>& passes) {
  std::ofstream out(path);
  for (const PassResult& pass : passes) {
    for (const std::string& line : pass.responses) {
      if (line.find("\"kind\": \"stats\"") != std::string::npos) continue;
      out << line;
    }
  }
}

void write_pass_json(std::ofstream& out, const char* name, const PassResult& p) {
  out << "  \"" << name << "\": {\"seconds\": " << p.seconds
      << ", \"p50_ms\": " << p.p50_ms << ", \"p99_ms\": " << p.p99_ms
      << ", \"cells_per_sec\": " << p.cells_per_sec << "}";
}

// A private mkdtemp directory (<tmp>/dimsim-bench-serve-<tag>-XXXXXX) for
// one run's stores, removed on exit; an empty tag makes none. Per-run
// paths let concurrent runs share a host.
struct TempDir {
  explicit TempDir(const std::string& tag) {
    if (tag.empty()) return;
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        ("dimsim-bench-serve-" + tag + "-XXXXXX")).string();
    if (mkdtemp(tmpl.data()) == nullptr) {
      std::perror("bench_serve_load: mkdtemp");
      std::exit(1);
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

// Multi-process scaling: one pass per worker count, each against a fresh
// store, plus a single-process reference pass. Every topology must return
// byte-identical responses — that is the whole point of the exercise.
int run_procs_mode(const Options& opt) {
  const std::vector<StreamEntry> stream =
      build_stream(opt.requests, /*allow_warm=*/false);
  size_t total_cells = 0;
  for (const StreamEntry& e : stream) total_cells += e.cells;

  const TempDir temp(opt.store_dir.empty() ? "procs" : "");
  const std::string store_base = opt.store_dir.empty() ? temp.path + "/store" : opt.store_dir;

  const std::string ref_store = store_base + "-ref";
  std::filesystem::remove_all(ref_store);
  PassResult reference;
  {
    dim::serve::ServerOptions server_opt;
    server_opt.worker_threads = opt.workers;
    server_opt.store_dir = ref_store;
    dim::serve::Server server(server_opt);
    reference = run_pass_inprocess(server, stream);
    server.shutdown();
  }

  struct Topology {
    int procs;
    PassResult pass;
  };
  std::vector<Topology> topologies;
  bool identical = true;
  for (const int procs : opt.procs) {
    const std::string store = store_base + "-p" + std::to_string(procs);
    std::filesystem::remove_all(store);
    dim::serve::SupervisorOptions sup;
    sup.workers = procs;
    sup.store_dir = store;
    sup.engine_threads = opt.workers;
    dim::serve::Supervisor supervisor(sup);
    Topology t{procs, run_pass_inprocess(supervisor, stream)};
    supervisor.shutdown();
    if (t.pass.responses != reference.responses) {
      identical = false;
      std::fprintf(stderr, "RESPONSE BYTES DIVERGED at procs=%d\n", procs);
    }
    topologies.push_back(std::move(t));
  }

  std::printf("serve load (multi-process): %zu requests (%zu cells)\n",
              stream.size(), total_cells);
  std::printf("  reference (1 process): %.2fs  p50 %.2fms  p99 %.2fms  %.1f cells/s\n",
              reference.seconds, reference.p50_ms, reference.p99_ms,
              reference.cells_per_sec);
  for (const Topology& t : topologies) {
    std::printf("  procs=%d: %.2fs  p50 %.2fms  p99 %.2fms  %.1f cells/s\n",
                t.procs, t.pass.seconds, t.pass.p50_ms, t.pass.p99_ms,
                t.pass.cells_per_sec);
  }
  std::printf("  response bytes identical across topologies: %s\n",
              identical ? "yes" : "NO");

  if (!opt.check_path.empty()) {
    std::vector<PassResult> dump;
    for (const Topology& t : topologies) dump.push_back(t.pass);
    dump_check(opt.check_path, dump);
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\n  \"bench\": \"serve_load\", \"mode\": \"procs\", \"requests\": "
        << stream.size() << ", \"cells\": " << total_cells
        << ", \"host_cpus\": " << std::thread::hardware_concurrency()
        << ", \"byte_identical\": " << (identical ? "true" : "false")
        << ",\n";
    write_pass_json(out, "reference", reference);
    out << ",\n  \"topologies\": [";
    for (size_t i = 0; i < topologies.size(); ++i) {
      const Topology& t = topologies[i];
      out << (i == 0 ? "" : ", ") << "{\"procs\": " << t.procs
          << ", \"seconds\": " << t.pass.seconds
          << ", \"p50_ms\": " << t.pass.p50_ms
          << ", \"p99_ms\": " << t.pass.p99_ms
          << ", \"cells_per_sec\": " << t.pass.cells_per_sec << "}";
    }
    out << "]\n}\n";
    std::printf("bench JSON written to %s\n", opt.json_path.c_str());
  }
  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--requests") opt.requests = std::strtoul(value(), nullptr, 10);
    else if (arg == "--workers") opt.workers = static_cast<unsigned>(std::strtoul(value(), nullptr, 10));
    else if (arg == "--store") opt.store_dir = value();
    else if (arg == "--json") opt.json_path = value();
    else if (arg == "--check") opt.check_path = value();
    else if (arg == "--check-pass") opt.check_pass = value();
    else if (arg == "--connect") opt.connect_path = value();
    else if (arg == "--procs") {
      std::string list = value();
      size_t pos = 0;
      while (pos < list.size()) {
        const size_t comma = list.find(',', pos);
        const std::string tok = list.substr(pos, comma == std::string::npos
                                                     ? std::string::npos
                                                     : comma - pos);
        const long n = std::strtol(tok.c_str(), nullptr, 10);
        if (n < 1 || n > 64) {
          std::fprintf(stderr, "--procs entries must be in [1, 64]\n");
          return 2;
        }
        opt.procs.push_back(static_cast<int>(n));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
    else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (opt.check_pass != "cold" && opt.check_pass != "warm" &&
      opt.check_pass != "both") {
    std::fprintf(stderr, "--check-pass must be cold|warm|both\n");
    return 2;
  }

  if (!opt.procs.empty()) return run_procs_mode(opt);

  const std::vector<StreamEntry> stream = build_stream(opt.requests);
  size_t total_cells = 0;
  for (const StreamEntry& e : stream) total_cells += e.cells;

  PassResult cold;
  PassResult warm;
  StoreCounters before_warm;
  StoreCounters after_warm;

  if (!opt.connect_path.empty()) {
    dim::serve::UnixSocketClient client;
    std::string error;
    if (!client.connect(opt.connect_path, &error)) {
      std::fprintf(stderr, "bench_serve_load: %s\n", error.c_str());
      return 1;
    }
    cold = run_pass_socket(client, stream);
    before_warm = query_stats_socket(client);
    warm = run_pass_socket(client, stream);
    after_warm = query_stats_socket(client);
  } else {
    const TempDir temp(opt.store_dir.empty() ? "store" : "");
    dim::serve::ServerOptions server_opt;
    server_opt.worker_threads = opt.workers;
    server_opt.store_dir = opt.store_dir.empty() ? temp.path : opt.store_dir;
    dim::serve::Server server(server_opt);
    cold = run_pass_inprocess(server, stream);
    before_warm = query_stats_inprocess(server);
    warm = run_pass_inprocess(server, stream);
    after_warm = query_stats_inprocess(server);
    server.shutdown();
  }

  // The warm pass must be served from the resident store: no cell was
  // recomputed (zero misses) and nothing new was written (zero stores).
  if (before_warm.present &&
      (after_warm.misses != before_warm.misses ||
       after_warm.stores != before_warm.stores)) {
    std::fprintf(stderr,
                 "WARM PASS RE-SIMULATED: misses %llu -> %llu, stores %llu -> %llu\n",
                 static_cast<unsigned long long>(before_warm.misses),
                 static_cast<unsigned long long>(after_warm.misses),
                 static_cast<unsigned long long>(before_warm.stores),
                 static_cast<unsigned long long>(after_warm.stores));
    return 1;
  }

  if (!opt.check_path.empty()) {
    std::vector<PassResult> dump;
    if (opt.check_pass != "warm") dump.push_back(cold);
    if (opt.check_pass != "cold") dump.push_back(warm);
    dump_check(opt.check_path, dump);
  }

  std::printf("serve load: %zu requests (%zu cells), workers=%u\n",
              stream.size(), total_cells, opt.workers);
  std::printf("  cold: %.2fs  p50 %.2fms  p99 %.2fms  %.1f cells/s\n",
              cold.seconds, cold.p50_ms, cold.p99_ms, cold.cells_per_sec);
  std::printf("  warm: %.2fs  p50 %.2fms  p99 %.2fms  %.1f cells/s\n",
              warm.seconds, warm.p50_ms, warm.p99_ms, warm.cells_per_sec);

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << "{\n  \"bench\": \"serve_load\", \"requests\": " << stream.size()
        << ", \"cells\": " << total_cells << ", \"workers\": " << opt.workers
        << ",\n";
    write_pass_json(out, "cold", cold);
    out << ",\n";
    write_pass_json(out, "warm", warm);
    out << ",\n  \"warm_store_misses_delta\": "
        << (after_warm.misses - before_warm.misses)
        << ", \"warm_store_stores_delta\": "
        << (after_warm.stores - before_warm.stores) << "\n}\n";
    std::printf("bench JSON written to %s\n", opt.json_path.c_str());
  }
  return 0;
}
