#include "serve/server.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <sstream>

#include "accel/stats_io.hpp"
#include "accel/system.hpp"
#include "asm/assembler.hpp"
#include "fuzz/campaign.hpp"
#include "serve/batcher.hpp"
#include "snap/codec.hpp"
#include "snap/io.hpp"
#include "snap/snapshot.hpp"
#include "snap/warmstart.hpp"
#include "work/workload.hpp"

namespace dim::serve {
namespace {

std::string hex16(uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[v & 0xf];
    v >>= 4;
  }
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : SessionHost(options.queue_capacity, /*pool_workers=*/0), options_(options) {
  if (options_.checkpoint_interval == 0) options_.checkpoint_interval = 1u << 20;
  if (!options_.store_dir.empty()) {
    result_store_ = std::make_unique<snap::ResultStore>(options_.store_dir + "/cells");
    store_ = result_store_.get();
    std::filesystem::create_directories(options_.store_dir + "/warm");
  }
  if (options_.auto_dispatch) start();
}

Server::~Server() { shutdown(); }

void Server::execute(std::vector<Job> jobs) {
  process_batch(jobs, MigrationHooks{},
                [](const Job& job, std::string line) { finish(job, std::move(line)); });
}

std::string Server::run(const Request& request, const MigrationHooks& hooks) {
  std::vector<Job> jobs(1);
  jobs[0].request = request;
  std::string response;
  process_batch(jobs, hooks,
                [&response](const Job&, std::string line) { response = std::move(line); });
  return response;
}

Server::ProgramEntry* Server::resolve_program(const Job& job, const Respond& respond) {
  const Request& request = job.request;
  const std::string key =
      request.workload.empty()
          ? "src:" + std::to_string(std::hash<std::string>{}(request.source))
          : "wl:" + request.workload + ":" + std::to_string(request.scale);
  auto it = programs_.find(key);
  if (it != programs_.end()) return &it->second;
  std::ostringstream out;
  try {
    ProgramEntry entry;
    if (!request.workload.empty()) {
      entry.program =
          asmblr::assemble(work::make_workload(request.workload, request.scale).source);
    } else {
      entry.program = asmblr::assemble(request.source);
    }
    return &programs_.emplace(key, std::move(entry)).first->second;
  } catch (const std::invalid_argument& e) {
    write_error_response(out, request.id, kErrUnknownWorkload, e.what());
  } catch (const std::exception& e) {
    write_error_response(out, request.id, kErrBadRequest,
                         std::string("assembly failed: ") + e.what());
  }
  respond(job, out.str());
  return nullptr;
}

void Server::process_batch(const std::vector<Job>& jobs, const MigrationHooks& hooks,
                           const Respond& respond) {
  // Partition: grid work (sweeps + unbudgeted cold runs) shares one
  // SweepEngine call; budgeted/warm runs and fuzz campaigns execute
  // directly. Unresolvable requests answer here and drop out.
  struct GridItem {
    const Job* job;
    BatchSlice slice;
  };
  std::vector<accel::SweepPoint> grid;
  std::vector<GridItem> grid_items;
  std::vector<const Job*> direct_jobs;
  std::vector<const Job*> fuzz_jobs;

  for (const Job& job : jobs) {
    const Request& req = job.request;
    if (req.kind == RequestKind::kFuzz) {
      fuzz_jobs.push_back(&job);
      continue;
    }
    if (req.kind == RequestKind::kRun && (req.budget > 0 || req.warm)) {
      direct_jobs.push_back(&job);
      continue;
    }
    ProgramEntry* entry = resolve_program(job, respond);
    if (entry == nullptr) continue;
    BatchSlice slice;
    slice.begin = grid.size();
    std::vector<accel::SweepPoint> points = expand_points(req, entry->program);
    for (auto& p : points) grid.push_back(std::move(p));
    slice.end = grid.size();
    grid_items.push_back({&job, slice});
  }

  if (!grid.empty()) {
    accel::SweepOptions opts;
    opts.threads = options_.worker_threads;
    opts.result_cache = result_store_.get();
    std::vector<accel::SweepResult> results;
    bool engine_failed = false;
    std::string engine_error;
    try {
      results = accel::SweepEngine(opts).run(grid);
    } catch (const std::exception& e) {
      engine_failed = true;
      engine_error = e.what();
    }
    bump(&ServeCounters::batches);
    bump(&ServeCounters::batched_cells, grid.size());
    for (const GridItem& gi : grid_items) {
      const Request& req = gi.job->request;
      std::ostringstream out;
      if (engine_failed) {
        write_error_response(out, req.id, kErrInternal, engine_error);
      } else if (req.kind == RequestKind::kRun) {
        const accel::SweepResult& r = results[gi.slice.begin];
        RunResponse resp;
        resp.accelerated = r.accelerated;
        resp.has_baseline = r.has_baseline;
        resp.baseline = r.baseline;
        resp.transparent = r.transparent;
        resp.halted = !r.accelerated.hit_limit;
        write_run_response(out, req.id, resp);
      } else {
        write_sweep_response(out, req.id, split_slice(results, gi.slice));
      }
      respond(*gi.job, out.str());
    }
  }

  for (const Job* job : direct_jobs) {
    ProgramEntry* entry = resolve_program(*job, respond);
    if (entry != nullptr) execute_direct(*job, *entry, hooks, respond);
  }
  for (const Job* job : fuzz_jobs) execute_fuzz(*job, respond);
}

std::vector<uint8_t>* Server::warm_lookup(uint64_t program_hash,
                                          uint64_t fingerprint) {
  std::lock_guard<std::mutex> lock(warm_mutex_);
  auto it = warm_pool_.find({program_hash, fingerprint});
  if (it != warm_pool_.end()) return &it->second;
  if (options_.store_dir.empty()) return nullptr;
  // Lazy disk fill: a previous daemon run (or another worker process
  // sharing the directory) may have exported this key.
  const std::string path = options_.store_dir + "/warm/" + hex16(program_hash) +
                           "-" + hex16(fingerprint) + ".warm";
  try {
    std::vector<uint8_t> payload =
        snap::read_artifact_file(path, snap::ArtifactKind::kWarmStart);
    auto [pos, inserted] =
        warm_pool_.emplace(std::make_pair(program_hash, fingerprint),
                           std::move(payload));
    (void)inserted;
    return &pos->second;
  } catch (const snap::SnapshotError&) {
    return nullptr;  // absent or unreadable: treated as a cold start
  }
}

void Server::warm_insert(uint64_t program_hash, uint64_t fingerprint,
                         std::vector<uint8_t> payload) {
  size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(warm_mutex_);
    auto [it, inserted] = warm_pool_.emplace(
        std::make_pair(program_hash, fingerprint), std::move(payload));
    if (!inserted) return;  // identical bytes are already resident
    entries = warm_pool_.size();
    if (!options_.store_dir.empty()) {
      const std::string path = options_.store_dir + "/warm/" +
                               hex16(program_hash) + "-" + hex16(fingerprint) +
                               ".warm";
      try {
        snap::write_artifact_file(path, snap::ArtifactKind::kWarmStart, it->second);
      } catch (const snap::SnapshotError&) {
        // Persistence is an optimization; the in-memory pool still serves.
      }
    }
  }
  std::lock_guard<std::mutex> lock(counters_mutex_);
  ++counters_.warm_exports;
  counters_.warm_entries = entries;
}

void Server::execute_direct(const Job& job, ProgramEntry& entry,
                            const MigrationHooks& hooks, const Respond& respond) {
  const Request& req = job.request;
  bump(&ServeCounters::direct_runs);
  accel::SystemConfig config =
      config_for(req.shape, req.slots, req.speculation);
  const uint64_t phash = snap::program_hash(entry.program);
  const uint64_t fingerprint = snap::system_fingerprint(config);

  accel::AcceleratedSystem system(entry.program, config);
  RunResponse resp;
  resp.budget = req.budget;
  if (req.warm) {
    if (const std::vector<uint8_t>* payload = warm_lookup(phash, fingerprint)) {
      try {
        resp.warm_preloaded =
            snap::load_warm_start_payload(system, *payload, entry.program);
        bump(&ServeCounters::warm_preloads);
      } catch (const snap::SnapshotError&) {
        resp.warm_preloaded = 0;  // stale/mismatched entry: run cold
      }
    }
  }

  // Migration resume (worker processes): restore a prior checkpoint's
  // snapshot AFTER the warm preload — the preload already set
  // `warm_preloaded` exactly as the uncrashed run did, and the restore
  // then replaces simulator state wholesale, so the finished response is
  // byte-identical to a run that never migrated. A payload that fails to
  // restore (foreign program/config) is discarded: cold restart, same
  // bytes, just more work.
  if (hooks.resume) {
    const std::vector<uint8_t> payload = hooks.resume(req);
    if (!payload.empty()) {
      try {
        snap::restore_snapshot_payload(system, payload, entry.program);
      } catch (const snap::SnapshotError&) {
      }
    }
  }

  // Budgeted execution: run_until checkpoint chunks bound how long a
  // cancellation can go unnoticed. Shutdown deliberately does NOT stop
  // the loop: admitted work drains to a complete response (the drain
  // promise), and a partial run would be nondeterministic anyway. Only an
  // explicit cancel cuts a run short. hit_limit from the machine's own
  // cap is surfaced unchanged; hit_budget is ours.
  const uint64_t budget =
      req.budget > 0 ? req.budget : std::numeric_limits<uint64_t>::max();
  accel::AccelStats stats;
  bool canceled = false;
  for (;;) {
    if (take_cancel(job)) {
      canceled = true;
      break;
    }
    const uint64_t done = system.stats().instructions;
    if (done >= budget) break;
    const uint64_t boundary =
        std::min(budget, done + options_.checkpoint_interval);
    stats = system.run_until(boundary);
    if (stats.final_state.halted || stats.hit_limit) break;
    if (stats.instructions == done) break;  // no forward progress: stop
    if (hooks.checkpoint && stats.instructions < budget) {
      hooks.checkpoint(req, snap::encode_snapshot(system, entry.program));
    }
  }
  if (canceled) {
    std::ostringstream out;
    write_error_response(out, req.id, kErrCanceled, "canceled at a checkpoint");
    bump(&ServeCounters::canceled);
    respond(job, out.str());
    return;
  }
  stats = system.stats();
  resp.accelerated = stats;
  resp.halted = stats.final_state.halted;
  resp.hit_budget = !resp.halted && req.budget > 0 &&
                    stats.instructions >= req.budget && !stats.hit_limit;

  if (req.want_baseline) {
    if (req.budget > 0) {
      // Budgeted baseline: same instruction allowance on the plain core.
      sim::MachineConfig machine = config.machine;
      machine.max_instructions = std::min(machine.max_instructions, req.budget);
      resp.baseline = accel::baseline_as_stats(entry.program, machine);
    } else {
      if (!entry.has_baseline) {
        entry.baseline = accel::baseline_as_stats(entry.program, config.machine);
        entry.has_baseline = true;
      }
      resp.baseline = entry.baseline;
    }
    resp.has_baseline = true;
    // Transparency is only a meaningful verdict when both sides finished.
    resp.transparent =
        !resp.halted || !resp.baseline.final_state.halted
            ? resp.halted == resp.baseline.final_state.halted
            : resp.accelerated.final_state.output ==
                      resp.baseline.final_state.output &&
                  resp.accelerated.memory_hash == resp.baseline.memory_hash;
  }

  if (req.warm && resp.halted && resp.warm_preloaded == 0) {
    warm_insert(phash, fingerprint,
                snap::encode_warm_start(system, entry.program));
    resp.warm_exported = true;
  }

  std::ostringstream out;
  write_run_response(out, req.id, resp);
  respond(job, out.str());
}

void Server::execute_fuzz(const Job& job, const Respond& respond) {
  const Request& req = job.request;
  bump(&ServeCounters::fuzz_campaigns);
  fuzz::CampaignOptions opts;
  opts.seed_start = req.seed_start;
  opts.seeds = req.seeds;
  opts.threads = options_.worker_threads;
  opts.matrix = req.matrix == "full" ? fuzz::full_matrix() : fuzz::quick_matrix();
  opts.shrink = false;  // serve reports counts; repro files are the CLI's job
  std::ostringstream out;
  try {
    const fuzz::CampaignResult result = fuzz::run_campaign(opts);
    FuzzResponse resp;
    resp.seeds_run = result.seeds_run;
    resp.divergent = result.divergent_seeds;
    resp.inconclusive = result.inconclusive_seeds;
    write_fuzz_response(out, req.id, resp);
  } catch (const std::exception& e) {
    write_error_response(out, req.id, kErrInternal, e.what());
  }
  respond(job, out.str());
}

}  // namespace dim::serve
