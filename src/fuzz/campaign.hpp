// Fuzz campaigns: N seeds through one per-seed oracle, over a pool of
// worker threads.
//
// Each seed's program is checked on its own (check_program for
// transparency, check_dispatch_program for fast-vs-slow dispatch), which
// stops at the first diverging matrix point. The verdicts land in per-seed
// slots; a serial tail then walks them in seed order — counts divergent
// and inconclusive seeds, keeps the first failures with full detail and
// delta-debugs them against the diverging point. The tail is a pure
// function of the ordered verdicts, so a campaign's outcome — including
// its JSON document — is byte-identical for any worker-thread count.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/shrink.hpp"

namespace dim::fuzz {

struct CampaignOptions {
  uint64_t seed_start = 0;
  int seeds = 100;
  unsigned threads = 0;             // 0 = hardware concurrency
  std::vector<MatrixPoint> matrix;  // empty = full_matrix()
  GenOptions gen;
  OracleOptions oracle;             // fault injection + run limits
  bool shrink = true;
  int max_shrinks = 1;              // failures minimized (in seed order)
  int max_reported_failures = 10;   // failures kept with full detail
};

struct CampaignFailure {
  uint64_t seed = 0;
  Divergence divergence;       // first divergence, with event context
  FuzzProgram program;         // as generated
  bool shrunk = false;
  FuzzProgram shrunk_program;  // == program when !shrunk
  ShrinkStats shrink_stats;
};

struct CampaignResult {
  uint64_t seed_start = 0;
  int seeds_run = 0;
  int divergent_seeds = 0;      // total count (not capped)
  int inconclusive_seeds = 0;   // assembly failure / both sides hit limit
  std::vector<CampaignFailure> failures;  // first max_reported_failures, by seed

  bool clean() const { return divergent_seeds == 0; }
};

// The per-seed verdict a campaign runs: check_program (accelerated vs
// baseline transparency) or check_dispatch_program (trace dispatch on vs
// off, the merge gate for superblock trace-engine changes).
using ProgramCheck = OracleResult (*)(const std::string& source,
                                      const std::vector<MatrixPoint>& matrix,
                                      const OracleOptions& options);

// Runs `check` on every seed's program over the matrix. Shrinking
// minimizes against the diverging matrix point alone (for a dispatch
// failure on the plain Machine, against the machine comparison alone).
// An exception from a check is rethrown after all workers joined — the
// one from the lowest seed when several throw.
CampaignResult run_campaign(const CampaignOptions& options,
                            ProgramCheck check = check_program);

// One JSON document; deterministic for a fixed CampaignResult (and the
// result is thread-count-invariant, so so is the document).
void write_campaign_json(std::ostream& out, const CampaignResult& result);

// Self-contained reproducer: '#'-commented header (seed, matrix point,
// divergence, fault, recent events, replay command) followed by the
// shrunk program — the whole file assembles as-is and can be replayed with
// dimsim-fuzz --replay. `check` is the oracle the campaign ran; the replay
// command selects the same one (--cmp-dispatch for check_dispatch_program).
void write_repro_file(std::ostream& out, const CampaignFailure& failure,
                      const OracleOptions& oracle, ProgramCheck check = check_program);

const char* fault_injection_name(bt::FaultInjection fault);

}  // namespace dim::fuzz
