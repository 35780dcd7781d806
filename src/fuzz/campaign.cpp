#include "fuzz/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "accel/stats_io.hpp"

namespace dim::fuzz {

const char* fault_injection_name(bt::FaultInjection fault) {
  switch (fault) {
    case bt::FaultInjection::kNone: return "none";
    case bt::FaultInjection::kAddiuImmOffByOne: return "addiu-imm";
    case bt::FaultInjection::kSubuSwapOperands: return "subu-swap";
  }
  return "unknown";
}

CampaignResult run_campaign(const CampaignOptions& options, ProgramCheck check) {
  const std::vector<MatrixPoint> matrix =
      options.matrix.empty() ? full_matrix() : options.matrix;
  const int seeds = options.seeds;

  CampaignResult result;
  result.seed_start = options.seed_start;
  result.seeds_run = seeds;

  std::vector<FuzzProgram> sources(static_cast<size_t>(seeds));
  for (int s = 0; s < seeds; ++s) {
    sources[static_cast<size_t>(s)] =
        generate_program(options.seed_start + static_cast<uint64_t>(s), options.gen);
  }

  // Each seed's verdict is independent and lands in its own slot, so the
  // serial tail below sees identical input for any worker count.
  std::vector<OracleResult> verdicts(static_cast<size_t>(seeds));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(seeds));
  std::atomic<int> next{0};
  unsigned threads =
      options.threads != 0 ? options.threads : std::thread::hardware_concurrency();
  threads = std::max(1u, std::min(threads, static_cast<unsigned>(std::max(seeds, 1))));
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (int s; (s = next.fetch_add(1)) < seeds;) {
          try {
            verdicts[static_cast<size_t>(s)] =
                check(sources[static_cast<size_t>(s)].render(), matrix, options.oracle);
          } catch (...) {
            errors[static_cast<size_t>(s)] = std::current_exception();
          }
        }
      });
    }
    for (std::thread& t : pool) t.join();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }

  int shrinks_done = 0;
  for (int s = 0; s < seeds; ++s) {
    const OracleResult& verdict = verdicts[static_cast<size_t>(s)];
    if (verdict.inconclusive) {
      ++result.inconclusive_seeds;
      continue;
    }
    if (!verdict.divergence.found) continue;
    ++result.divergent_seeds;
    if (static_cast<int>(result.failures.size()) >= options.max_reported_failures) {
      continue;
    }

    CampaignFailure failure;
    failure.seed = options.seed_start + static_cast<uint64_t>(s);
    failure.program = sources[static_cast<size_t>(s)];
    failure.shrunk_program = failure.program;
    failure.divergence = verdict.divergence;

    if (options.shrink && shrinks_done < options.max_shrinks) {
      // Minimize against the diverging matrix point only — cheaper per
      // candidate, and the failure is preserved by construction. A
      // dispatch failure on the plain Machine ("machine") matches no
      // point and shrinks against the machine comparison alone.
      std::vector<MatrixPoint> failing_point;
      for (const MatrixPoint& m : matrix) {
        if (m.label == verdict.divergence.point_label) failing_point.push_back(m);
      }
      const FailurePredicate still_fails = [&](const FuzzProgram& candidate) {
        return check(candidate.render(), failing_point, options.oracle).divergence.found;
      };
      ShrinkResult shrunk = shrink(failure.program, still_fails);
      failure.shrunk = true;
      failure.shrunk_program = std::move(shrunk.program);
      failure.shrink_stats = shrunk.stats;
      ++shrinks_done;
      // Re-derive the report from the minimized program.
      const OracleResult after =
          check(failure.shrunk_program.render(), failing_point, options.oracle);
      if (after.divergence.found) failure.divergence = after.divergence;
    }
    result.failures.push_back(std::move(failure));
  }
  return result;
}

void write_campaign_json(std::ostream& out, const CampaignResult& result) {
  out << "{\n";
  out << "  \"seed_start\": " << result.seed_start << ",\n";
  out << "  \"seeds_run\": " << result.seeds_run << ",\n";
  out << "  \"divergent_seeds\": " << result.divergent_seeds << ",\n";
  out << "  \"inconclusive_seeds\": " << result.inconclusive_seeds << ",\n";
  out << "  \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    const CampaignFailure& f = result.failures[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\n";
    out << "      \"seed\": " << f.seed << ",\n";
    out << "      \"point\": \"" << accel::json_escape(f.divergence.point_label)
        << "\",\n";
    out << "      \"field\": \"" << divergence_field_name(f.divergence.field)
        << "\",\n";
    out << "      \"detail\": \"" << accel::json_escape(f.divergence.detail) << "\",\n";
    out << "      \"instructions\": " << f.program.instruction_count() << ",\n";
    out << "      \"shrunk\": " << (f.shrunk ? "true" : "false") << ",\n";
    out << "      \"shrunk_instructions\": " << f.shrunk_program.instruction_count()
        << ",\n";
    out << "      \"shrink_candidates_tried\": " << f.shrink_stats.candidates_tried
        << "\n";
    out << "    }";
  }
  out << "\n  ]\n}\n";
}

void write_repro_file(std::ostream& out, const CampaignFailure& failure,
                      const OracleOptions& oracle, ProgramCheck check) {
  out << "# dimsim-fuzz reproducer\n";
  out << "# seed: " << failure.seed << "\n";
  out << "# matrix point: " << failure.divergence.point_label << "\n";
  out << "# divergence: " << divergence_field_name(failure.divergence.field) << " — "
      << failure.divergence.detail << "\n";
  out << "# fault injection: " << fault_injection_name(oracle.fault) << "\n";
  out << "# instructions: " << failure.shrunk_program.instruction_count()
      << (failure.shrunk
              ? " (shrunk from " + std::to_string(failure.program.instruction_count()) +
                    ")"
              : "")
      << "\n";
  if (!failure.divergence.recent_events.empty()) {
    out << "# recent events before divergence:\n";
    for (const obs::Event& e : failure.divergence.recent_events) {
      out << "#   " << obs::format_event(e) << "\n";
    }
  }
  out << "# replay: dimsim-fuzz --replay <this file>";
  if (check == check_dispatch_program) out << " --cmp-dispatch";
  if (oracle.max_instructions != OracleOptions{}.max_instructions) {
    out << " --max-instructions " << oracle.max_instructions;
  }
  if (oracle.fault != bt::FaultInjection::kNone) {
    out << " --inject-fault " << fault_injection_name(oracle.fault);
  }
  out << "\n\n";
  out << failure.shrunk_program.render();
}

}  // namespace dim::fuzz
