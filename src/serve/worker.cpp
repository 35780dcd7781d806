#include "serve/worker.hpp"

#include <filesystem>
#include <sstream>
#include <system_error>
#include <vector>

#include "serve/ipc.hpp"
#include "serve/server.hpp"
#include "snap/format.hpp"
#include "snap/io.hpp"

namespace dim::serve {

int worker_main(int fd, const WorkerOptions& options) {
  ServerOptions server_options;
  server_options.auto_dispatch = false;  // jobs execute on this thread via run()
  server_options.worker_threads = options.engine_threads;
  server_options.store_dir = options.store_dir;
  server_options.checkpoint_interval = options.checkpoint_interval;
  Server server(server_options);

  std::string migrate_dir;
  if (!options.store_dir.empty()) {
    migrate_dir = options.store_dir + "/migrate";
    std::error_code ec;
    std::filesystem::create_directories(migrate_dir, ec);
    if (ec) migrate_dir.clear();  // no checkpoints; crashed jobs restart cold
  }

  std::string payload;
  while (recv_frame(fd, payload)) {
    uint64_t job_id = 0;
    std::string line;
    if (!decode_job_frame(payload, job_id, line)) return 2;

    const std::string snap_path =
        migrate_dir.empty()
            ? std::string()
            : migrate_dir + "/job-" + std::to_string(job_id) + ".snap";
    MigrationHooks hooks;
    if (!snap_path.empty()) {
      hooks.resume = [&snap_path](const Request&) {
        try {
          return snap::read_artifact_file(snap_path,
                                          snap::ArtifactKind::kSnapshot);
        } catch (const snap::SnapshotError&) {
          return std::vector<uint8_t>();  // no checkpoint: cold start
        }
      };
      hooks.checkpoint = [&snap_path](const Request&,
                                      const std::vector<uint8_t>& snapshot) {
        try {
          snap::write_artifact_file(snap_path, snap::ArtifactKind::kSnapshot,
                                    snapshot);
        } catch (const snap::SnapshotError&) {
          // Checkpointing is an optimization; a crash then restarts cold.
        }
      };
    }
    // The supervisor forwards only lines that parsed as queued kinds; the
    // worker re-parses and runs the request straight on the executor.
    const ParseOutcome parsed = parse_request(line);
    std::string response;
    if (parsed.ok) {
      response = server.run(parsed.request, hooks);
    } else {
      std::ostringstream out;
      write_error_response(out, parsed.id, parsed.error, parsed.detail);
      response = out.str();
    }

    // Respond before discarding the checkpoint: dying between the two
    // leaves only a stale file (the supervisor also removes it), never a
    // lost response.
    if (!send_frame(fd, encode_response_frame(job_id, response))) return 0;
    if (!snap_path.empty()) {
      std::error_code ec;
      std::filesystem::remove(snap_path, ec);
    }
  }
  return 0;
}

}  // namespace dim::serve
