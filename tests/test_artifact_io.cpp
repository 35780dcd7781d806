// Cross-process atomicity of snap::write_artifact_file.
//
// The writer publishes via temp-file + rename. The regression this pins:
// the temp name used to be derived from a per-process atomic counter
// alone, so two PROCESSES writing the same target path would both open
// "<path>.tmp.0" and interleave their bytes — the rename then published a
// torn artifact that fails CRC validation. The temp name now includes the
// pid, making it unique across processes; under a two-writer stress the
// published file must always validate as exactly one writer's payload.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "snap/format.hpp"
#include "snap/io.hpp"
#include "temp_dir.hpp"

namespace dim::snap {
namespace {

namespace fs = std::filesystem;

std::vector<uint8_t> payload_of(uint8_t fill, size_t size) {
  return std::vector<uint8_t>(size, fill);
}

TEST(ArtifactIoRace, TwoProcessesWritingSamePathNeverPublishTornFile) {
  const std::string dir = test::make_temp_dir("artifact-race");
  const std::string path = dir + "/contended.cell";
  // Big enough that an interleaved write would need several stream flushes,
  // small enough to keep the stress fast.
  const auto parent_payload = payload_of(0xAB, 64 * 1024);
  const auto child_payload = payload_of(0xCD, 64 * 1024);
  constexpr int kRounds = 40;

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: hammer the path. _exit (not exit) so gtest state in the
    // forked copy is never touched.
    for (int i = 0; i < kRounds; ++i) {
      try {
        write_artifact_file(path, ArtifactKind::kSnapshot, child_payload);
      } catch (...) {
        _exit(1);
      }
    }
    _exit(0);
  }

  for (int i = 0; i < kRounds; ++i) {
    ASSERT_NO_THROW(
        write_artifact_file(path, ArtifactKind::kSnapshot, parent_payload));
    // Concurrent validation: whatever is published mid-stress must be one
    // complete artifact (CRC-validated), never a byte interleaving.
    const std::vector<uint8_t> seen =
        read_artifact_file(path, ArtifactKind::kSnapshot);
    ASSERT_TRUE(seen == parent_payload || seen == child_payload)
        << "round " << i << ": published artifact is neither writer's payload";
  }

  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "child writer failed";

  // Final state: one of the two payloads, and no leaked temp files.
  const std::vector<uint8_t> last =
      read_artifact_file(path, ArtifactKind::kSnapshot);
  EXPECT_TRUE(last == parent_payload || last == child_payload);
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << "leftover temp file: " << e.path();
  }
  fs::remove_all(dir);
}

TEST(ArtifactIoRace, TempNamesAreUniquePerProcessAndSequence) {
  // Two back-to-back writes from one process must not collide either (the
  // per-process counter part of the temp name), and each write cleans its
  // temp file up on success.
  const std::string dir = test::make_temp_dir("artifact-seq");
  const std::string path = dir + "/seq.cell";
  write_artifact_file(path, ArtifactKind::kSnapshot, payload_of(0x01, 128));
  write_artifact_file(path, ArtifactKind::kSnapshot, payload_of(0x02, 128));
  EXPECT_EQ(read_artifact_file(path, ArtifactKind::kSnapshot),
            payload_of(0x02, 128));
  size_t entries = 0;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 1u) << "temp files left behind";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dim::snap
