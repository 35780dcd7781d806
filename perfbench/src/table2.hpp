// The paper's Table 2 grid as the benchmark sees it: the cells of one
// kernel (3 shapes x {16, 64, 256} slots x spec on/off, plus the two ideal
// points), their paper values, and the recorded AccelStats digests that
// gate every simulated grid point.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "accel/stats.hpp"
#include "accel/system.hpp"
#include "asm/program.hpp"

namespace pb {

// The seven kernels that rebuild configurations constantly (hundreds to
// thousands of rcache flushes per run) and the eleven that translate a
// handful of times. Together: the 18 rows of Table 2.
const std::vector<std::string>& churn_kernels();
const std::vector<std::string>& steady_kernels();

struct Cell {
  std::string kernel;
  int shape = 0;  // 0..2 = Table 1 configurations #1..#3, 3 = ideal
  bool spec = false;
  size_t slots = 0;  // 16 / 64 / 256 (ideal: unbounded)

  std::string label() const;  // "susan_s/C2/sp/64", "susan_s/ideal/ns"
  double paper() const;       // the paper's Table 2 speedup for this cell
  dim::accel::SystemConfig config() const;
};

// The cells of one kernel, in bench_table2_speedup's order.
constexpr size_t kCellsPerKernel = 20;
std::vector<Cell> kernel_cells(const std::string& kernel);

// A kernel ready to simulate: assembled, with its plain-MIPS baseline.
struct Kernel {
  std::string name;
  std::string source;
  std::string expected_output;
  dim::asmblr::Program program;
  dim::accel::AccelStats baseline;
};
Kernel prepare_kernel(const std::string& name);

// FNV-1a of the accel::write_json_fields serialization of `stats`.
std::string stats_digest(const dim::accel::AccelStats& stats);

// The recorded digests, relative to the checkout root.
inline constexpr const char* kDigestsPath = "perfbench/grid_digests.txt";

// label -> digest, from the recorded file ("<label> <digest>" per line).
// Throws std::runtime_error when the file is missing or malformed.
std::map<std::string, std::string> load_digests(const std::string& path = kDigestsPath);

}  // namespace pb
