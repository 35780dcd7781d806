#include "table2.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "accel/stats_io.hpp"
#include "asm/assembler.hpp"
#include "bench/paper_reference.hpp"
#include "common.hpp"
#include "rra/array_shape.hpp"
#include "work/workload.hpp"

namespace pb {

// Heaviest kernel first (host time at C#2/64 on the build host), so the
// SweepEngine's in-order work stealing ends a pass on short points instead
// of waiting on the last long ones.
const std::vector<std::string>& churn_kernels() {
  static const std::vector<std::string> k = {"rawaudio_e", "susan_c",  "susan_s", "rawaudio_d",
                                             "quicksort",  "dijkstra", "susan_e"};
  return k;
}

const std::vector<std::string>& steady_kernels() {
  static const std::vector<std::string> k = {"stringsearch", "bitcount", "patricia", "jpeg_e",
                                             "jpeg_d",       "sha",      "gsm_e",    "gsm_d",
                                             "rijndael_d",   "rijndael_e", "crc32"};
  return k;
}

namespace {
constexpr size_t kSlots[3] = {16, 64, 256};
}  // namespace

std::string Cell::label() const {
  if (shape == 3) return kernel + (spec ? "/ideal/sp" : "/ideal/ns");
  return kernel + "/C" + std::to_string(shape + 1) + (spec ? "/sp/" : "/ns/") +
         std::to_string(slots);
}

double Cell::paper() const {
  const dim::bench::PaperTable2Row& row = dim::bench::paper_table2().at(kernel);
  if (shape == 3) return spec ? row.ideal_spec : row.ideal_nospec;
  int s = 0;
  while (kSlots[s] != slots) ++s;
  return row.s[shape][spec ? 1 : 0][s];
}

dim::accel::SystemConfig Cell::config() const {
  const dim::rra::ArrayShape shapes[4] = {
      dim::rra::ArrayShape::config1(), dim::rra::ArrayShape::config2(),
      dim::rra::ArrayShape::config3(), dim::rra::ArrayShape::ideal()};
  return dim::accel::SystemConfig::with(shapes[shape], slots, spec);
}

std::vector<Cell> kernel_cells(const std::string& kernel) {
  std::vector<Cell> cells;
  for (int c = 0; c < 3; ++c) {
    for (int spec = 0; spec < 2; ++spec) {
      for (size_t slots : kSlots) cells.push_back({kernel, c, spec == 1, slots});
    }
  }
  for (int spec = 0; spec < 2; ++spec) cells.push_back({kernel, 3, spec == 1, size_t{1} << 20});
  return cells;
}

Kernel prepare_kernel(const std::string& name) {
  Kernel k;
  k.name = name;
  dim::work::Workload w = dim::work::make_workload(name, 1);
  k.source = std::move(w.source);
  k.expected_output = std::move(w.expected_output);
  k.program = dim::asmblr::assemble(k.source);
  k.baseline = dim::accel::baseline_as_stats(k.program, dim::sim::MachineConfig{});
  return k;
}

std::string stats_digest(const dim::accel::AccelStats& stats) {
  std::ostringstream out;
  dim::accel::write_json_fields(out, stats, "");
  return hex64(fnv1a(out.str()));
}

std::map<std::string, std::string> load_digests(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read grid digests " + path);
  std::map<std::string, std::string> digests;
  std::string label;
  std::string digest;
  while (in >> label >> digest) digests[label] = digest;
  if (digests.empty()) throw std::runtime_error("no grid digests in " + path);
  return digests;
}

}  // namespace pb
