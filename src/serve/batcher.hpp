// Expansion of validated serve requests into SweepEngine grids.
//
// All sweep points are mutually independent, so "compatible" batching is
// concatenation: every sweep (and unbudgeted run) request drained from
// the admission queue in one scheduler pass contributes a contiguous
// slice of one combined grid, the shared SweepEngine runs the whole grid
// across its worker pool (memoized by the resident result store), and the
// results are split back per request by slice. Each response depends only
// on its own slice, so batch composition never shows through in response
// bytes.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "accel/sweep.hpp"
#include "accel/system.hpp"
#include "asm/program.hpp"
#include "serve/protocol.hpp"

namespace dim::serve {

// Named array shape of the protocol (config1|config2|config3|ideal).
// Callers validate the name first (parse_request does); an unknown name
// throws std::invalid_argument.
rra::ArrayShape shape_by_name(const std::string& name);

// The system configuration of one run/sweep axis point.
accel::SystemConfig config_for(const std::string& shape, uint64_t slots,
                               bool speculation);

// Expands a run/sweep request into grid points over `program` (not owned;
// must outlive the sweep). A run is a 1-point grid; a sweep is the cross
// product shapes x slots_axis x spec_axis, in that nesting order, with
// labels "<shape>/s<slots>/<sp|ns>". Baselines are worker-run (and thus
// part of the memoized cell) when the request asked for them.
std::vector<accel::SweepPoint> expand_points(const Request& request,
                                             const asmblr::Program& program);

// One request's slice of a combined batch grid.
struct BatchSlice {
  size_t begin = 0;
  size_t end = 0;  // exclusive
};

// Copies the slice back out of the combined results, re-indexed from 0 so
// the response is identical to what a lone (unbatched) sweep would report.
std::vector<accel::SweepResult> split_slice(
    const std::vector<accel::SweepResult>& combined, const BatchSlice& slice);

}  // namespace dim::serve
