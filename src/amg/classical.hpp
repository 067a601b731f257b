#pragma once
// Internal piece of classical Ruge-Stüben coarsening: the greedy C/F
// split, defined in dist_amg.cpp. The distributed setup runs it on each
// rank's owned subgraph (hypre-style per-processor coarsening); the serial
// hierarchy in tests/oracles/ runs it on the whole matrix, so at P = 1
// both hierarchies coincide exactly.

#include <cstdint>
#include <vector>

namespace alps::amg::detail {

enum class CF : std::int8_t { kUndecided, kCoarse, kFine };

/// Ruge-Stüben first-pass greedy C/F splitting over the strength graph
/// `strong` (strong[i] = nodes i strongly depends on), followed by a
/// second pass promoting F points without a strong C neighbor.
std::vector<CF> split_cf(const std::vector<std::vector<std::int64_t>>& strong);

}  // namespace alps::amg::detail
