#pragma once
// The per-layer ledger of a traced run. Every metric is timed from outside,
// around calls into one layer's public functions, on the inputs of the
// workload where that layer should move an end-to-end number (its "home",
// listed in perfbench/README.md). It also explains serve_steady's RTT p50 as
// a sum of layer costs plus an unexplained residual.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace pb {

/// Runs short serve_steady (traced) and serve_saturate passes plus the
/// layer micro-measurements. Returns the per-layer metrics in print order;
/// appends the budget table and the batch-1 breakdown to `report`.
Metrics run_ledger(std::uint64_t seed, const std::string& workdir, Verdict& verdict,
                   std::vector<std::string>& report);

}  // namespace pb
