// Empirical Won: the smallest capacity W for which the Chapter 3 strategy
// serves an entire job stream, found by bisection over fresh simulations.
//
// Theorem 1.4.2 claims Won = Θ(Woff); benches compare this empirical value
// against ω_c (lower bound) and (4·3^ℓ+ℓ)·ω_c (Lemma 3.3.1 upper bound).
//
// Complexity: O(log((hi−lo)/tol)) full simulations (plus the doublings
// needed to find a sufficient hi); each simulation is one pass over the
// job stream with the per-event costs listed in online/simulation.h.
#pragma once

#include <cstdint>
#include <vector>

#include "core/cube_bound.h"
#include "grid/demand_map.h"
#include "online/simulation.h"
#include "workload/generators.h"

namespace cmvrp {

// Builds the strategy's deployment parameters from the stream's demand:
// cube side max(2, ⌈ω_c⌉), anchor at the demand bounding box, and the
// Lemma 3.3.1 capacity (unless overridden afterwards).
OnlineConfig default_online_config(const DemandMap& demand,
                                   std::uint64_t seed = 1);
// The same config from an already computed cube_bound(demand), for
// callers that also need ω_c and would otherwise size the demand twice.
OnlineConfig default_online_config(const DemandMap& demand,
                                   const CubeBound& cb, std::uint64_t seed);

struct CapacitySearchResult {
  double won_empirical = 0.0;   // minimal sufficient W found
  double omega_c = 0.0;         // offline cube lower bound for comparison
  double won_theory = 0.0;      // (4·3^ℓ+ℓ)·ω_c
  OnlineMetrics at_minimum;     // metrics of the run at won_empirical
  std::uint64_t simulations = 0;
};

// Bisects capacity in [lo, hi] (hi defaults to the Lemma 3.3.1 bound,
// doubled until sufficient). Success is re-evaluated with a fresh
// simulation per probe; `tol` is absolute on W.
CapacitySearchResult find_min_online_capacity(const std::vector<Job>& jobs,
                                              int dim,
                                              std::uint64_t seed = 1,
                                              double tol = 0.05);

}  // namespace cmvrp
