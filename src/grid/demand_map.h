// Sparse demand function d : Z^ℓ → R≥0 (§1.3).
//
// Job streams add unit demands; analytic workloads (Fig 2.1) set arbitrary
// non-negative reals. Zero entries are erased so support() is exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "grid/box.h"
#include "grid/point.h"
#include "util/check.h"

namespace cmvrp {

class DemandMap {
 public:
  explicit DemandMap(int dim) : dim_(dim) {
    CMVRP_CHECK(dim >= 1 && dim <= Point::kMaxDim);
  }

  int dim() const { return dim_; }

  double at(const Point& p) const {
    CMVRP_CHECK(p.dim() == dim_);
    auto it = d_.find(p);
    return it == d_.end() ? 0.0 : it->second;
  }

  void set(const Point& p, double value) {
    CMVRP_CHECK(p.dim() == dim_);
    CMVRP_CHECK_MSG(value >= 0.0, "demand must be non-negative");
    if (value == 0.0)
      d_.erase(p);
    else
      d_[p] = value;
  }

  // One hash probe: a positive delta finds-or-inserts (the new entry's
  // 0.0 + delta is what at() + delta gave), anything else only finds, so
  // an entry whose result would be 0 is never inserted and the map's
  // contents and iteration order match at()-then-set() exactly.
  void add(const Point& p, double delta) {
    CMVRP_CHECK(p.dim() == dim_);
    const auto it = delta > 0.0 ? d_.try_emplace(p, 0.0).first : d_.find(p);
    const double v = (it == d_.end() ? 0.0 : it->second) + delta;
    CMVRP_CHECK_MSG(v >= 0.0, "demand made negative at " << p.to_string());
    if (it == d_.end()) return;  // absent and delta == 0: nothing to store
    if (v == 0.0)
      d_.erase(it);
    else
      it->second = v;
  }

  std::size_t support_size() const { return d_.size(); }
  bool empty() const { return d_.empty(); }

  // Points with strictly positive demand, in deterministic (sorted) order.
  std::vector<Point> support() const;

  double total() const;
  double max_demand() const;  // D in §2.3 (0 for an empty map)

  // Sum of demand inside a box.
  double sum_in(const Box& box) const;

  // Smallest box containing the support. Requires a non-empty map.
  Box bounding_box() const;

  // Iteration (unordered; use support() when determinism matters).
  auto begin() const { return d_.begin(); }
  auto end() const { return d_.end(); }

 private:
  int dim_;
  std::unordered_map<Point, double, PointHash> d_;
};

}  // namespace cmvrp
