#include "grid/dense_grid.h"

#include <algorithm>
#include <array>

namespace cmvrp {

DenseGrid::DenseGrid(const Box& box) : box_(box) {
  const std::int64_t vol = box.volume();
  CMVRP_CHECK_MSG(vol <= (std::int64_t{1} << 31),
                  "dense grid too large: " << vol << " cells");
  data_.assign(static_cast<std::size_t>(vol), 0.0);
}

DenseGrid DenseGrid::from_demand(const DemandMap& d) {
  return from_demand(d, d.bounding_box());
}

DenseGrid DenseGrid::from_demand(const DemandMap& d, const Box& box) {
  DenseGrid g(box);
  for (const auto& [p, v] : d) {
    CMVRP_CHECK_MSG(box.contains(p), "demand point " << p.to_string()
                                                     << " outside grid box");
    g.add(p, v);
  }
  return g;
}

double DenseGrid::total() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

double DenseGrid::max_value() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, v);
  return m;
}

PrefixSums::PrefixSums(const DenseGrid& grid, PrefixBuild build)
    : box_(grid.box()), sides_(grid.box_.sides()) {
  const int dim = box_.dim();
  // Shape with a zero-border on the low side of each axis.
  std::size_t total = 1;
  for (auto s : sides_) total *= static_cast<std::size_t>(s + 1);
  ps_.assign(total, 0.0);

  // Strides of the padded array.
  std::vector<std::size_t> stride(static_cast<std::size_t>(dim), 1);
  for (int i = dim - 2; i >= 0; --i)
    stride[static_cast<std::size_t>(i)] =
        stride[static_cast<std::size_t>(i + 1)] *
        static_cast<std::size_t>(sides_[static_cast<std::size_t>(i + 1)] + 1);

  if (build == PrefixBuild::kReference) {
    // Copy values into the padded array (offset +1 per axis).
    box_.for_each_point([&](const Point& p) {
      std::size_t idx = 0;
      for (int i = 0; i < dim; ++i)
        idx += static_cast<std::size_t>(p[i] - box_.lo()[i] + 1) *
               stride[static_cast<std::size_t>(i)];
      ps_[idx] = grid.at(p);
    });

    // Accumulate along each axis in turn: iterate over all positions where
    // the axis coordinate is >= 1 and add the value at coordinate-1. Walk
    // the flat array; an index's coordinate along `axis` is (idx/st) % len.
    for (int axis = 0; axis < dim; ++axis) {
      const std::size_t st = stride[static_cast<std::size_t>(axis)];
      const auto len = static_cast<std::size_t>(
          sides_[static_cast<std::size_t>(axis)] + 1);
      for (std::size_t idx = 0; idx < ps_.size(); ++idx) {
        const std::size_t coord = (idx / st) % len;
        if (coord >= 1) ps_[idx] += ps_[idx - st];
      }
    }
    return;
  }

  // Blocked build. The grid's innermost axis is contiguous in both the
  // source and the padded array, so the copy moves whole rows; each row's
  // padded base enumerates the outer coordinates with an odometer, +1 per
  // axis for the zero border.
  const auto last_side =
      static_cast<std::size_t>(sides_[static_cast<std::size_t>(dim - 1)]);
  std::size_t rows = 1;
  for (int i = 0; i < dim - 1; ++i)
    rows *= static_cast<std::size_t>(sides_[static_cast<std::size_t>(i)]);
  std::vector<std::size_t> outer(static_cast<std::size_t>(dim - 1), 0);
  for (std::size_t row = 0; row < rows; ++row) {
    std::size_t base = 1;  // +1 along the innermost axis (stride 1)
    for (int i = 0; i < dim - 1; ++i)
      base += (outer[static_cast<std::size_t>(i)] + 1) *
              stride[static_cast<std::size_t>(i)];
    const double* src = grid.data_.data() + row * last_side;
    std::copy(src, src + last_side, ps_.data() + base);
    for (int i = dim - 2; i >= 0; --i) {
      auto& c = outer[static_cast<std::size_t>(i)];
      if (++c < static_cast<std::size_t>(sides_[static_cast<std::size_t>(i)]))
        break;
      c = 0;
    }
  }

  // Accumulate per axis over [outer][len][inner] runs: each j-slab adds
  // the (j-1)-slab elementwise across `st` contiguous doubles. Per-chain
  // addition order matches the reference walk exactly, so results are
  // bit-identical; the inner loops are plain strided adds the compiler
  // vectorizes, with no per-element division.
  for (int axis = 0; axis < dim; ++axis) {
    const std::size_t st = stride[static_cast<std::size_t>(axis)];
    const auto len = static_cast<std::size_t>(
        sides_[static_cast<std::size_t>(axis)] + 1);
    const std::size_t span = st * len;
    for (std::size_t base = 0; base < ps_.size(); base += span) {
      for (std::size_t j = 1; j < len; ++j) {
        double* cur = ps_.data() + base + j * st;
        const double* prev = cur - st;
        for (std::size_t i = 0; i < st; ++i) cur[i] += prev[i];
      }
    }
  }
}

double PrefixSums::prefix_at(const std::vector<std::int64_t>& idx) const {
  // idx[i] in [0, side_i]; returns sum over the first idx[i] cells per axis.
  const int dim = box_.dim();
  std::size_t flat = 0;
  for (int i = 0; i < dim; ++i) {
    flat = flat * static_cast<std::size_t>(sides_[static_cast<std::size_t>(i)] + 1) +
           static_cast<std::size_t>(idx[static_cast<std::size_t>(i)]);
  }
  return ps_[flat];
}

double PrefixSums::box_sum(const Box& query) const {
  CMVRP_CHECK(query.dim() == box_.dim());
  const int dim = box_.dim();
  // Clip to the grid box; empty intersection sums to zero.
  std::vector<std::int64_t> lo(static_cast<std::size_t>(dim)),
      hi(static_cast<std::size_t>(dim));
  for (int i = 0; i < dim; ++i) {
    lo[static_cast<std::size_t>(i)] =
        std::max(query.lo()[i], box_.lo()[i]) - box_.lo()[i];
    hi[static_cast<std::size_t>(i)] =
        std::min(query.hi()[i], box_.hi()[i]) - box_.lo()[i];
    if (lo[static_cast<std::size_t>(i)] > hi[static_cast<std::size_t>(i)])
      return 0.0;
  }
  // Inclusion–exclusion over the 2^dim corners.
  double sum = 0.0;
  std::vector<std::int64_t> corner(static_cast<std::size_t>(dim));
  for (unsigned mask = 0; mask < (1u << dim); ++mask) {
    int sign = 1;
    for (int i = 0; i < dim; ++i) {
      if (mask & (1u << i)) {
        corner[static_cast<std::size_t>(i)] = lo[static_cast<std::size_t>(i)];
        sign = -sign;
      } else {
        corner[static_cast<std::size_t>(i)] =
            hi[static_cast<std::size_t>(i)] + 1;
      }
    }
    sum += sign * prefix_at(corner);
  }
  return sum;
}

double PrefixSums::max_cube_sum(std::int64_t side) const {
  CMVRP_CHECK(side >= 1);
  const int dim = box_.dim();
  const auto d = static_cast<std::size_t>(dim);
  // Per axis: the clipped window extent e_i = min(side, n_i), the number
  // of window bases n_i - e_i + 1 (1 when the cube overhangs the box, the
  // single clipped window covering the axis), and the padded-table stride.
  std::array<std::size_t, Point::kMaxDim> ext{}, count{}, stride{};
  std::size_t st = 1;
  for (std::size_t i = d; i-- > 0;) {
    const auto n = static_cast<std::size_t>(sides_[i]);
    ext[i] = std::min(static_cast<std::size_t>(side), n);
    count[i] = n - ext[i] + 1;
    stride[i] = st;
    st *= n + 1;
  }
  // The window based at padded coordinates b sums the 2^ℓ corners
  // b + (mask bit i ? 0 : e_i) with sign (-1)^popcount(mask) — box_sum's
  // inclusion–exclusion, so each corner is a fixed offset from the base.
  const unsigned corners = 1u << dim;
  std::array<std::size_t, std::size_t{1} << Point::kMaxDim> offset{};
  std::array<double, std::size_t{1} << Point::kMaxDim> sign{};
  for (unsigned mask = 0; mask < corners; ++mask) {
    std::size_t off = 0;
    int sg = 1;
    for (std::size_t i = 0; i < d; ++i) {
      if (mask & (1u << i)) {
        sg = -sg;
      } else {
        off += ext[i] * stride[i];
      }
    }
    offset[mask] = off;
    sign[mask] = sg;
  }

  // Walk the bases with the innermost axis contiguous (stride 1); an
  // odometer over the outer axes moves the row start. Each window sums
  // its corners in box_sum's mask order from 0.0, so every window sum,
  // and hence the maximum, is bit-identical to max over box_sum.
  const double* ps = ps_.data();
  const std::size_t inner = count[d - 1];
  std::array<std::size_t, Point::kMaxDim> b{};
  std::size_t row = 0;
  double best = 0.0;
  for (;;) {
    const double* base = ps + row;
    for (std::size_t j = 0; j < inner; ++j) {
      double sum = 0.0;
      for (unsigned mask = 0; mask < corners; ++mask)
        sum += sign[mask] * base[offset[mask] + j];
      best = std::max(best, sum);
    }
    std::size_t axis = d - 1;
    while (axis-- > 0) {
      if (++b[axis] < count[axis]) {
        row += stride[axis];
        break;
      }
      row -= (count[axis] - 1) * stride[axis];
      b[axis] = 0;
    }
    if (axis == static_cast<std::size_t>(-1)) break;
  }
  return best;
}

}  // namespace cmvrp
