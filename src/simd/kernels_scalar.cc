// Portable per-block reducers. This translation unit is compiled with the
// project's baseline flags only (no -mfma), so on x86-64 the compiler has
// no fused multiply-add to contract into and every `acc += x * y` below
// rounds twice, exactly like the per-pair loops in core/similarity.cc —
// which is what the strict-mode bit-identity contract (kernels.h) needs.
// The compiler is free to auto-vectorize these loops: lanes are rows, so
// any lane width produces the same per-row arithmetic. Of the whole-row
// kernels, RelaxRow and RelaxFreeEvents have no multiply at all and the
// Euclidean finisher is EuclideanSimilarity::Compute's own tail.

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"

namespace geacc::simd::internal {
namespace {

void SquaredDistanceBlock(const double* query, const double* block, int dim,
                          double* out8) {
  double acc[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double qj = query[j];
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) {
      const double diff = qj - lane[r];
      acc[r] += diff * diff;
    }
  }
  for (int r = 0; r < kBlockRows; ++r) out8[r] = acc[r];
}

void DotBlock(const double* query, const double* block, int dim,
              double* out8) {
  double acc[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double qj = query[j];
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) acc[r] += qj * lane[r];
  }
  for (int r = 0; r < kBlockRows; ++r) out8[r] = acc[r];
}

void DotNormBlock(const double* query, const double* block, int dim,
                  double* dot8, double* norm8) {
  double dot[kBlockRows] = {};
  double norm[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double qj = query[j];
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) {
      dot[r] += qj * lane[r];
      norm[r] += lane[r] * lane[r];
    }
  }
  for (int r = 0; r < kBlockRows; ++r) {
    dot8[r] = dot[r];
    norm8[r] = norm[r];
  }
}

void VaLowerBoundBlock(const double* cell_table, int cells,
                       const uint8_t* sig_block, int dim, double* out8) {
  double acc[kBlockRows] = {};
  for (int j = 0; j < dim; ++j) {
    const double* table = cell_table + static_cast<std::size_t>(j) * cells;
    const uint8_t* lane = sig_block + static_cast<std::size_t>(j) * kBlockRows;
    for (int r = 0; r < kBlockRows; ++r) acc[r] += table[lane[r]];
  }
  for (int r = 0; r < kBlockRows; ++r) out8[r] = acc[r];
}

// `r > 0 ? r : 0` is MAXPD's rule, so these loops and the AVX2 ones clamp
// −0.0 (and anything not above zero) alike.
template <bool kList>
int64_t RelaxRowLoop(const double* cost, int64_t stride,
                     double tail_potential, const double* head_potential,
                     double tail_distance, double eps, double* distance,
                     int32_t* parent, int32_t tail, int32_t* improved,
                     int64_t n) {
  int64_t count = 0;
  for (int64_t base = 0; base < n; base += kCostTile, cost += stride) {
    const int64_t lanes = std::min<int64_t>(kCostTile, n - base);
    for (int64_t lane = 0; lane < lanes; ++lane) {
      const int64_t i = base + lane;
      double reduced = (cost[lane] + tail_potential) - head_potential[i];
      reduced = reduced > 0.0 ? reduced : 0.0;
      const double candidate = tail_distance + reduced;
      const bool better = candidate + eps < distance[i];
      distance[i] = better ? candidate : distance[i];
      parent[i] = better ? tail : parent[i];
      if constexpr (kList) improved[count] = static_cast<int32_t>(i);
      count += better;
    }
  }
  return count;
}

int64_t RelaxRow(const double* cost, int64_t stride, double tail_potential,
                 const double* head_potential, double tail_distance,
                 double eps, double* distance, int32_t* parent, int32_t tail,
                 int32_t* improved, int64_t n) {
  return improved != nullptr
             ? RelaxRowLoop<true>(cost, stride, tail_potential,
                                  head_potential, tail_distance, eps,
                                  distance, parent, tail, improved, n)
             : RelaxRowLoop<false>(cost, stride, tail_potential,
                                   head_potential, tail_distance, eps,
                                   distance, parent, tail, improved, n);
}

// One tile at a time: its kCostTile distances stay in locals across the
// events, and a user whose distance fell gets the mark once at the end
// (an improvement strictly lowers the distance, since eps > 0).
int64_t RelaxFreeEvents(const double* tiles, int64_t stride,
                        const int32_t* events, int64_t num_events,
                        const double* head_potential, double eps,
                        double* distance, int32_t* parent, int32_t mark,
                        int64_t n) {
  int64_t count = 0;
  for (int64_t base = 0; base < n; base += kCostTile, tiles += stride) {
    const int64_t lanes = std::min<int64_t>(kCostTile, n - base);
    double best[kCostTile] = {};
    for (int64_t lane = 0; lane < lanes; ++lane) {
      best[lane] = distance[base + lane];
    }
    for (int64_t k = 0; k < num_events; ++k) {
      const double* cost = tiles + static_cast<int64_t>(events[k]) * kCostTile;
      for (int64_t lane = 0; lane < lanes; ++lane) {
        double reduced = cost[lane] - head_potential[base + lane];
        reduced = reduced > 0.0 ? reduced : 0.0;
        const bool better = reduced + eps < best[lane];
        best[lane] = better ? reduced : best[lane];
        count += better;
      }
    }
    for (int64_t lane = 0; lane < lanes; ++lane) {
      const int64_t i = base + lane;
      parent[i] = best[lane] < distance[i] ? mark : parent[i];
      distance[i] = best[lane];
    }
  }
  return count;
}

void EuclideanFinish(double max_dist, double* inout, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    inout[i] = std::clamp(1.0 - std::sqrt(inout[i]) / max_dist, 0.0, 1.0);
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {
      /*squared_distance=*/SquaredDistanceBlock,
      /*squared_distance_fma=*/SquaredDistanceBlock,
      /*dot=*/DotBlock,
      /*dot_fma=*/DotBlock,
      /*dot_norm=*/DotNormBlock,
      /*dot_norm_fma=*/DotNormBlock,
      /*va_lower_bound=*/VaLowerBoundBlock,
      /*relax_row=*/RelaxRow,
      /*relax_free_events=*/RelaxFreeEvents,
      /*euclidean_finish=*/EuclideanFinish,
  };
  return table;
}

}  // namespace geacc::simd::internal
