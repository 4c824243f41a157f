// Portable per-block reducers. This translation unit is compiled with the
// project's baseline flags only (no -mfma), so on x86-64 the compiler has
// no fused multiply-add to contract into and every `acc += x * y` below
// rounds twice, exactly like the per-pair loops in core/similarity.cc —
// which is what the strict-mode bit-identity contract (kernels.h) needs.
// The compiler is free to auto-vectorize these loops: lanes are rows, so
// any lane width produces the same per-row arithmetic. Of the two
// whole-row kernels, RelaxRow has no multiply at all and the Euclidean
// finisher is EuclideanSimilarity::Compute's own tail.

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

// `r > 0 ? r : 0` is MAXPD's rule, so this loop and the AVX2 one clamp
// −0.0 (and anything not above zero) alike.
template <bool kList>
int64_t RelaxRowLoop(const double* cost, double tail_potential,
                     const double* head_potential, double tail_distance,
                     double eps, double* distance, int32_t* parent,
                     int32_t tail, int32_t* improved, int64_t n) {
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) {
    double reduced = (cost[i] + tail_potential) - head_potential[i];
    reduced = reduced > 0.0 ? reduced : 0.0;
    const double candidate = tail_distance + reduced;
    const bool better = candidate + eps < distance[i];
    distance[i] = better ? candidate : distance[i];
    parent[i] = better ? tail : parent[i];
    if constexpr (kList) improved[count] = static_cast<int32_t>(i);
    count += better;
  }
  return count;
}

int64_t RelaxRow(const double* cost, double tail_potential,
                 const double* head_potential, double tail_distance,
                 double eps, double* distance, int32_t* parent, int32_t tail,
                 int32_t* improved, int64_t n) {
  return improved != nullptr
             ? RelaxRowLoop<true>(cost, tail_potential, head_potential,
                                  tail_distance, eps, distance, parent, tail,
                                  improved, n)
             : RelaxRowLoop<false>(cost, tail_potential, head_potential,
                                   tail_distance, eps, distance, parent, tail,
                                   improved, n);
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
      /*euclidean_finish=*/EuclideanFinish,
  };
  return table;
}

}  // namespace geacc::simd::internal
