// Level-independent batch drivers: loop the per-block reducers over a
// blocked buffer and run the similarity "finishers" (clamp / exp /
// zero-norm blend) in portable code; the Euclidean finisher (sqrt, divide,
// clamp) is a per-level whole-row kernel. Finishers are per-element IEEE
// operations, so they are bit-identical at every dispatch level; only the
// reducers differ per level, and only in kFast mode (see kernels.h).

#include "simd/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/check.h"

namespace geacc::simd {

namespace {

// Runs `fn(query, block, dim, out8)` over every block, routing the
// padded tail block through a stack buffer so out[rows..) is never
// touched.
template <typename BlockFn>
void ForEachBlock(BlockFn fn, const double* query, const double* blocked,
                  int dim, int64_t rows, double* out) {
  const int64_t num_blocks = NumBlocks(rows);
  for (int64_t b = 0; b < num_blocks; ++b) {
    const double* block =
        blocked + b * static_cast<int64_t>(dim) * kBlockRows;
    const int64_t base = b * kBlockRows;
    const int64_t live = std::min<int64_t>(kBlockRows, rows - base);
    if (live == kBlockRows) {
      fn(query, block, dim, out + base);
    } else {
      alignas(kBlockAlignment) double tmp[kBlockRows];
      fn(query, block, dim, tmp);
      std::memcpy(out + base, tmp, live * sizeof(double));
    }
  }
}

}  // namespace

const KernelTable& GetKernels(Level level) {
  switch (level) {
    case Level::kScalar:
      return internal::ScalarKernels();
    case Level::kAvx2:
      GEACC_CHECK(CpuSupportsAvx2())
          << "AVX2 kernels requested on a binary/CPU without AVX2";
      return internal::Avx2Kernels();
  }
  GEACC_CHECK(false) << "unknown simd level " << static_cast<int>(level);
  return internal::ScalarKernels();  // unreachable
}

void BuildBlocked(const double* data, int64_t rows, int dim,
                  double* blocked) {
  const int64_t num_blocks = NumBlocks(rows);
  for (int64_t b = 0; b < num_blocks; ++b) {
    double* dst = blocked + b * static_cast<int64_t>(dim) * kBlockRows;
    const int64_t base = b * kBlockRows;
    const int64_t live = std::min<int64_t>(kBlockRows, rows - base);
    for (int j = 0; j < dim; ++j) {
      double* lane = dst + static_cast<int64_t>(j) * kBlockRows;
      for (int64_t r = 0; r < live; ++r) lane[r] = data[(base + r) * dim + j];
      for (int64_t r = live; r < kBlockRows; ++r) lane[r] = 0.0;
    }
  }
}

void BatchSquaredDistance(Level level, FpMode fp, const double* query,
                          const double* blocked, int dim, int64_t rows,
                          double* out) {
  const KernelTable& k = GetKernels(level);
  ForEachBlock(fp == FpMode::kFast ? k.squared_distance_fma
                                   : k.squared_distance,
               query, blocked, dim, rows, out);
}

void BatchEuclideanSimilarity(Level level, FpMode fp, double max_attribute,
                              const double* query, const double* blocked,
                              int dim, int64_t rows, double* out) {
  if (dim == 0) {
    std::fill(out, out + rows, 1.0);
    return;
  }
  const KernelTable& k = GetKernels(level);
  const auto reduce =
      fp == FpMode::kFast ? k.squared_distance_fma : k.squared_distance;
  const double max_dist = max_attribute * std::sqrt(static_cast<double>(dim));
  // Finishing each block as soon as it is reduced lets the finisher's
  // square roots and divides overlap the next block's reduction.
  ForEachBlock(
      [&](const double* q, const double* block, int d, double* out8) {
        reduce(q, block, d, out8);
        k.euclidean_finish(max_dist, out8, kBlockRows);
      },
      query, blocked, dim, rows, out);
}

void BatchCosineSimilarity(Level level, FpMode fp, const double* query,
                           const double* blocked, int dim, int64_t rows,
                           double* out) {
  // The query norm is loop-invariant across the batch; accumulate it once
  // in the same ascending-j order as the per-pair loop's norm_a.
  double norm_q = 0.0;
  for (int j = 0; j < dim; ++j) norm_q += query[j] * query[j];

  const KernelTable& k = GetKernels(level);
  const auto fn = fp == FpMode::kFast ? k.dot_norm_fma : k.dot_norm;
  const int64_t num_blocks = NumBlocks(rows);
  for (int64_t b = 0; b < num_blocks; ++b) {
    const double* block = blocked + b * static_cast<int64_t>(dim) * kBlockRows;
    const int64_t base = b * kBlockRows;
    const int64_t live = std::min<int64_t>(kBlockRows, rows - base);
    alignas(kBlockAlignment) double dot[kBlockRows];
    alignas(kBlockAlignment) double norm[kBlockRows];
    fn(query, block, dim, dot, norm);
    for (int64_t r = 0; r < live; ++r) {
      out[base + r] =
          (norm_q == 0.0 || norm[r] == 0.0)
              ? 0.0
              : std::clamp(dot[r] / std::sqrt(norm_q * norm[r]), 0.0, 1.0);
    }
  }
}

void BatchRbfSimilarity(Level level, FpMode fp, double inv_two_bw_sq,
                        const double* query, const double* blocked, int dim,
                        int64_t rows, double* out) {
  BatchSquaredDistance(level, fp, query, blocked, dim, rows, out);
  for (int64_t i = 0; i < rows; ++i) {
    out[i] = std::exp(-out[i] * inv_two_bw_sq);
  }
}

void BatchDotSimilarity(Level level, FpMode fp, const double* query,
                        const double* blocked, int dim, int64_t rows,
                        double* out) {
  const KernelTable& k = GetKernels(level);
  ForEachBlock(fp == FpMode::kFast ? k.dot_fma : k.dot, query, blocked, dim,
               rows, out);
  for (int64_t i = 0; i < rows; ++i) out[i] = std::clamp(out[i], 0.0, 1.0);
}

void BatchVaLowerBound(Level level, const double* cell_table, int cells,
                       const uint8_t* sig_blocked, int dim, int64_t rows,
                       double* out) {
  const KernelTable& k = GetKernels(level);
  const int64_t num_blocks = NumBlocks(rows);
  for (int64_t b = 0; b < num_blocks; ++b) {
    const uint8_t* block =
        sig_blocked + b * static_cast<int64_t>(dim) * kBlockRows;
    const int64_t base = b * kBlockRows;
    const int64_t live = std::min<int64_t>(kBlockRows, rows - base);
    if (live == kBlockRows) {
      k.va_lower_bound(cell_table, cells, block, dim, out + base);
    } else {
      alignas(kBlockAlignment) double tmp[kBlockRows];
      k.va_lower_bound(cell_table, cells, block, dim, tmp);
      std::memcpy(out + base, tmp, live * sizeof(double));
    }
  }
}

int64_t RelaxRow(Level level, const double* cost, int64_t stride,
                 double tail_potential, const double* head_potential,
                 double tail_distance, double eps, double* distance,
                 int32_t* parent, int32_t tail, int32_t* improved,
                 int64_t n) {
  return GetKernels(level).relax_row(cost, stride, tail_potential,
                                     head_potential, tail_distance, eps,
                                     distance, parent, tail, improved, n);
}

int64_t RelaxFreeEvents(Level level, const double* tiles, int64_t stride,
                        const int32_t* events, int64_t num_events,
                        const double* head_potential, double eps,
                        double* distance, int32_t* parent, int32_t mark,
                        int64_t n) {
  return GetKernels(level).relax_free_events(tiles, stride, events,
                                             num_events, head_potential, eps,
                                             distance, parent, mark, n);
}

}  // namespace geacc::simd
