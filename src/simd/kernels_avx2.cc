// AVX2 per-block reducers. Compiled with -mavx2 -mfma -ffp-contract=off
// (see src/CMakeLists.txt): the contract=off keeps the strict reducers'
// separate _mm256_mul_pd / _mm256_add_pd from being fused behind our
// back, so strict results stay bit-identical to the scalar level; the
// *_fma variants opt into fusion explicitly with _mm256_fmadd_pd.
//
// Lane geometry: a block holds 8 rows, one cache line (two __m256d) per
// dimension, so each reducer runs two accumulator registers and the
// whole inner loop is two aligned loads + arithmetic per dimension.
// RelaxRow, RelaxFreeEvents and the Euclidean finisher are the whole-row
// kernels: four elements (one cost tile) per step, unaligned.

#include <algorithm>
#include <cmath>

#include "simd/kernels.h"
#include "util/check.h"

#if defined(GEACC_HAVE_AVX2)
#include <immintrin.h>
#endif

namespace geacc::simd::internal {

#if defined(GEACC_HAVE_AVX2)

namespace {

void SquaredDistanceBlock(const double* query, const double* block, int dim,
                          double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d d0 = _mm256_sub_pd(qj, _mm256_load_pd(lane));
    const __m256d d1 = _mm256_sub_pd(qj, _mm256_load_pd(lane + 4));
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void SquaredDistanceBlockFma(const double* query, const double* block, int dim,
                             double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d d0 = _mm256_sub_pd(qj, _mm256_load_pd(lane));
    const __m256d d1 = _mm256_sub_pd(qj, _mm256_load_pd(lane + 4));
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void DotBlock(const double* query, const double* block, int dim,
              double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(qj, _mm256_load_pd(lane)));
    acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(qj, _mm256_load_pd(lane + 4)));
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void DotBlockFma(const double* query, const double* block, int dim,
                 double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    acc0 = _mm256_fmadd_pd(qj, _mm256_load_pd(lane), acc0);
    acc1 = _mm256_fmadd_pd(qj, _mm256_load_pd(lane + 4), acc1);
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

void DotNormBlock(const double* query, const double* block, int dim,
                  double* dot8, double* norm8) {
  __m256d dot0 = _mm256_setzero_pd();
  __m256d dot1 = _mm256_setzero_pd();
  __m256d norm0 = _mm256_setzero_pd();
  __m256d norm1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d x0 = _mm256_load_pd(lane);
    const __m256d x1 = _mm256_load_pd(lane + 4);
    dot0 = _mm256_add_pd(dot0, _mm256_mul_pd(qj, x0));
    dot1 = _mm256_add_pd(dot1, _mm256_mul_pd(qj, x1));
    norm0 = _mm256_add_pd(norm0, _mm256_mul_pd(x0, x0));
    norm1 = _mm256_add_pd(norm1, _mm256_mul_pd(x1, x1));
  }
  _mm256_storeu_pd(dot8, dot0);
  _mm256_storeu_pd(dot8 + 4, dot1);
  _mm256_storeu_pd(norm8, norm0);
  _mm256_storeu_pd(norm8 + 4, norm1);
}

void DotNormBlockFma(const double* query, const double* block, int dim,
                     double* dot8, double* norm8) {
  __m256d dot0 = _mm256_setzero_pd();
  __m256d dot1 = _mm256_setzero_pd();
  __m256d norm0 = _mm256_setzero_pd();
  __m256d norm1 = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m256d qj = _mm256_broadcast_sd(query + j);
    const double* lane = block + static_cast<std::size_t>(j) * kBlockRows;
    const __m256d x0 = _mm256_load_pd(lane);
    const __m256d x1 = _mm256_load_pd(lane + 4);
    dot0 = _mm256_fmadd_pd(qj, x0, dot0);
    dot1 = _mm256_fmadd_pd(qj, x1, dot1);
    norm0 = _mm256_fmadd_pd(x0, x0, norm0);
    norm1 = _mm256_fmadd_pd(x1, x1, norm1);
  }
  _mm256_storeu_pd(dot8, dot0);
  _mm256_storeu_pd(dot8 + 4, dot1);
  _mm256_storeu_pd(norm8, norm0);
  _mm256_storeu_pd(norm8 + 4, norm1);
}

void VaLowerBoundBlock(const double* cell_table, int cells,
                       const uint8_t* sig_block, int dim, double* out8) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  // All-lanes mask + explicit zero source: the plain 3-arg gather leaves
  // its pass-through operand undefined, which trips -Wmaybe-uninitialized
  // inside avx2intrin.h on GCC.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d zero = _mm256_setzero_pd();
  for (int j = 0; j < dim; ++j) {
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
        sig_block + static_cast<std::size_t>(j) * kBlockRows));
    const __m128i lo = _mm_cvtepu8_epi32(bytes);
    const __m128i hi = _mm_cvtepu8_epi32(_mm_srli_si128(bytes, 4));
    const double* table = cell_table + static_cast<std::size_t>(j) * cells;
    acc0 = _mm256_add_pd(acc0,
                         _mm256_mask_i32gather_pd(zero, table, lo, all, 8));
    acc1 = _mm256_add_pd(acc1,
                         _mm256_mask_i32gather_pd(zero, table, hi, all, 8));
  }
  _mm256_storeu_pd(out8, acc0);
  _mm256_storeu_pd(out8 + 4, acc1);
}

// Byte shuffles that pack the int32 lanes selected by a 4-bit mask to the
// front of a __m128i, in lane order (the compress step of RelaxRow).
struct CompressTable {
  alignas(16) uint8_t shuffle[16][16];
  uint8_t popcount[16];
};

constexpr CompressTable MakeCompressTable() {
  CompressTable table{};
  for (int mask = 0; mask < 16; ++mask) {
    int out = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (((mask >> lane) & 1) == 0) continue;
      for (int byte = 0; byte < 4; ++byte) {
        table.shuffle[mask][out * 4 + byte] =
            static_cast<uint8_t>(lane * 4 + byte);
      }
      ++out;
    }
    for (int byte = out * 4; byte < 16; ++byte) {
      table.shuffle[mask][byte] = 0x80;  // zero
    }
    table.popcount[mask] = static_cast<uint8_t>(out);
  }
  return table;
}

constexpr CompressTable kCompress = MakeCompressTable();

static_assert(kCostTile == 4, "one cost tile is one __m256d");

// The low dword of each 64-bit compare lane, as four int32 lanes: turns a
// __m256d mask into the __m128i mask of four int32 parents.
__m128i ParentMask(__m256d mask) {
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  return _mm256_castsi256_si128(
      _mm256_permutevar8x32_epi32(_mm256_castpd_si256(mask), low_dwords));
}

// Four arcs (one cost tile) per step: blend the improved lanes into
// distance and parent, then (kList) compress their indices onto
// `improved` — no per-lane branch. The final n % 4 arcs run the scalar
// form of the same arithmetic.
template <bool kList>
int64_t RelaxRowLoop(const double* cost, int64_t stride,
                     double tail_potential, const double* head_potential,
                     double tail_distance, double eps, double* distance,
                     int32_t* parent, int32_t tail, int32_t* improved,
                     int64_t n) {
  const __m256d potential = _mm256_set1_pd(tail_potential);
  const __m256d base = _mm256_set1_pd(tail_distance);
  const __m256d slack = _mm256_set1_pd(eps);
  const __m256d zero = _mm256_setzero_pd();
  const __m128i tail4 = _mm_set1_epi32(tail);
  const __m128i step = _mm_set1_epi32(4);
  __m128i index = _mm_setr_epi32(0, 1, 2, 3);
  int64_t count = 0;
  int64_t i = 0;
  for (; i + 4 <= n; i += 4, cost += stride) {
    const __m256d reduced = _mm256_max_pd(
        _mm256_sub_pd(_mm256_add_pd(_mm256_loadu_pd(cost), potential),
                      _mm256_loadu_pd(head_potential + i)),
        zero);
    const __m256d candidate = _mm256_add_pd(base, reduced);
    const __m256d current = _mm256_loadu_pd(distance + i);
    const __m256d better = _mm256_cmp_pd(_mm256_add_pd(candidate, slack),
                                         current, _CMP_LT_OQ);
    _mm256_storeu_pd(distance + i,
                     _mm256_blendv_pd(current, candidate, better));
    __m128i* parent4 = reinterpret_cast<__m128i*>(parent + i);
    _mm_storeu_si128(parent4, _mm_blendv_epi8(_mm_loadu_si128(parent4), tail4,
                                              ParentMask(better)));
    const int mask = _mm256_movemask_pd(better);
    if constexpr (kList) {
      const __m128i shuffle = _mm_load_si128(
          reinterpret_cast<const __m128i*>(kCompress.shuffle[mask]));
      // count <= i, so the four int32 written stay inside improved[0, n).
      _mm_storeu_si128(reinterpret_cast<__m128i*>(improved + count),
                       _mm_shuffle_epi8(index, shuffle));
      index = _mm_add_epi32(index, step);
    }
    count += kCompress.popcount[mask];
  }
  // `cost` is now the tile of the final n % 4 arcs.
  for (; i < n; ++i) {
    double reduced =
        (cost[i % kCostTile] + tail_potential) - head_potential[i];
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

// The free-event pass over kTiles consecutive cost tiles (4 · kTiles
// users): their distances stay in registers across every event, and the
// improvement count accumulates as a vector (a true lane is −1). A user
// whose distance fell gets the mark once at the end.
template <int kTiles>
__m256i RelaxFreeGroup(const double* tiles, int64_t stride,
                       const int32_t* events, int64_t num_events,
                       const double* head_potential, __m256d slack,
                       double* distance, int32_t* parent, int32_t mark,
                       __m256i count) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d best[kTiles];
#pragma GCC unroll 8
  for (int t = 0; t < kTiles; ++t) {
    best[t] = _mm256_loadu_pd(distance + kCostTile * t);
  }
  for (int64_t k = 0; k < num_events; ++k) {
    const double* cost = tiles + static_cast<int64_t>(events[k]) * kCostTile;
#pragma GCC unroll 8
    for (int t = 0; t < kTiles; ++t) {
      const __m256d reduced = _mm256_max_pd(
          _mm256_sub_pd(_mm256_loadu_pd(cost + t * stride),
                        _mm256_loadu_pd(head_potential + kCostTile * t)),
          zero);
      const __m256d better = _mm256_cmp_pd(_mm256_add_pd(reduced, slack),
                                           best[t], _CMP_LT_OQ);
      best[t] = _mm256_blendv_pd(best[t], reduced, better);
      count = _mm256_sub_epi64(count, _mm256_castpd_si256(better));
    }
  }
  const __m128i mark4 = _mm_set1_epi32(mark);
#pragma GCC unroll 8
  for (int t = 0; t < kTiles; ++t) {
    const __m256d fell = _mm256_cmp_pd(
        best[t], _mm256_loadu_pd(distance + kCostTile * t), _CMP_LT_OQ);
    _mm256_storeu_pd(distance + kCostTile * t, best[t]);
    __m128i* parent4 = reinterpret_cast<__m128i*>(parent + kCostTile * t);
    _mm_storeu_si128(parent4, _mm_blendv_epi8(_mm_loadu_si128(parent4), mark4,
                                              ParentMask(fell)));
  }
  return count;
}

// Groups of 8 tiles (32 users, 8 of the 16 ymm registers), then single
// tiles, then the final n % 4 users in the scalar form.
int64_t RelaxFreeEvents(const double* tiles, int64_t stride,
                        const int32_t* events, int64_t num_events,
                        const double* head_potential, double eps,
                        double* distance, int32_t* parent, int32_t mark,
                        int64_t n) {
  constexpr int kGroupTiles = 8;
  constexpr int64_t kGroupUsers = kGroupTiles * kCostTile;
  const __m256d slack = _mm256_set1_pd(eps);
  __m256i count = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + kGroupUsers <= n; i += kGroupUsers) {
    count = RelaxFreeGroup<kGroupTiles>(
        tiles + (i / kCostTile) * stride, stride, events, num_events,
        head_potential + i, slack, distance + i, parent + i, mark, count);
  }
  for (; i + kCostTile <= n; i += kCostTile) {
    count = RelaxFreeGroup<1>(tiles + (i / kCostTile) * stride, stride,
                              events, num_events, head_potential + i, slack,
                              distance + i, parent + i, mark, count);
  }
  alignas(32) int64_t lanes[4] = {};
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), count);
  int64_t total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) {
    const double* cost = tiles + (i / kCostTile) * stride + i % kCostTile;
    double best = distance[i];
    for (int64_t k = 0; k < num_events; ++k) {
      double reduced =
          cost[static_cast<int64_t>(events[k]) * kCostTile] - head_potential[i];
      reduced = reduced > 0.0 ? reduced : 0.0;
      const bool better = reduced + eps < best;
      best = better ? reduced : best;
      total += better;
    }
    parent[i] = best < distance[i] ? mark : parent[i];
    distance[i] = best;
  }
  return total;
}

// std::clamp(x, 0, 1) is std::min(std::max(x, 0), 1), i.e.
// t = x < 0 ? 0 : x, then 1 < t ? 1 : t. MAXPD(a, b) is a > b ? a : b and
// MINPD(a, b) is a < b ? a : b, so max(0, x) then min(1, t) makes the same
// comparisons and returns the same operand, NaN and −0.0 included. Square
// root, divide and subtract are correctly rounded, so every lane equals
// the scalar level's bits.
void EuclideanFinish(double max_dist, double* inout, int64_t n) {
  const __m256d denominator = _mm256_set1_pd(max_dist);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d zero = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sim = _mm256_sub_pd(
        one, _mm256_div_pd(_mm256_sqrt_pd(_mm256_loadu_pd(inout + i)),
                           denominator));
    _mm256_storeu_pd(inout + i,
                     _mm256_min_pd(one, _mm256_max_pd(zero, sim)));
  }
  for (; i < n; ++i) {
    inout[i] = std::clamp(1.0 - std::sqrt(inout[i]) / max_dist, 0.0, 1.0);
  }
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {
      /*squared_distance=*/SquaredDistanceBlock,
      /*squared_distance_fma=*/SquaredDistanceBlockFma,
      /*dot=*/DotBlock,
      /*dot_fma=*/DotBlockFma,
      /*dot_norm=*/DotNormBlock,
      /*dot_norm_fma=*/DotNormBlockFma,
      /*va_lower_bound=*/VaLowerBoundBlock,
      /*relax_row=*/RelaxRow,
      /*relax_free_events=*/RelaxFreeEvents,
      /*euclidean_finish=*/EuclideanFinish,
  };
  return table;
}

#else  // !GEACC_HAVE_AVX2

const KernelTable& Avx2Kernels() {
  GEACC_CHECK(false) << "AVX2 kernels were not compiled into this binary";
  return ScalarKernels();  // unreachable
}

#endif  // GEACC_HAVE_AVX2

}  // namespace geacc::simd::internal
