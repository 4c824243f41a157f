// Batched similarity kernels over the blocked SoA attribute layout
// (DESIGN.md §15): one query vector evaluated against *blocks* of stored
// rows, with per-level (scalar / AVX2) inner reducers behind the runtime
// dispatch in simd/simd.h.
//
// ## The blocked layout contract
//
// A matrix of `rows` × `dim` doubles is mirrored as ceil(rows / 8) blocks
// of 8 rows, stored dimension-major inside each block:
//
//     blocked[(block * dim + j) * kBlockRows + r] = row(block*8 + r)[j]
//
// * kBlockRows = 8: one 64-byte cache line of f64 per (block, dimension),
//   so a kernel's inner loop streams whole lines and an AVX2 lane pair
//   (2 × 4 doubles) covers exactly one line.
// * The base pointer must be kBlockAlignment (64-byte) aligned; every
//   (block, dimension) group is then line-aligned by construction.
// * Padding: rows past `rows` in the final block are zero-filled. Kernels
//   compute full blocks — padded lanes produce well-defined garbage
//   (e.g. |q|² for squared distance) which the drivers below never copy
//   into caller-visible output. Zero (not NaN) padding keeps the padded
//   lanes finite, so they cannot raise FP exceptions or slow the block
//   down via NaN/denormal propagation.
//
// `core::AttributeMatrix::Blocked()` owns the canonical mirror;
// `BuildBlocked` below is the layout builder it (and the tests) use.
//
// ## Floating-point contract (strict vs fast)
//
// Kernels vectorize across *rows* (lanes = rows), never across the
// reduction dimension: each lane accumulates `acc = acc + f(q_j, x_j)`
// in ascending-j order — exactly the association of the per-pair scalar
// loops in core/similarity.cc — using separate IEEE mul and add. Square
// root, division, min/max and subtraction are correctly rounded per
// element in both scalar and AVX2 forms. Therefore:
//
//   FpMode::kStrict — every output is BIT-IDENTICAL to the per-pair
//   scalar path, at any dispatch level, for all finite inputs (including
//   zeros and denormals). This is the default everywhere; solver results
//   cannot depend on the dispatch level.
//
//   FpMode::kFast — the two accumulation steps may be contracted into a
//   fused multiply-add (one rounding instead of two). Outputs may differ
//   from strict in the last ulp; enumeration orders and therefore solver
//   results may differ (tie-breaks). Only opted into via
//   SolverOptions::fp_mode = "fast", and only honored on the pair-cost /
//   search-table construction paths (see DESIGN.md §15.3 for the exact
//   list); NN-cursor enumeration always runs strict.
//
// The AVX2 translation unit is compiled with -ffp-contract=off so the
// strict variants cannot be auto-contracted; fast variants use explicit
// FMA intrinsics. Strict identity additionally assumes the rest of the
// build does not enable implicit FMA contraction globally (the default
// x86-64 baseline cannot; do not build with -march=native -ffast-math).
//
// ## Non-finite inputs
//
// Kernels assume all attributes are finite. The io layer rejects
// non-finite attributes at every untrusted boundary (instance_io /
// trace_io / wire, PR 4), generators draw from bounded distributions,
// and InstanceBuilder is test-side — so matrix data reaching a kernel is
// finite by invariant. Queries are rows of the same matrices. Under this
// invariant no kernel produces NaN except transiently in the cosine
// finisher (0/0 for zero-norm rows), which is blended to the documented
// 0.0 before it escapes.
//
// ## Cost
//
// Every Batch* driver is O(rows × dim) FLOPs and reads each blocked byte
// exactly once, sequentially; scratch is O(kBlockRows) stack. Throughput
// target (and measured on AVX2): ≥3× the per-pair virtual-call path —
// from d = 20 for cosine/dot, from d = 100 for Euclidean/RBF, whose
// per-element sqrt/exp finishers dilute the gain at small d. See
// bench/micro_similarity; the strict mode's sequential per-lane
// reduction leaves add latency exposed, which bounds small-d speedups.

#ifndef GEACC_SIMD_KERNELS_H_
#define GEACC_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "simd/simd.h"

namespace geacc::simd {

// Rows per block: one cache line of doubles.
inline constexpr int kBlockRows = 8;
// Required alignment of a blocked base pointer, bytes.
inline constexpr std::size_t kBlockAlignment = 64;

enum class FpMode {
  kStrict = 0,  // bit-identical to the per-pair scalar path
  kFast = 1,    // FMA contraction permitted in the reductions
};

// Number of blocks mirroring `rows` rows.
inline int64_t NumBlocks(int64_t rows) {
  return (rows + kBlockRows - 1) / kBlockRows;
}

// Doubles in a blocked mirror of rows × dim (padded final block included).
inline int64_t BlockedSize(int64_t rows, int64_t dim) {
  return NumBlocks(rows) * dim * kBlockRows;
}

// Fills `blocked` (BlockedSize(rows, dim) doubles, kBlockAlignment-
// aligned) from row-major `data`; padded lanes are zeroed. O(rows × dim).
void BuildBlocked(const double* data, int64_t rows, int dim, double* blocked);

// ---------------------------------------------------------------------------
// Batch drivers. All write out[i] = f(query, row i) for i ∈ [0, rows) and
// require: `blocked` laid out/aligned per the contract above with at
// least NumBlocks(rows) blocks, `query` a plain (unaligned OK) dim-long
// vector, `out` writable for `rows` doubles, dim ≥ 0, rows ≥ 0. Outputs
// for padded lanes are never written. Thread-safe; no shared state.

// out[i] = Σ_j (query[j] − row_i[j])²  — the building block the
// Euclidean/RBF drivers share, exposed for index lower-bound refinement.
void BatchSquaredDistance(Level level, FpMode fp, const double* query,
                          const double* blocked, int dim, int64_t rows,
                          double* out);

// Paper Eq. (1): out[i] = clamp(1 − √d²(q,i) / (T·√dim), 0, 1);
// dim == 0 ⇒ all 1.0 (matches EuclideanSimilarity::Compute).
void BatchEuclideanSimilarity(Level level, FpMode fp, double max_attribute,
                              const double* query, const double* blocked,
                              int dim, int64_t rows, double* out);

// out[i] = clamp(q·x / √(|q|²·|x|²), 0, 1), 0 when either norm is zero.
void BatchCosineSimilarity(Level level, FpMode fp, const double* query,
                           const double* blocked, int dim, int64_t rows,
                           double* out);

// out[i] = exp(−d²(q,i) · inv_two_bw_sq). The exponential is std::exp
// per element (identical to the per-pair path at every level).
void BatchRbfSimilarity(Level level, FpMode fp, double inv_two_bw_sq,
                        const double* query, const double* blocked, int dim,
                        int64_t rows, double* out);

// out[i] = clamp(q·x, 0, 1).
void BatchDotSimilarity(Level level, FpMode fp, const double* query,
                        const double* blocked, int dim, int64_t rows,
                        double* out);

// ---------------------------------------------------------------------------
// Batched VA-file signature scan (index/va_file_index.cc).
//
// Signatures use the same blocked geometry with uint8_t cells:
//
//     sig_blocked[(block * dim + j) * kBlockRows + r] = signature(row)[j]
//
// (byte-sized, so alignment is irrelevant; padded lanes must hold a
// valid cell id in [0, cells), e.g. 0). `cell_table` is the per-query
// precomputed contribution table, dim × cells doubles:
// cell_table[j * cells + c] = squared axis-distance from query[j] to
// cell c of dimension j (0 inside the cell). Then
//
//     out[i] = Σ_j cell_table[j * cells + sig(i)[j]]
//
// which equals VaFileIndex::CellLowerBoundSq bit-for-bit (same per-cell
// arithmetic, same ascending-j accumulation; table lookups are exact).
// O(rows × dim) table loads; the AVX2 form uses vgatherdpd.
void BatchVaLowerBound(Level level, const double* cell_table, int cells,
                       const uint8_t* sig_blocked, int dim, int64_t rows,
                       double* out);

// ---------------------------------------------------------------------------
// Dijkstra row relaxation (flow/transport_ssp.cc).
//
// Relaxes the n arcs tail → head i of one dense cost row, in the generic
// SSP engine's arithmetic and order (the reference in tests/flow/):
//
//     r    = (cost[i] + tail_potential) − head_potential[i]
//     r    = r > 0 ? r : +0.0
//     cand = tail_distance + r
//     if (cand + eps < distance[i]):
//       distance[i] = cand, parent[i] = tail, improved[count++] = i
//
// and returns `count`. A +inf cost (an arc without residual capacity)
// gives cand = +inf, which never passes the test, so the row needs no
// residual branch. Add, subtract, max and compare only: there is no
// multiply to contract, so every level returns identical bits for every
// input (strict-only; there is no fast variant). The clamp maps a reduced
// cost of −0.0 to +0.0 where a `r < 0` clamp keeps −0.0; the two give
// the same cand for every tail_distance except −0.0. `improved` is either
// null (no list is written; the count is still returned) or holds n
// entries, of which those from `count` on are unspecified. O(n).
int64_t RelaxRow(Level level, const double* cost, double tail_potential,
                 const double* head_potential, double tail_distance,
                 double eps, double* distance, int32_t* parent, int32_t tail,
                 int32_t* improved, int64_t n);

// ---------------------------------------------------------------------------
// Per-block reducer table — the level-specific functions the drivers
// loop over. Exposed so tests can pin every available level against the
// per-pair path without touching the global dispatch override.
//
// Each reducer consumes ONE block (dim × kBlockRows doubles, aligned)
// and writes kBlockRows results; `dot_norm` writes the per-lane dot
// products and squared norms (for cosine).
struct KernelTable {
  void (*squared_distance)(const double* query, const double* block, int dim,
                           double* out8);
  void (*squared_distance_fma)(const double* query, const double* block,
                               int dim, double* out8);
  void (*dot)(const double* query, const double* block, int dim,
              double* out8);
  void (*dot_fma)(const double* query, const double* block, int dim,
                  double* out8);
  void (*dot_norm)(const double* query, const double* block, int dim,
                   double* dot8, double* norm8);
  void (*dot_norm_fma)(const double* query, const double* block, int dim,
                       double* dot8, double* norm8);
  void (*va_lower_bound)(const double* cell_table, int cells,
                         const uint8_t* sig_block, int dim, double* out8);
  // Whole-row kernel behind RelaxRow (not per block).
  int64_t (*relax_row)(const double* cost, double tail_potential,
                       const double* head_potential, double tail_distance,
                       double eps, double* distance, int32_t* parent,
                       int32_t tail, int32_t* improved, int64_t n);
};

// The reducers for `level`. Requesting kAvx2 when CpuSupportsAvx2() is
// false CHECK-fails (dispatch never does; only explicit callers can).
const KernelTable& GetKernels(Level level);

namespace internal {
// Level-specific reducer tables (kernels_scalar.cc / kernels_avx2.cc).
// On the scalar level the *_fma entries alias the strict reducers: kFast
// *permits* contraction, it never requires it.
const KernelTable& ScalarKernels();
// CHECK-fails when the binary was built without GEACC_HAVE_AVX2.
const KernelTable& Avx2Kernels();
}  // namespace internal

}  // namespace geacc::simd

#endif  // GEACC_SIMD_KERNELS_H_
