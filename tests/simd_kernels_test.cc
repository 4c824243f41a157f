// Differential tests for the batched SIMD similarity kernels
// (src/simd, DESIGN.md §15): every available dispatch level against the
// per-pair scalar path, bit-for-bit in strict mode, across awkward
// shapes (dims and row counts that are not multiples of the vector width
// or block size), zero vectors, and denormals. The transport engine's
// relaxations (RelaxRow on plain and user-tiled rows, and the RelaxFreeEvents
// pass) are pinned the same way, level against level and against the
// generic engine's per-arc arithmetic.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/attributes.h"
#include "core/similarity.h"
#include "simd/kernels.h"
#include "simd/simd.h"
#include "util/rng.h"

namespace geacc {
namespace {

// Shapes chosen to straddle the AVX2 lane width (4), the block size (8),
// and the padded tail: dims/rows below, at, and above each boundary.
const int kDims[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 31, 32, 100};
const int kRowCounts[] = {1, 2, 7, 8, 9, 16, 17, 63, 100};

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

// Bitwise equality — stricter than EXPECT_DOUBLE_EQ (distinguishes ±0,
// catches last-ulp drift the strict contract forbids).
void ExpectBitEqual(double got, double want, const std::string& context) {
  EXPECT_EQ(Bits(got), Bits(want))
      << context << ": got " << got << " want " << want;
}

// The dispatch levels this machine can actually run.
std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::CpuSupportsAvx2()) levels.push_back(simd::Level::kAvx2);
  return levels;
}

// 64-byte-aligned buffer of `doubles` doubles.
class AlignedBuffer {
 public:
  explicit AlignedBuffer(int64_t doubles)
      : storage_(static_cast<size_t>(doubles) + simd::kBlockAlignment /
                                                    sizeof(double)) {
    void* p = storage_.data();
    std::size_t space = storage_.size() * sizeof(double);
    p = std::align(simd::kBlockAlignment,
                   static_cast<size_t>(doubles) * sizeof(double), p, space);
    ptr_ = static_cast<double*>(p);
  }
  double* get() { return ptr_; }

 private:
  std::vector<double> storage_;
  double* ptr_;
};

AttributeMatrix RandomMatrix(int rows, int dim, Rng& rng) {
  AttributeMatrix m(rows, dim);
  for (int i = 0; i < rows; ++i) {
    double* row = m.MutableRow(i);
    for (int j = 0; j < dim; ++j) row[j] = rng.UniformReal(0.0, 100.0);
  }
  return m;
}

// --------------------------------------------------------- BuildBlocked ---

TEST(BuildBlocked, LayoutFormulaAndZeroPadding) {
  const int rows = 11, dim = 3;  // two blocks, five padded lanes
  Rng rng(7);
  AttributeMatrix m = RandomMatrix(rows, dim, rng);
  AlignedBuffer buf(simd::BlockedSize(rows, dim));
  simd::BuildBlocked(m.Row(0), rows, dim, buf.get());
  const double* blocked = buf.get();
  for (int64_t block = 0; block < simd::NumBlocks(rows); ++block) {
    for (int j = 0; j < dim; ++j) {
      for (int r = 0; r < simd::kBlockRows; ++r) {
        const int64_t i = block * simd::kBlockRows + r;
        const double got =
            blocked[(block * dim + j) * simd::kBlockRows + r];
        const double want = i < rows ? m.At(i, j) : 0.0;
        ExpectBitEqual(got, want,
                       "block " + std::to_string(block) + " dim " +
                           std::to_string(j) + " lane " + std::to_string(r));
      }
    }
  }
}

TEST(BlockedAttributes, AlignedAndInvalidatedOnMutation) {
  Rng rng(3);
  AttributeMatrix m = RandomMatrix(9, 4, rng);
  const BlockedAttributes& blocked = m.Blocked();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(blocked.data()) %
                simd::kBlockAlignment,
            0u);
  EXPECT_EQ(blocked.rows(), 9);
  EXPECT_EQ(blocked.dim(), 4);
  EXPECT_EQ(blocked.num_blocks(), 2);
  ExpectBitEqual(blocked.data()[0 * simd::kBlockRows + 2], m.At(2, 0),
                 "pre-mutation lane");

  m.Set(2, 0, -5.0);  // must invalidate the mirror
  const BlockedAttributes& rebuilt = m.Blocked();
  ExpectBitEqual(rebuilt.data()[0 * simd::kBlockRows + 2], -5.0,
                 "post-mutation lane");
}

TEST(BlockedAttributes, CopyAndMoveStartCold) {
  Rng rng(4);
  AttributeMatrix m = RandomMatrix(10, 2, rng);
  (void)m.Blocked();  // warm the source mirror

  AttributeMatrix copy = m;  // payload copied, mirror rebuilt on demand
  const BlockedAttributes& b = copy.Blocked();
  for (int i = 0; i < 10; ++i) {
    const int64_t block = i / simd::kBlockRows, lane = i % simd::kBlockRows;
    ExpectBitEqual(
        b.data()[(block * 2 + 0) * simd::kBlockRows + lane], m.At(i, 0),
        "copied row " + std::to_string(i));
  }

  AttributeMatrix moved = std::move(copy);
  EXPECT_EQ(moved.rows(), 10);
  (void)moved.Blocked();
}

// --------------------------------------------- strict-mode bit identity ---

// Builds a fn × dim × rows × level sweep and pins ComputeBatch(strict)
// bitwise to the per-pair Compute path.
void CheckStrictIdentityOn(const AttributeMatrix& m,
                           const std::vector<double>& query,
                           const std::string& tag) {
  const struct {
    const char* name;
    double param;
  } kFns[] = {{"euclidean", 100.0}, {"cosine", 0.0}, {"rbf", 25.0},
              {"dot", 0.0}};
  const int dim = m.dim();
  const int64_t rows = m.rows();
  std::vector<double> out(static_cast<size_t>(rows));
  for (const auto& fn : kFns) {
    const auto sim = MakeSimilarity(fn.name, fn.param);
    for (simd::Level level : AvailableLevels()) {
      std::string error;
      ASSERT_TRUE(simd::SetDispatchOverride(simd::LevelName(level), &error))
          << error;
      sim->ComputeBatch(query.data(), m.Blocked(), simd::FpMode::kStrict,
                        out.data());
      for (int64_t i = 0; i < rows; ++i) {
        ExpectBitEqual(out[i], sim->Compute(query.data(), m.Row(i), dim),
                       std::string(fn.name) + "/" +
                           simd::LevelName(level) + "/" + tag + "/row " +
                           std::to_string(i));
      }
    }
  }
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

// The sweep on `m`, then on `m` plus three rows that reach both branches
// of the Euclidean finisher's clamp: one equal to the query (similarity
// exactly 1) and two 2T off it on either side, outside [0, T] (1 − 2
// clamps to 0). Appended after the shape's own rows, they fall in
// different lanes as the row count varies.
void CheckStrictIdentity(const AttributeMatrix& m,
                         const std::vector<double>& query,
                         const std::string& tag) {
  CheckStrictIdentityOn(m, query, tag);
  constexpr double kT = 100.0;  // the Euclidean parameter of the sweep
  AttributeMatrix clamped = m;
  for (const double offset : {0.0, 2.0 * kT, -2.0 * kT}) {
    std::vector<double> row = query;
    for (double& x : row) x += offset;
    clamped.AppendRow(row);
  }
  const int rows = clamped.rows();
  const EuclideanSimilarity euclidean(kT);
  ASSERT_EQ(euclidean.Compute(query.data(), clamped.Row(rows - 3), m.dim()),
            1.0);
  ASSERT_EQ(euclidean.Compute(query.data(), clamped.Row(rows - 2), m.dim()),
            0.0);
  ASSERT_EQ(euclidean.Compute(query.data(), clamped.Row(rows - 1), m.dim()),
            0.0);
  CheckStrictIdentityOn(clamped, query, tag + "+clamp-rows");
}

TEST(BatchKernels, StrictBitIdenticalAcrossShapes) {
  for (int dim : kDims) {
    for (int rows : kRowCounts) {
      Rng rng(1000 + dim * 131 + rows);
      AttributeMatrix m = RandomMatrix(rows, dim, rng);
      std::vector<double> query(static_cast<size_t>(dim));
      for (double& q : query) q = rng.UniformReal(0.0, 100.0);
      CheckStrictIdentity(m, query,
                          std::string("d") + std::to_string(dim) + "xn" +
                              std::to_string(rows));
    }
  }
}

TEST(BatchKernels, StrictBitIdenticalZeroVectors) {
  // Zero rows (cosine's 0-norm guard) and a zero query, mixed with
  // ordinary rows so the same batch exercises both branches.
  const int dim = 20, rows = 13;
  Rng rng(99);
  AttributeMatrix m = RandomMatrix(rows, dim, rng);
  for (int j = 0; j < dim; ++j) {
    m.Set(0, j, 0.0);
    m.Set(8, j, 0.0);  // zero row in the tail block
  }
  std::vector<double> query(dim, 0.0);
  CheckStrictIdentity(m, query, "zero-query");
  for (double& q : query) q = rng.UniformReal(0.0, 100.0);
  CheckStrictIdentity(m, query, "zero-rows");
}

TEST(BatchKernels, StrictBitIdenticalDenormals) {
  // Denormal attributes: strict identity must survive gradual underflow.
  const int dim = 9, rows = 17;
  const double tiny = 4.9406564584124654e-324;  // smallest denormal
  AttributeMatrix m(rows, dim);
  Rng rng(5);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < dim; ++j) {
      m.Set(i, j, tiny * static_cast<double>(rng.UniformInt(0, 1 << 20)));
    }
  }
  std::vector<double> query(dim);
  for (double& q : query) {
    q = tiny * static_cast<double>(rng.UniformInt(0, 1 << 20));
  }
  CheckStrictIdentity(m, query, "denormals");
}

// --------------------------------------------------------- fast mode ------

TEST(BatchKernels, FastModeNearStrictAndScalarFastIsStrict) {
  const int dim = 33, rows = 29;
  Rng rng(42);
  AttributeMatrix m = RandomMatrix(rows, dim, rng);
  std::vector<double> query(dim);
  for (double& q : query) q = rng.UniformReal(0.0, 100.0);

  const auto sim = MakeSimilarity("euclidean", 100.0);
  std::vector<double> strict(rows), fast(rows);
  for (simd::Level level : AvailableLevels()) {
    std::string error;
    ASSERT_TRUE(simd::SetDispatchOverride(simd::LevelName(level), &error))
        << error;
    sim->ComputeBatch(query.data(), m.Blocked(), simd::FpMode::kStrict,
                      strict.data());
    sim->ComputeBatch(query.data(), m.Blocked(), simd::FpMode::kFast,
                      fast.data());
    for (int i = 0; i < rows; ++i) {
      if (level == simd::Level::kScalar) {
        // kFast *permits* contraction; the scalar level never contracts,
        // so fast must alias strict exactly.
        ExpectBitEqual(fast[i], strict[i], "scalar fast row " +
                                               std::to_string(i));
      } else {
        // One rounding saved per accumulate: relative drift stays tiny.
        EXPECT_NEAR(fast[i], strict[i],
                    1e-12 * std::max(1.0, std::abs(strict[i])))
            << "avx2 fast row " << i;
      }
    }
  }
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

// ------------------------------------------------------ raw batch drivers --

TEST(BatchKernels, SquaredDistanceMatchesReferenceLoop) {
  for (int dim : {1, 5, 8, 17}) {
    for (int rows : {3, 8, 21}) {
      Rng rng(dim * 31 + rows);
      AttributeMatrix m = RandomMatrix(rows, dim, rng);
      std::vector<double> query(dim);
      for (double& q : query) q = rng.UniformReal(0.0, 100.0);
      AlignedBuffer blocked(simd::BlockedSize(rows, dim));
      simd::BuildBlocked(m.Row(0), rows, dim, blocked.get());
      std::vector<double> out(rows);
      for (simd::Level level : AvailableLevels()) {
        simd::BatchSquaredDistance(level, simd::FpMode::kStrict,
                                   query.data(), blocked.get(), dim, rows,
                                   out.data());
        for (int i = 0; i < rows; ++i) {
          // Reference: ascending-j accumulation with separate mul/add —
          // the exact association the strict contract promises.
          double acc = 0.0;
          for (int j = 0; j < dim; ++j) {
            const double diff = query[j] - m.At(i, j);
            acc += diff * diff;
          }
          ExpectBitEqual(out[i], acc,
                         std::string("sqdist/") + simd::LevelName(level) +
                             "/d" + std::to_string(dim) + "/row " +
                             std::to_string(i));
        }
      }
    }
  }
}

TEST(BatchKernels, VaLowerBoundMatchesReferenceLoop) {
  const int cells = 16;
  for (int dim : {1, 2, 4, 7, 8, 13}) {
    for (int rows : {1, 6, 8, 19}) {
      Rng rng(dim * 17 + rows);
      // Random signatures (padded lanes stay cell 0, a valid id) and a
      // random contribution table.
      std::vector<uint8_t> sig(
          static_cast<size_t>(simd::BlockedSize(rows, dim)), 0);
      std::vector<std::vector<uint8_t>> row_sigs(rows,
                                                 std::vector<uint8_t>(dim));
      for (int i = 0; i < rows; ++i) {
        const int64_t block = i / simd::kBlockRows;
        const int64_t lane = i % simd::kBlockRows;
        for (int j = 0; j < dim; ++j) {
          row_sigs[i][j] =
              static_cast<uint8_t>(rng.UniformInt(0, cells - 1));
          sig[(block * dim + j) * simd::kBlockRows + lane] = row_sigs[i][j];
        }
      }
      std::vector<double> table(static_cast<size_t>(dim) * cells);
      for (double& t : table) t = rng.UniformReal(0.0, 50.0);
      std::vector<double> out(rows);
      for (simd::Level level : AvailableLevels()) {
        simd::BatchVaLowerBound(level, table.data(), cells, sig.data(), dim,
                                rows, out.data());
        for (int i = 0; i < rows; ++i) {
          double acc = 0.0;
          for (int j = 0; j < dim; ++j) {
            acc += table[static_cast<size_t>(j) * cells + row_sigs[i][j]];
          }
          ExpectBitEqual(out[i], acc,
                         std::string("va/") + simd::LevelName(level) +
                             "/d" + std::to_string(dim) + "/row " +
                             std::to_string(i));
        }
      }
    }
  }
}

// ------------------------------------------------------- RelaxRow kernel --

// The SSP engines' improvement tolerance (tests/flow/min_cost_flow.cc).
constexpr double kRelaxEps = 1e-9;
constexpr int32_t kRelaxTail = 7;
constexpr double kPosInf = std::numeric_limits<double>::infinity();

struct RelaxInput {
  std::vector<double> cost;
  std::vector<double> head_potential;
  std::vector<double> distance;
  std::vector<int32_t> parent;
  double tail_potential = 0.0;
  double tail_distance = 0.0;
};

struct RelaxOutput {
  std::vector<double> distance;
  std::vector<int32_t> parent;
  std::vector<int32_t> improved;
  int64_t count = 0;
};

// With `list` false the kernel gets a null `improved` and writes no list.
RelaxOutput RunRelaxRow(simd::Level level, const RelaxInput& in,
                        bool list = true) {
  const int64_t n = static_cast<int64_t>(in.cost.size());
  RelaxOutput out{in.distance, in.parent, std::vector<int32_t>(n), 0};
  out.count = simd::RelaxRow(
      level, in.cost.data(), simd::kCostTile, in.tail_potential,
      in.head_potential.data(), in.tail_distance, kRelaxEps,
      out.distance.data(), out.parent.data(), kRelaxTail,
      list ? out.improved.data() : nullptr, n);
  out.improved.resize(list ? static_cast<size_t>(out.count) : 0);
  return out;
}

// One arc of the generic engine's loop (tests/flow/min_cost_flow.cc),
// whose clamp keeps a −0.0 reduced cost.
RelaxOutput GenericRelaxation(const RelaxInput& in) {
  RelaxOutput out{in.distance, in.parent, {}, 0};
  for (size_t i = 0; i < in.cost.size(); ++i) {
    double reduced = in.cost[i] + in.tail_potential - in.head_potential[i];
    if (reduced < 0.0) reduced = 0.0;
    const double candidate = in.tail_distance + reduced;
    if (candidate + kRelaxEps < out.distance[i]) {
      out.distance[i] = candidate;
      out.parent[i] = kRelaxTail;
      out.improved.push_back(static_cast<int32_t>(i));
    }
  }
  out.count = static_cast<int64_t>(out.improved.size());
  return out;
}

void ExpectSameRelaxation(const RelaxOutput& got, const RelaxOutput& want,
                          const std::string& context) {
  ASSERT_EQ(got.count, want.count) << context;
  EXPECT_EQ(got.improved, want.improved) << context;
  EXPECT_EQ(got.parent, want.parent) << context;
  for (size_t i = 0; i < want.distance.size(); ++i) {
    ExpectBitEqual(got.distance[i], want.distance[i],
                   context + " arc " + std::to_string(i));
  }
}

// A row mixing every regime the engine feeds the kernel: saturated (+inf)
// arcs, reduced costs of exactly +0.0 and (when the tail potential is
// −0.0) −0.0, rounding negatives, and current distances of +inf, random,
// and exactly / one ulp either side of the ε boundary cand + ε.
RelaxInput RandomRelaxRow(int n, double tail_potential, double tail_distance,
                          Rng& rng) {
  RelaxInput in;
  in.tail_potential = tail_potential;
  in.tail_distance = tail_distance;
  for (int i = 0; i < n; ++i) {
    double cost = rng.UniformReal(0.0, 1.0);
    double head = rng.UniformReal(0.0, 2.0);
    switch (rng.UniformInt(0, 4)) {
      case 0:
        cost = kPosInf;
        break;
      case 1:  // reduced cost exactly +0.0
        head = cost + tail_potential;
        break;
      case 2:  // −0.0 + −0.0 − (+0.0) = −0.0 when the tail potential is −0.0
        cost = -0.0;
        head = 0.0;
        break;
      case 3:  // a rounding negative the clamp lifts to zero
        head = cost + tail_potential + 1e-13;
        break;
      default:
        break;
    }
    double reduced = (cost + tail_potential) - head;
    reduced = reduced > 0.0 ? reduced : 0.0;
    const double boundary = (tail_distance + reduced) + kRelaxEps;
    double distance = rng.UniformReal(0.0, 3.0);
    switch (rng.UniformInt(0, 4)) {
      case 0:
        distance = kPosInf;
        break;
      case 1:
        distance = boundary;  // cand + ε == dist: not an improvement
        break;
      case 2:
        distance = std::nextafter(boundary, kPosInf);  // improves
        break;
      case 3:
        distance = std::nextafter(boundary, -kPosInf);
        break;
      default:
        break;
    }
    in.cost.push_back(cost);
    in.head_potential.push_back(head);
    in.distance.push_back(distance);
    in.parent.push_back(static_cast<int32_t>(rng.UniformInt(-1, 50)));
  }
  return in;
}

TEST(RelaxRowKernel, IdenticalBitsAtEveryLevel) {
  // Row lengths around the AVX2 width (4), including ones that leave a
  // scalar tail; every tail distance, −0.0 included.
  for (int n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 31, 64, 103}) {
    for (double tail_potential : {0.0, -0.0, 0.75}) {
      for (double tail_distance : {0.0, -0.0, 0.3125, 1.5}) {
        Rng rng(static_cast<uint64_t>(n) * 131 +
                static_cast<uint64_t>(tail_distance * 64));
        const RelaxInput in =
            RandomRelaxRow(n, tail_potential, tail_distance, rng);
        const RelaxOutput scalar = RunRelaxRow(simd::Level::kScalar, in);
        RelaxOutput unlisted = scalar;
        unlisted.improved.clear();
        for (simd::Level level : AvailableLevels()) {
          const std::string at =
              std::string(simd::LevelName(level)) + " n=" +
              std::to_string(n) + " pi=" + std::to_string(tail_potential) +
              " d=" + std::to_string(tail_distance);
          ExpectSameRelaxation(RunRelaxRow(level, in), scalar, at);
          ExpectSameRelaxation(RunRelaxRow(level, in, /*list=*/false),
                               unlisted, at + " without a list");
        }
      }
    }
  }
}

TEST(RelaxRowKernel, MatchesGenericRelaxationForNonNegativeTails) {
  // The engines' distances are never −0.0, and for every other tail
  // distance the max clamp and the generic `r < 0` clamp give the same
  // candidate — including on −0.0 reduced costs.
  int improved = 0;
  for (int n : {1, 3, 4, 7, 17, 64, 101}) {
    for (double tail_potential : {0.0, -0.0, 0.5}) {
      for (double tail_distance : {0.0, 0.25, 2.0}) {
        Rng rng(static_cast<uint64_t>(n) * 977 + 5);
        const RelaxInput in =
            RandomRelaxRow(n, tail_potential, tail_distance, rng);
        const RelaxOutput want = GenericRelaxation(in);
        improved += static_cast<int>(want.count);
        for (simd::Level level : AvailableLevels()) {
          ExpectSameRelaxation(
              RunRelaxRow(level, in), want,
              std::string(simd::LevelName(level)) + " n=" +
                  std::to_string(n) + " pi=" + std::to_string(tail_potential) +
                  " d=" + std::to_string(tail_distance));
        }
      }
    }
  }
  EXPECT_GT(improved, 0);
}

TEST(RelaxRowKernel, EpsBoundarySignedZerosAndInfinity) {
  // Five arcs from a tail at distance 0 with potential −0.0, so the first
  // arc's reduced cost is exactly −0.0.
  RelaxInput in;
  in.tail_potential = -0.0;
  in.tail_distance = 0.0;
  in.cost = {-0.0, 0.5, 0.5, 0.5, kPosInf};
  in.head_potential = {0.0, 0.5, 0.25, 0.25, 0.0};
  const double cand = 0.25;  // (0.5 − 0.0) − 0.25
  in.distance = {kPosInf, kPosInf, cand + kRelaxEps,
                 std::nextafter(cand + kRelaxEps, kPosInf), kPosInf};
  in.parent = {-1, -1, 3, 3, -1};
  for (simd::Level level : AvailableLevels()) {
    const RelaxOutput out = RunRelaxRow(level, in);
    const std::string at = simd::LevelName(level);
    EXPECT_EQ(out.count, 3) << at;
    EXPECT_EQ(out.improved, (std::vector<int32_t>{0, 1, 3})) << at;
    ExpectBitEqual(out.distance[0], 0.0, at + " −0.0 reduced → +0.0");
    ExpectBitEqual(out.distance[1], 0.0, at + " +0.0 reduced");
    ExpectBitEqual(out.distance[2], cand + kRelaxEps, at + " on the boundary");
    ExpectBitEqual(out.distance[3], cand, at + " one ulp past it");
    ExpectBitEqual(out.distance[4], kPosInf, at + " saturated arc");
    EXPECT_EQ(out.parent,
              (std::vector<int32_t>{kRelaxTail, kRelaxTail, 3, kRelaxTail, -1}))
        << at;
  }
}

// --------------------------------------- tiled rows and the free-event pass --

// A |V| × n cost matrix in the transport engine's user-tiled layout
// (simd/kernels.h), padded past n with +inf, beside its plain rows.
struct TiledCosts {
  int events = 0;
  int64_t users = 0;
  int64_t stride = 0;
  std::vector<double> tiles;
  std::vector<std::vector<double>> rows;

  const double* Row(int e) const {
    return tiles.data() + static_cast<int64_t>(e) * simd::kCostTile;
  }
};

// Every fourth cost is +inf (a pair carrying flow), and some are −0.0.
TiledCosts RandomTiledCosts(int events, int64_t users, Rng& rng) {
  TiledCosts out;
  out.events = events;
  out.users = users;
  out.stride = static_cast<int64_t>(events) * simd::kCostTile;
  const int64_t tiles = (users + simd::kCostTile - 1) / simd::kCostTile;
  out.tiles.assign(static_cast<size_t>(tiles * out.stride), kPosInf);
  out.rows.assign(events, std::vector<double>(users));
  for (int e = 0; e < events; ++e) {
    for (int64_t i = 0; i < users; ++i) {
      double cost = rng.UniformReal(0.0, 1.0);
      switch (rng.UniformInt(0, 5)) {
        case 0:
          cost = kPosInf;
          break;
        case 1:
          cost = -0.0;
          break;
        case 2:  // a short list of values, so candidates tie across events
          cost = 0.25 * static_cast<double>(rng.UniformInt(0, 3));
          break;
        default:
          break;
      }
      out.rows[e][i] = cost;
      out.tiles[static_cast<size_t>((i / simd::kCostTile) * out.stride +
                                    e * simd::kCostTile +
                                    i % simd::kCostTile)] = cost;
    }
  }
  return out;
}

// Non-negative head potentials (one in eight exactly +0.0) and current
// distances of +inf, random, or near a candidate's ε boundary.
void RandomHeads(int64_t users, Rng& rng, std::vector<double>* potential,
                 std::vector<double>* distance, std::vector<int32_t>* parent) {
  potential->clear();
  distance->clear();
  parent->clear();
  for (int64_t i = 0; i < users; ++i) {
    const double pi = rng.UniformInt(0, 7) == 0 ? 0.0 : rng.UniformReal(0, 0.5);
    potential->push_back(pi);
    double dist = kPosInf;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        dist = rng.UniformReal(0.0, 1.0);
        break;
      case 1:  // on the boundary of a candidate of cost 0.5
        dist = std::max(0.5 - pi, 0.0) + kRelaxEps;
        break;
      default:
        break;
    }
    distance->push_back(dist);
    parent->push_back(static_cast<int32_t>(rng.UniformInt(-1, 50)));
  }
}

TEST(RelaxRowKernel, StridedRowsMatchTheirPlainRowsAtEveryLevel) {
  // Every event row of a tiled matrix, read through the stride, must
  // equal the per-arc loop over the same row read plainly, at every level.
  int improved = 0;
  for (int64_t users : {1, 3, 4, 5, 8, 31, 33, 70}) {
    for (int events : {1, 3, 7}) {
      Rng rng(static_cast<uint64_t>(users) * 31 + events);
      const TiledCosts costs = RandomTiledCosts(events, users, rng);
      for (int e = 0; e < events; ++e) {
        RelaxInput in;
        in.cost = costs.rows[e];
        in.tail_potential = e == 0 ? 0.0 : rng.UniformReal(0.0, 0.5);
        in.tail_distance = e == 0 ? 0.0 : rng.UniformReal(0.0, 1.0);
        RandomHeads(users, rng, &in.head_potential, &in.distance, &in.parent);
        const RelaxOutput want = GenericRelaxation(in);
        improved += static_cast<int>(want.count);
        for (simd::Level level : AvailableLevels()) {
          const std::string at = std::string(simd::LevelName(level)) +
                                 " users=" + std::to_string(users) +
                                 " events=" + std::to_string(events) +
                                 " e=" + std::to_string(e);
          RelaxOutput got{in.distance, in.parent,
                          std::vector<int32_t>(users), 0};
          got.count = simd::RelaxRow(
              level, costs.Row(e), costs.stride, in.tail_potential,
              in.head_potential.data(), in.tail_distance, kRelaxEps,
              got.distance.data(), got.parent.data(), kRelaxTail,
              got.improved.data(), users);
          got.improved.resize(static_cast<size_t>(got.count));
          ExpectSameRelaxation(got, want, at);
        }
      }
    }
  }
  EXPECT_GT(improved, 0);
}

constexpr int32_t kPassMark = -2;

// The pass as a per-arc loop: each listed event's row in turn through the
// generic engine's relaxation from a tail at potential and distance +0.0,
// with the mark as the parent.
RelaxOutput GenericPass(const TiledCosts& costs,
                        const std::vector<int32_t>& events,
                        const std::vector<double>& potential,
                        const std::vector<double>& distance,
                        const std::vector<int32_t>& parent) {
  RelaxOutput out{distance, parent, {}, 0};
  for (const int32_t e : events) {
    for (int64_t i = 0; i < costs.users; ++i) {
      double reduced = costs.rows[e][i] + 0.0 - potential[i];
      if (reduced < 0.0) reduced = 0.0;
      const double candidate = 0.0 + reduced;
      if (candidate + kRelaxEps < out.distance[i]) {
        out.distance[i] = candidate;
        out.parent[i] = kPassMark;
        ++out.count;
      }
    }
  }
  return out;
}

RelaxOutput RunPass(simd::Level level, const TiledCosts& costs,
                    const std::vector<int32_t>& events,
                    const std::vector<double>& potential,
                    const std::vector<double>& distance,
                    const std::vector<int32_t>& parent) {
  RelaxOutput out{distance, parent, {}, 0};
  out.count = simd::RelaxFreeEvents(
      level, costs.tiles.data(), costs.stride, events.data(),
      static_cast<int64_t>(events.size()), potential.data(), kRelaxEps,
      out.distance.data(), out.parent.data(), kPassMark, costs.users);
  return out;
}

TEST(RelaxFreeEventsKernel, MatchesThePerArcLoopAtEveryLevel) {
  // User counts around the tile (4) and the AVX2 group (32 users); free
  // sets empty, sparse and full.
  int improved = 0;
  for (int64_t users : {0, 1, 3, 4, 5, 28, 31, 32, 33, 36, 64, 67, 101}) {
    for (int events : {1, 6, 13}) {
      Rng rng(static_cast<uint64_t>(users) * 7 + events);
      const TiledCosts costs = RandomTiledCosts(events, users, rng);
      std::vector<double> potential, distance;
      std::vector<int32_t> parent;
      RandomHeads(users, rng, &potential, &distance, &parent);
      std::vector<int32_t> all, some;
      for (int e = 0; e < events; ++e) {
        all.push_back(e);
        if (e % 3 != 1) some.push_back(e);
      }
      for (const auto& free : {std::vector<int32_t>{}, some, all}) {
        const RelaxOutput want =
            GenericPass(costs, free, potential, distance, parent);
        improved += static_cast<int>(want.count);
        for (simd::Level level : AvailableLevels()) {
          ExpectSameRelaxation(
              RunPass(level, costs, free, potential, distance, parent), want,
              std::string(simd::LevelName(level)) +
                  " users=" + std::to_string(users) +
                  " events=" + std::to_string(events) +
                  " free=" + std::to_string(free.size()));
        }
      }
    }
  }
  EXPECT_GT(improved, 0);
}

TEST(RelaxFreeEventsKernel, EmptySetSignedZerosAndInfinity) {
  // Six users, two events. User 0's costs are −0.0 at head potential
  // +0.0 (a −0.0 reduced cost); user 1's are +inf (both pairs carry flow);
  // user 2 ties within ε, so the second event must not take it; user 3
  // improves on the second event only; user 4 sits at exactly cand + ε;
  // user 5 is padding-free tail past the first tile.
  TiledCosts costs;
  costs.events = 2;
  costs.users = 6;
  costs.stride = 2 * simd::kCostTile;
  costs.rows = {{-0.0, kPosInf, 0.5, 0.75, 0.5, 0.625},
                {-0.0, kPosInf, 0.5 - 0.5e-9, 0.25, 0.5, 0.125}};
  costs.tiles.assign(2 * costs.stride, kPosInf);
  for (int e = 0; e < 2; ++e) {
    for (int i = 0; i < 6; ++i) {
      costs.tiles[(i / 4) * costs.stride + e * 4 + i % 4] = costs.rows[e][i];
    }
  }
  const std::vector<double> potential = {0.0, 0.0, 0.0, 0.0, 0.25, 0.0};
  const std::vector<double> distance = {kPosInf, kPosInf, kPosInf, kPosInf,
                                        0.25 + kRelaxEps, kPosInf};
  const std::vector<int32_t> parent = {-1, -1, -1, -1, 9, -1};
  for (simd::Level level : AvailableLevels()) {
    const std::string at = simd::LevelName(level);
    const RelaxOutput none = RunPass(level, costs, {}, potential, distance,
                                     parent);
    EXPECT_EQ(none.count, 0) << at;
    EXPECT_EQ(none.parent, parent) << at;
    for (int i = 0; i < 6; ++i) {
      ExpectBitEqual(none.distance[i], distance[i], at + " empty set");
    }
    const RelaxOutput out =
        RunPass(level, costs, {0, 1}, potential, distance, parent);
    EXPECT_EQ(out.count, 6) << at;
    ExpectBitEqual(out.distance[0], 0.0, at + " −0.0 reduced → +0.0");
    ExpectBitEqual(out.distance[1], kPosInf, at + " saturated pairs");
    ExpectBitEqual(out.distance[2], 0.5, at + " ε tie keeps the first");
    ExpectBitEqual(out.distance[3], 0.25, at + " second event improves");
    ExpectBitEqual(out.distance[4], 0.25 + kRelaxEps, at + " on the boundary");
    ExpectBitEqual(out.distance[5], 0.125, at + " past the first tile");
    EXPECT_EQ(out.parent, (std::vector<int32_t>{kPassMark, -1, kPassMark,
                                                kPassMark, 9, kPassMark}))
        << at;
  }
}

// ------------------------------------------------------------- dispatch ---

TEST(Dispatch, OverrideRoundTripsAndRejectsUnknown) {
  std::string error;
  ASSERT_TRUE(simd::SetDispatchOverride("scalar", &error)) << error;
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  EXPECT_FALSE(simd::SetDispatchOverride("sse9000", &error));
  EXPECT_FALSE(error.empty());
  // A bad request must not clobber the previous override.
  EXPECT_EQ(simd::ActiveLevel(), simd::Level::kScalar);
  if (simd::CpuSupportsAvx2()) {
    ASSERT_TRUE(simd::SetDispatchOverride("avx2", &error)) << error;
    EXPECT_EQ(simd::ActiveLevel(), simd::Level::kAvx2);
  } else {
    EXPECT_FALSE(simd::SetDispatchOverride("avx2", &error));
  }
  ASSERT_TRUE(simd::SetDispatchOverride("auto", &error)) << error;
}

}  // namespace
}  // namespace geacc
