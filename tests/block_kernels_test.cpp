// Blocked SoA kernel equivalence (poly/interpolate.h, poly/polynomial.h):
// batch_combine_block / accumulate_rows_block / eval_polys_block must be
// bit-for-bit equal to their scalar loops AND perform identical field op
// counts (the Lemma 2/4/6/8 trace budgets depend on it); PolyBlock::random
// must draw what Polynomial::random draws;
// interpolate_at_block must be value-equal to per-column interpolate_at
// (it is allowed — designed — to use fewer multiplications).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/arena.h"
#include "common/metrics.h"
#include "gf/gf2.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"
#include "vss/batch_vss.h"

namespace dprbg {
namespace {

template <typename F>
class BlockKernelsTest : public ::testing::Test {};

using FieldTypes = ::testing::Types<GF2_8, GF2_64>;
TYPED_TEST_SUITE(BlockKernelsTest, FieldTypes);

template <typename F>
std::vector<std::vector<F>> random_matrix(std::size_t rows, std::size_t m,
                                          Chacha& rng) {
  std::vector<std::vector<F>> out(rows);
  for (auto& row : out) {
    row.resize(m);
    for (auto& v : row) v = random_element<F>(rng);
  }
  return out;
}

TYPED_TEST(BlockKernelsTest, BatchCombineBlockMatchesScalarExactly) {
  using F = TypeParam;
  Chacha rng(101);
  for (std::size_t rows : {std::size_t{1}, std::size_t{5}, std::size_t{32},
                           std::size_t{33}, std::size_t{70}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{4}, std::size_t{65}}) {
      const auto mat = random_matrix<F>(rows, m, rng);
      const F r = random_element<F>(rng);

      const FieldCounters before_scalar = field_counters();
      std::vector<F> expect(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        expect[i] = batch_combine<F>(mat[i], r);
      }
      const FieldCounters scalar_ops = field_counters() - before_scalar;

      std::vector<const F*> ptrs(rows);
      for (std::size_t i = 0; i < rows; ++i) ptrs[i] = mat[i].data();
      std::vector<F> got(rows);
      const FieldCounters before_block = field_counters();
      batch_combine_block<F>(ptrs, m, r, got);
      const FieldCounters block_ops = field_counters() - before_block;

      ASSERT_EQ(got, expect) << "rows=" << rows << " m=" << m;
      EXPECT_EQ(block_ops.adds, scalar_ops.adds) << "rows=" << rows;
      EXPECT_EQ(block_ops.muls, scalar_ops.muls) << "rows=" << rows;
    }
  }
}

TYPED_TEST(BlockKernelsTest, AccumulateRowsBlockMatchesScalarExactly) {
  using F = TypeParam;
  Chacha rng(202);
  for (std::size_t rows : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                          std::size_t{200}}) {
      const auto mat = random_matrix<F>(rows, m, rng);

      const FieldCounters before_scalar = field_counters();
      std::vector<F> expect(m, F::zero());
      for (std::size_t h = 0; h < m; ++h) {
        for (std::size_t i = 0; i < rows; ++i) {
          expect[h] = expect[h] + mat[i][h];
        }
      }
      const FieldCounters scalar_ops = field_counters() - before_scalar;

      std::vector<const F*> ptrs(rows);
      for (std::size_t i = 0; i < rows; ++i) ptrs[i] = mat[i].data();
      std::vector<F> got(m, F::zero());
      const FieldCounters before_block = field_counters();
      accumulate_rows_block<F>(ptrs, got);
      const FieldCounters block_ops = field_counters() - before_block;

      ASSERT_EQ(got, expect) << "rows=" << rows << " m=" << m;
      EXPECT_EQ(block_ops.adds, scalar_ops.adds);
      EXPECT_EQ(block_ops.muls, scalar_ops.muls);
    }
  }
}

TYPED_TEST(BlockKernelsTest, EvalPolysBlockMatchesScalarExactly) {
  using F = TypeParam;
  Chacha rng(303);
  for (std::size_t count : {std::size_t{1}, std::size_t{17},
                            std::size_t{32}, std::size_t{40}}) {
    std::vector<Polynomial<F>> polys;
    for (std::size_t j = 0; j < count; ++j) {
      // Ragged degrees (including the zero polynomial) so the per-poly
      // engagement guard is exercised.
      polys.push_back(
          Polynomial<F>::random(static_cast<unsigned>(j % 7), rng));
    }
    polys.push_back(Polynomial<F>{});  // zero polynomial
    const F x = random_element<F>(rng);

    const FieldCounters before_scalar = field_counters();
    std::vector<F> expect;
    for (const auto& p : polys) expect.push_back(p(x));
    const FieldCounters scalar_ops = field_counters() - before_scalar;

    const auto block = PolyBlock<F>::from_polys(polys);
    std::vector<F> got(polys.size());
    const FieldCounters before_block = field_counters();
    eval_polys_block<F>(block, x, got);
    const FieldCounters block_ops = field_counters() - before_block;

    ASSERT_EQ(got, expect) << "count=" << count;
    EXPECT_EQ(block_ops.adds, scalar_ops.adds);
    EXPECT_EQ(block_ops.muls, scalar_ops.muls);
  }
}

// A dealer's block at protocol shape (degree t, untrimmed) with zero top
// coefficients and zero secrets planted: the trimmed lengths go ragged
// inside a tile, and evaluation must still equal the Polynomial Horner
// loop in values and in FieldCounters deltas.
TYPED_TEST(BlockKernelsTest, PolyBlockEvalMatchesPolynomialLoop) {
  using F = TypeParam;
  Chacha rng(606);
  for (unsigned deg : {0u, 1u, 3u}) {
    for (std::size_t count : {std::size_t{1}, std::size_t{33},
                              std::size_t{70}}) {
      auto block = PolyBlock<F>::random(count, deg, rng);
      for (std::size_t j = 0; j < count; j += 3) {
        block.coeffs(j)[deg] = F::zero();  // zero top coefficient
      }
      for (std::size_t j = 0; j < count; j += 5) {
        block.coeffs(j)[0] = F::zero();  // zero secret
      }
      for (std::size_t j = 0; j < count; j += 7) {
        for (F& c : block.coeffs(j)) c = F::zero();  // zero polynomial
      }
      for (const int point : {0, 1, 6}) {
        const F x = eval_point<F>(point);
        const FieldCounters before_scalar = field_counters();
        std::vector<F> expect;
        for (std::size_t j = 0; j < count; ++j) {
          expect.push_back(block.poly(j)(x));
        }
        const FieldCounters scalar_ops = field_counters() - before_scalar;

        std::vector<F> got(count);
        const FieldCounters before_block = field_counters();
        eval_polys_block<F>(block, x, got);
        const FieldCounters block_ops = field_counters() - before_block;

        ASSERT_EQ(got, expect) << "deg=" << deg << " count=" << count;
        EXPECT_EQ(block_ops.adds, scalar_ops.adds) << "deg=" << deg;
        EXPECT_EQ(block_ops.muls, scalar_ops.muls) << "deg=" << deg;
      }
    }
  }
}

// PolyBlock::random is a drop-in for a loop of Polynomial::random calls:
// same coefficients from one ChaCha stream, and the stream ends in the
// same state.
TYPED_TEST(BlockKernelsTest, PolyBlockRandomMatchesPolynomialRandom) {
  using F = TypeParam;
  for (unsigned deg : {0u, 1u, 2u, 5u}) {
    const std::size_t count = 41;
    Chacha block_rng(707, deg);
    Chacha poly_rng(707, deg);
    const auto block = PolyBlock<F>::random(count, deg, block_rng);
    ASSERT_EQ(block.size(), count);
    ASSERT_EQ(block.stride(), deg + 1);
    for (std::size_t j = 0; j < count; ++j) {
      const auto p = Polynomial<F>::random(deg, poly_rng);
      EXPECT_EQ(block.poly(j), p) << "deg=" << deg << " j=" << j;
      EXPECT_EQ(block.trimmed_len(j), p.coeffs().size());
    }
    EXPECT_EQ(block_rng.next_u64(), poly_rng.next_u64()) << "deg=" << deg;
  }
}

TYPED_TEST(BlockKernelsTest, InterpolateAtBlockMatchesPerColumn) {
  using F = TypeParam;
  Chacha rng(404);
  for (std::size_t n : {std::size_t{1}, std::size_t{4}, std::size_t{9}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{7}, std::size_t{80}}) {
      const auto mat = random_matrix<F>(n, m, rng);
      std::vector<PointValue<F>> points(n);
      for (std::size_t i = 0; i < n; ++i) {
        points[i] = {eval_point<F>(static_cast<int>(i)), F::zero()};
      }
      const F target = F::zero();

      std::vector<F> expect(m);
      for (std::size_t h = 0; h < m; ++h) {
        std::vector<PointValue<F>> col(n);
        for (std::size_t i = 0; i < n; ++i) {
          col[i] = {points[i].x, mat[i][h]};
        }
        expect[h] = interpolate_at<F>(col, target);
      }

      std::vector<const F*> ptrs(n);
      for (std::size_t i = 0; i < n; ++i) ptrs[i] = mat[i].data();
      std::vector<F> got(m);
      interpolate_at_block<F>(points, ptrs, target, got);
      ASSERT_EQ(got, expect) << "n=" << n << " m=" << m;
    }
  }
}

// Off-grid points (no cached-grid fast path) take the computed-weights
// branch of interpolate_at_block.
TYPED_TEST(BlockKernelsTest, InterpolateAtBlockOffGrid) {
  using F = TypeParam;
  Chacha rng(505);
  const std::size_t n = 5, m = 13;
  const auto mat = random_matrix<F>(n, m, rng);
  std::vector<PointValue<F>> points(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Distinct but non-grid x coordinates.
    points[i] = {eval_point<F>(static_cast<int>(2 * i + 1)), F::zero()};
  }
  const F target = random_element<F>(rng);
  std::vector<F> expect(m);
  for (std::size_t h = 0; h < m; ++h) {
    std::vector<PointValue<F>> col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = {points[i].x, mat[i][h]};
    expect[h] = interpolate_at<F>(col, target);
  }
  std::vector<const F*> ptrs(n);
  for (std::size_t i = 0; i < n; ++i) ptrs[i] = mat[i].data();
  std::vector<F> got(m);
  interpolate_at_block<F>(points, ptrs, target, got);
  EXPECT_EQ(got, expect);
}

// Arena sanity: nested scopes rewind to their high-water marks and the
// scratch survives heavy reuse without growing unboundedly.
TEST(ArenaTest, ScopedRewindAndReuse) {
  Arena arena(64);
  std::size_t cap_after_first = 0;
  {
    ArenaScope outer(arena);
    auto a = arena.alloc_span<std::uint64_t>(100);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
    {
      ArenaScope inner(arena);
      auto b = arena.alloc_span<std::uint32_t>(1000);
      EXPECT_EQ(b[999], 0u);  // value-initialized
    }
    // Inner scope rewound; outer allocation is intact.
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], i);
    }
    cap_after_first = arena.capacity();
  }
  // Repeated identical usage must not grow capacity further.
  for (int round = 0; round < 100; ++round) {
    ArenaScope scope(arena);
    auto a = arena.alloc_span<std::uint64_t>(100);
    auto b = arena.alloc_span<std::uint32_t>(1000);
    a[0] = b[0];
  }
  EXPECT_EQ(arena.capacity(), cap_after_first);
}

TEST(ArenaTest, AlignmentIsRespected) {
  Arena arena(16);
  for (int i = 0; i < 50; ++i) {
    ArenaScope scope(arena);
    arena.allocate(1, 1);
    void* p = arena.allocate(8, 8);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 8, 0u);
    void* q = arena.allocate(32, 32);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(q) % 32, 0u);
  }
}

TEST(ArenaTest, ScratchVecFallsBackForNonTrivialTypes) {
  Arena arena(64);
  ArenaScope scope(arena);
  ScratchVec<std::vector<int>> v(scope, 3);  // non-trivial destructor
  v[0].push_back(42);
  EXPECT_EQ(v[0][0], 42);
  EXPECT_EQ(v.size(), 3u);
}

}  // namespace
}  // namespace dprbg
