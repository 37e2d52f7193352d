// Blocked SoA kernel equivalence (poly/interpolate.h, poly/polynomial.h):
// batch_combine_block / accumulate_rows_block / eval_polys_block must be
// bit-for-bit equal to their scalar loops AND perform identical field op
// counts (the Lemma 2/4/6/8 trace budgets depend on it), on the generic
// loops and on the inline GF2_64 PCLMUL kernels (gf/gf2_clmul.h);
// PolyBlock::random must draw what Polynomial::random draws;
// interpolate_at_block must be value-equal to per-column interpolate_at
// (it is allowed — designed — to use fewer multiplications). Coin-Gen's
// qualification step reuses Bit-Gen's combinations (BitGenView::my_combo)
// and must reach the verdicts it reached when it recomputed them.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_gen.h"
#include "common/metrics.h"
#include "dprbg/coin_pool.h"
#include "dprbg/trusted_dealer.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/fault.h"
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
    for (std::size_t m : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                          std::size_t{65}}) {
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

// A dealer's block at protocol shape (degree t, untrimmed) at degrees
// 0-4, evaluated at Shamir points and at both sides of the GF2_64
// one-fold bound. Uniform blocks take the inline PCLMUL kernel when it is
// dispatched; planted zero top coefficients, zero secrets and zero
// polynomials make the trimmed lengths ragged inside a tile, which takes
// the generic loop. Either way evaluation must equal the Polynomial
// Horner loop in values and in FieldCounters deltas.
TYPED_TEST(BlockKernelsTest, PolyBlockEvalMatchesPolynomialLoop) {
  using F = TypeParam;
  Chacha rng(606);
  const std::vector<F> points = {
      eval_point<F>(0), eval_point<F>(1), eval_point<F>(6),
      F::from_uint(gf2_detail::kOneFoldBound - 1),
      F::from_uint(gf2_detail::kOneFoldBound)};
  for (unsigned deg : {0u, 1u, 2u, 3u, 4u}) {
    for (std::size_t count : {std::size_t{1}, std::size_t{33},
                              std::size_t{70}}) {
      for (const bool ragged : {false, true}) {
        auto block = PolyBlock<F>::random(count, deg, rng);
        for (std::size_t j = 0; ragged && j < count; j += 3) {
          block.coeffs(j)[deg] = F::zero();  // zero top coefficient
        }
        for (std::size_t j = 0; ragged && j < count; j += 5) {
          block.coeffs(j)[0] = F::zero();  // zero secret
        }
        for (std::size_t j = 0; ragged && j < count; j += 7) {
          for (F& c : block.coeffs(j)) c = F::zero();  // zero polynomial
        }
        for (const F x : points) {
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

          ASSERT_EQ(got, expect) << "deg=" << deg << " count=" << count
                                 << " ragged=" << ragged;
          EXPECT_EQ(block_ops.adds, scalar_ops.adds) << "deg=" << deg;
          EXPECT_EQ(block_ops.muls, scalar_ops.muls) << "deg=" << deg;
        }
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

// The block kernels against Horner with the shift-XOR multiply
// (clmul_reduce), whatever path the process dispatched: in a plain run this
// is the inline PCLMUL kernels (one-fold eval at x in {1, n, 2^60 - 1},
// the generic loop at 2^60 and above) against the portable path; under
// DPRBG_FORCE_SCALAR=1 it is the generic loops. Op counts are what the
// scalar loops count: trimmed_len per polynomial per point, m per row.
TEST(Gf2_64BlockKernelsTest, MatchShiftXorReference) {
  using F = GF2_64;
  Chacha rng(808);
  for (unsigned deg : {0u, 1u, 2u, 3u, 4u}) {
    auto block = PolyBlock<F>::random(70, deg, rng);
    block.coeffs(40)[deg] = F::zero();  // one ragged tile of three
    for (const std::uint64_t x :
         {std::uint64_t{1}, std::uint64_t{7}, gf2_detail::kOneFoldBound - 1,
          gf2_detail::kOneFoldBound, ~std::uint64_t{0}}) {
      std::vector<F> expect(block.size());
      std::uint64_t ops = 0;
      for (std::size_t j = 0; j < block.size(); ++j) {
        const std::size_t len = block.trimmed_len(j);
        std::uint64_t acc = 0;
        for (std::size_t i = len; i-- > 0;) {
          acc = gf2_detail::clmul_reduce<64>(acc, x) ^
                block.coeffs(j)[i].to_uint();
        }
        expect[j] = F::from_uint(acc);
        ops += len;
      }
      std::vector<F> got(block.size());
      const FieldCounters before = field_counters();
      eval_polys_block<F>(block, F::from_uint(x), got);
      const FieldCounters delta = field_counters() - before;
      ASSERT_EQ(got, expect) << "deg=" << deg << " x=" << x;
      EXPECT_EQ(delta.adds, ops);
      EXPECT_EQ(delta.muls, ops);
    }
  }
  for (std::size_t rows : {std::size_t{1}, std::size_t{7}, std::size_t{9}}) {
    for (std::size_t m : {std::size_t{1}, std::size_t{65},
                          std::size_t{4097}}) {
      const auto mat = random_matrix<F>(rows, m, rng);
      const F r = random_element<F>(rng);
      std::vector<F> expect(rows);
      std::vector<const F*> ptrs(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        std::uint64_t acc = 0;
        for (std::size_t j = m; j-- > 0;) {
          acc = gf2_detail::clmul_reduce<64>(acc ^ mat[i][j].to_uint(),
                                            r.to_uint());
        }
        expect[i] = F::from_uint(acc);
        ptrs[i] = mat[i].data();
      }
      std::vector<F> got(rows);
      const FieldCounters before = field_counters();
      batch_combine_block<F>(ptrs, m, r, got);
      const FieldCounters delta = field_counters() - before;
      ASSERT_EQ(got, expect) << "rows=" << rows << " m=" << m;
      EXPECT_EQ(delta.adds, rows * m);
      EXPECT_EQ(delta.muls, rows * m);
    }
  }
}

// bit_gen_all keeps each present dealer's combination share: my_combo is
// exactly batch_combine(my_row, r), and absent with the row (dealer 3
// crashed and dealt nothing).
TEST(Gf2_64BlockKernelsTest, BitGenKeepsOwnCombinations) {
  using F = GF2_64;
  const int n = 7;
  const unsigned t = 1, m_total = 17;
  const int crashed = 3;
  auto genesis = trusted_dealer_coins<F>(n, t, 2, 31);
  std::vector<BitGenAllOutcome<F>> outcomes(n);
  Cluster cluster(n, static_cast<int>(t), 31);
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        const auto polys = PolyBlock<F>::random(m_total, t, io.rng());
        outcomes[io.id()] = bit_gen_all<F>(io, polys, m_total, t, pool.take());
      },
      {crashed}, nullptr);
  for (int i = 0; i < n; ++i) {
    if (i == crashed) continue;
    const auto& out = outcomes[i];
    ASSERT_TRUE(out.challenge.has_value()) << "player " << i;
    for (int dealer = 0; dealer < n; ++dealer) {
      const auto& view = out.views[dealer];
      ASSERT_EQ(view.my_row.empty(), dealer == crashed);
      ASSERT_EQ(view.my_combo.has_value(), !view.my_row.empty())
          << "player " << i << " dealer " << dealer;
      if (view.my_combo) {
        EXPECT_EQ(*view.my_combo,
                  batch_combine<F>(view.my_row, *out.challenge))
            << "player " << i << " dealer " << dealer;
      }
    }
  }
}

// Dealers 2 and 9 hand player 5 corrupted rows (a link fault charged to
// them, the paper's "lying" dealer). The matching-based clique drops
// dealer 2 and player 5 but keeps dealer 9, so player 5 holds a row that
// fails F_9 and must come out unqualified while everyone else qualifies.
// Clique and verdicts were recorded before Coin-Gen reused bit_gen_all's
// combinations for qualification.
TEST(Gf2_64BlockKernelsTest, CoinGenCheatingDealerQualifiedVerdicts) {
  using F = GF2_64;
  const int n = 13, t = 2, victim = 5;
  const std::uint64_t seed = 1;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
  FaultPlan plan;
  for (const int dealer : {2, 9}) {
    plan.charge(dealer);
    plan.add(/*round=*/0, dealer, victim, {FaultAction::kCorrupt, 3});
  }
  std::vector<CoinGenResult<F>> results(n);
  Cluster cluster(n, t, seed);
  cluster.set_fault_injector(std::make_shared<FaultInjector>(plan));
  cluster.run(
      [&](PartyIo& io) {
        CoinPool<F> pool;
        for (auto& c : genesis[io.id()]) pool.add(std::move(c));
        results[io.id()] = coin_gen<F>(io, 64, pool);
      },
      {}, nullptr);
  const std::vector<int> clique = {0, 1, 3, 4, 6, 7, 8, 9, 10, 11, 12};
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(results[i].success) << "player " << i;
    EXPECT_EQ(results[i].clique, clique) << "player " << i;
    EXPECT_EQ(results[i].qualified, i != victim) << "player " << i;
    EXPECT_EQ(results[i].coin_shares.empty(), i == victim);
  }
}

}  // namespace
}  // namespace dprbg
