// Tests for Lagrange interpolation and the degree test (Problem 1's
// "basic solution", Section 3.1).

#include <gtest/gtest.h>

#include <vector>

#include "gf/gf2.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

using F = GF2_32;
using P = Polynomial<F>;

F fe(std::uint64_t v) { return F::from_uint(v); }

std::vector<PointValue<F>> sample(const P& p, int n) {
  std::vector<PointValue<F>> pts;
  for (int i = 1; i <= n; ++i) {
    pts.push_back({fe(i), p(fe(i))});
  }
  return pts;
}

TEST(InterpolateTest, RecoversOriginalPolynomial) {
  Chacha rng(1);
  for (unsigned deg = 0; deg <= 10; ++deg) {
    const P p = P::random(deg, rng);
    const auto pts = sample(p, static_cast<int>(deg) + 1);
    EXPECT_EQ(lagrange_interpolate<F>(pts), p) << "deg=" << deg;
  }
}

TEST(InterpolateTest, MorePointsThanDegreeStillExact) {
  Chacha rng(2);
  const P p = P::random(4, rng);
  const auto pts = sample(p, 12);
  // Using only the first 5 points must reconstruct p exactly.
  EXPECT_EQ(lagrange_interpolate<F>(std::span(pts).first(5)), p);
}

TEST(InterpolateTest, SinglePointConstant) {
  const std::vector<PointValue<F>> pts = {{fe(3), fe(42)}};
  const P p = lagrange_interpolate<F>(pts);
  EXPECT_EQ(p.degree(), 0);
  EXPECT_EQ(p(fe(99)), fe(42));
}

TEST(InterpolateTest, InterpolateAtMatchesFull) {
  Chacha rng(3);
  const P p = P::random(6, rng);
  const auto pts = sample(p, 7);
  EXPECT_EQ(interpolate_at<F>(pts, F::zero()), p(F::zero()));
  EXPECT_EQ(interpolate_at<F>(pts, fe(1000)), p(fe(1000)));
}

TEST(InterpolateTest, DegreeTestAcceptsLowDegree) {
  Chacha rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const P p = P::random(3, rng);
    const auto pts = sample(p, 10);
    EXPECT_TRUE(is_degree_at_most<F>(pts, 3));
    EXPECT_TRUE(is_degree_at_most<F>(pts, 5));
  }
}

TEST(InterpolateTest, DegreeTestRejectsHighDegree) {
  Chacha rng(5);
  int rejected = 0;
  for (int trial = 0; trial < 20; ++trial) {
    P p = P::random(7, rng);
    while (p.degree() < 7) p = P::random(7, rng);  // force degree exactly 7
    const auto pts = sample(p, 10);
    if (!is_degree_at_most<F>(pts, 3)) ++rejected;
  }
  // Over GF(2^32) a random degree-7 polynomial never looks degree-3 on 10
  // points except with probability ~2^-32 per trial.
  EXPECT_EQ(rejected, 20);
}

TEST(InterpolateTest, DegreeTestVacuousWithFewPoints) {
  Chacha rng(6);
  const P p = P::random(9, rng);
  const auto pts = sample(p, 4);
  EXPECT_TRUE(is_degree_at_most<F>(pts, 3));  // 4 points always fit deg 3
}

TEST(InterpolateTest, ShuffledPointsGiveSamePolynomial) {
  Chacha rng(7);
  const P p = P::random(5, rng);
  auto pts = sample(p, 6);
  std::swap(pts[0], pts[5]);
  std::swap(pts[2], pts[3]);
  EXPECT_EQ(lagrange_interpolate<F>(pts), p);
}

TEST(InterpolateTest, CountsOneInterpolation) {
  Chacha rng(8);
  const P p = P::random(3, rng);
  const auto pts = sample(p, 4);
  const FieldCounters before = field_counters();
  (void)lagrange_interpolate<F>(pts);
  const FieldCounters delta = field_counters() - before;
  EXPECT_EQ(delta.interpolations, 1u);
}

// GF(2^64) interpolation off the cached 1..n grid: a roster missing a
// middle player (Berlekamp-Welch over a share subset) and a shuffled full
// roster. Values must match the on-grid results for the same polynomial,
// and the op counts of each off-grid call are pinned.
using G = GF2_64;
using PG = Polynomial<G>;

G ge(std::uint64_t v) { return G::from_uint(v); }

std::vector<PointValue<G>> sample_at(const PG& p,
                                     const std::vector<unsigned>& xs) {
  std::vector<PointValue<G>> pts;
  for (unsigned x : xs) pts.push_back({ge(x), p(ge(x))});
  return pts;
}

struct OffGridCounts {
  FieldCounters full;   // lagrange_interpolate
  FieldCounters at;     // interpolate_at(target)
  FieldCounters block;  // interpolate_at_block over kColumns columns
};

constexpr std::size_t kColumns = 3;

void check_off_grid(const std::vector<unsigned>& roster,
                    const std::vector<unsigned>& grid,
                    const OffGridCounts& want) {
  Chacha rng(11);
  const unsigned deg = static_cast<unsigned>(roster.size()) - 1;
  std::vector<PG> polys;
  for (std::size_t h = 0; h < kColumns; ++h) {
    polys.push_back(PG::random(deg, rng));
  }
  const G target = ge(1000);
  const auto on = sample_at(polys[0], grid);
  const auto off = sample_at(polys[0], roster);

  // Per-column share rows for the block kernel, on and off the grid.
  auto rows_for = [&](const std::vector<unsigned>& xs) {
    std::vector<std::vector<G>> rows(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      for (const PG& p : polys) rows[i].push_back(p(ge(xs[i])));
    }
    return rows;
  };
  const auto on_rows = rows_for(grid);
  const auto off_rows = rows_for(roster);
  std::vector<const G*> on_ptrs, off_ptrs;
  for (const auto& r : on_rows) on_ptrs.push_back(r.data());
  for (const auto& r : off_rows) off_ptrs.push_back(r.data());

  // The on-grid references also warm the thread-local grid cache, whose
  // one-time build is charged to the first interpolation of each size.
  const PG want_poly = lagrange_interpolate<G>(on);
  const G want_at = interpolate_at<G>(on, target);
  std::vector<G> want_block(kColumns);
  interpolate_at_block<G>(on, on_ptrs, target, want_block);
  ASSERT_EQ(want_poly, polys[0]);

  FieldCounters before = field_counters();
  const PG got_poly = lagrange_interpolate<G>(off);
  const FieldCounters full = field_counters() - before;

  before = field_counters();
  const G got_at = interpolate_at<G>(off, target);
  const FieldCounters at = field_counters() - before;

  std::vector<G> got_block(kColumns);
  before = field_counters();
  interpolate_at_block<G>(off, off_ptrs, target, got_block);
  const FieldCounters block = field_counters() - before;

  EXPECT_EQ(got_poly, want_poly);
  EXPECT_EQ(got_at, want_at);
  EXPECT_EQ(got_block, want_block);

  auto expect_counts = [](const char* what, const FieldCounters& got,
                          const FieldCounters& exp) {
    EXPECT_EQ(got.adds, exp.adds) << what;
    EXPECT_EQ(got.muls, exp.muls) << what;
    EXPECT_EQ(got.invs, exp.invs) << what;
    EXPECT_EQ(got.interpolations, exp.interpolations) << what;
  };
  expect_counts("lagrange_interpolate", full, want.full);
  expect_counts("interpolate_at", at, want.at);
  expect_counts("interpolate_at_block", block, want.block);
}

TEST(InterpolateOffGridTest, RosterMissingMiddlePlayer) {
  check_off_grid({1, 2, 4, 5, 6, 7}, {1, 2, 3, 4, 5, 6},
                 {{123, 147, 1, 1}, {48, 78, 1, 1}, {60, 90, 1, kColumns}});
}

TEST(InterpolateOffGridTest, ShuffledFullRoster) {
  check_off_grid({3, 7, 1, 5, 2, 6, 4}, {1, 2, 3, 4, 5, 6, 7},
                 {{168, 196, 1, 1}, {63, 98, 1, 1}, {77, 112, 1, kColumns}});
}

}  // namespace
}  // namespace dprbg
