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

// GF(2^64) interpolation at a roster missing a middle player (a share
// subset under faults) and at a shuffled full roster. Values must match
// the 1..n grid's for the same polynomial, and the op counts are pinned;
// the grid holds no cached weights, so it costs the same at equal size.
using G = GF2_64;
using PG = Polynomial<G>;

G ge(std::uint64_t v) { return G::from_uint(v); }

std::vector<PointValue<G>> sample_at(const PG& p,
                                     const std::vector<unsigned>& xs) {
  std::vector<PointValue<G>> pts;
  for (unsigned x : xs) pts.push_back({ge(x), p(ge(x))});
  return pts;
}

void check_off_grid(const std::vector<unsigned>& roster,
                    const std::vector<unsigned>& grid,
                    const FieldCounters& want) {
  Chacha rng(11);
  const unsigned deg = static_cast<unsigned>(roster.size()) - 1;
  const PG poly = PG::random(deg, rng);
  const auto on_pts = sample_at(poly, grid);
  const auto off_pts = sample_at(poly, roster);

  FieldCounters before = field_counters();
  const PG want_poly = lagrange_interpolate<G>(on_pts);
  const FieldCounters on = field_counters() - before;
  ASSERT_EQ(want_poly, poly);

  before = field_counters();
  const PG got_poly = lagrange_interpolate<G>(off_pts);
  const FieldCounters off = field_counters() - before;
  EXPECT_EQ(got_poly, want_poly);

  for (const FieldCounters& got : {off, on}) {
    EXPECT_EQ(got.adds, want.adds);
    EXPECT_EQ(got.muls, want.muls);
    EXPECT_EQ(got.invs, want.invs);
    EXPECT_EQ(got.interpolations, want.interpolations);
  }
}

TEST(InterpolateOffGridTest, RosterMissingMiddlePlayer) {
  check_off_grid({1, 2, 4, 5, 6, 7}, {1, 2, 3, 4, 5, 6}, {123, 147, 1, 1});
}

TEST(InterpolateOffGridTest, ShuffledFullRoster) {
  check_off_grid({3, 7, 1, 5, 2, 6, 4}, {1, 2, 3, 4, 5, 6, 7},
                 {168, 196, 1, 1});
}

}  // namespace
}  // namespace dprbg
