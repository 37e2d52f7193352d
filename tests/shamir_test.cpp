// Tests for Shamir secret sharing [18].

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "gf/gf2.h"
#include "poly/reed_solomon.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace dprbg {
namespace {

using F = GF2_64;

std::vector<PointValue<F>> to_points(const std::vector<F>& shares) {
  std::vector<PointValue<F>> pts;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    pts.push_back({eval_point<F>(static_cast<int>(i)), shares[i]});
  }
  return pts;
}

TEST(ShamirTest, EvalPointsDistinctAndNonzero) {
  for (int i = 0; i < 64; ++i) {
    EXPECT_FALSE(eval_point<F>(i).is_zero());
    for (int j = i + 1; j < 64; ++j) {
      EXPECT_NE(eval_point<F>(i), eval_point<F>(j));
    }
  }
}

TEST(ShamirTest, ReconstructFromAllShares) {
  Chacha rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const F secret = random_element<F>(rng);
    const auto shares = share_secret(secret, 2, 7, rng);
    const auto pts = to_points(shares);
    const auto rec = rs_decode_at_zero<F>(pts, 2, 0);
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(*rec, secret);
  }
}

TEST(ShamirTest, ReconstructFromThresholdSubset) {
  Chacha rng(2);
  const F secret = random_element<F>(rng);
  const auto shares = share_secret(secret, 3, 10, rng);
  auto pts = to_points(shares);
  pts.resize(4);  // exactly t+1 shares
  const auto rec = rs_decode_at_zero<F>(pts, 3, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, secret);
}

TEST(ShamirTest, ReconstructDespiteCorruptedShares) {
  Chacha rng(3);
  const F secret = random_element<F>(rng);
  auto shares = share_secret(secret, 2, 9, rng);  // n >= t + 2e + 1 = 9
  shares[1] = shares[1] + F::one();
  shares[6] = random_element<F>(rng);
  const auto pts = to_points(shares);
  const auto rec = rs_decode_at_zero<F>(pts, 2, 2);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, secret);
}

TEST(ShamirTest, TSharesRevealNothing) {
  // Perfect secrecy: for any t shares there exists a sharing polynomial
  // consistent with *every* candidate secret. Verify constructively: for
  // two random secrets, the distribution of any fixed t shares is
  // identical (here: both can be extended to full consistent sharings).
  Chacha rng(4);
  const unsigned t = 3;
  const F s0 = random_element<F>(rng);
  const auto shares = share_secret(s0, t, 10, rng);
  // Take the first t shares and an arbitrary alternative secret; the
  // interpolation through (0, s1) plus those t points has degree <= t,
  // i.e. it is a valid sharing of s1 producing the same observed shares.
  const F s1 = random_element<F>(rng);
  std::vector<PointValue<F>> pts = {{F::zero(), s1}};
  for (unsigned i = 0; i < t; ++i) {
    pts.push_back({eval_point<F>(static_cast<int>(i)), shares[i]});
  }
  const auto f = lagrange_interpolate<F>(pts);
  EXPECT_LE(f.degree(), static_cast<int>(t));
  EXPECT_EQ(f(F::zero()), s1);
  for (unsigned i = 0; i < t; ++i) {
    EXPECT_EQ(f(eval_point<F>(static_cast<int>(i))), shares[i]);
  }
}

TEST(ShamirTest, ShareOfSumIsSumOfShares) {
  // Linearity: the homomorphism Coin-Expose relies on (Fig. 6 sums shares
  // across dealers before interpolating once).
  Chacha rng(5);
  const F a = random_element<F>(rng);
  const F b = random_element<F>(rng);
  const auto sa = share_secret(a, 2, 7, rng);
  const auto sb = share_secret(b, 2, 7, rng);
  std::vector<F> sum(7);
  for (int i = 0; i < 7; ++i) sum[i] = sa[i] + sb[i];
  const auto rec = rs_decode_at_zero<F>(to_points(sum), 2, 0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, a + b);
}

TEST(ShamirTest, DealSharesMatchesPolynomialEvaluation) {
  Chacha rng(6);
  const auto f = Polynomial<F>::random(4, rng);
  const auto shares = deal_shares(f, 9);
  ASSERT_EQ(shares.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(shares[i], f(eval_point<F>(i)));
  }
}

TEST(ShamirTest, TooFewSharesCannotReconstruct) {
  Chacha rng(7);
  const F secret = random_element<F>(rng);
  const auto shares = share_secret(secret, 5, 10, rng);
  auto pts = to_points(shares);
  pts.resize(5);  // only t shares for degree-t polynomial
  EXPECT_FALSE(rs_decode_at_zero<F>(pts, 5, 0).has_value());
}

}  // namespace
}  // namespace dprbg
