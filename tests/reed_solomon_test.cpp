// Tests for the syndrome-first Reed–Solomon decoder and the dispersal
// codec (poly/reed_solomon.h): rs_decode and rs_decode_at_zero must give
// berlekamp_welch's verdict on every input — clean and corrupted
// codewords, over-degree sharings, erasures and short point sets — and
// the byte-string codec must round-trip and correct errors.

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "gf/gf2.h"
#include "poly/berlekamp_welch.h"
#include "poly/polynomial.h"
#include "poly/reed_solomon.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

using F = GF2_64;
using P = Polynomial<F>;

F point(int i) { return F::from_uint(static_cast<std::uint64_t>(i) + 1); }

// Points of `f` at a random subset of 0..n-1 (ascending), keeping each
// position with probability 3/4.
std::vector<PointValue<F>> sample(const P& f, int n, Chacha& rng) {
  std::vector<PointValue<F>> pts;
  for (int i = 0; i < n; ++i) {
    if (rng.uniform(4) != 0) pts.push_back({point(i), f(point(i))});
  }
  return pts;
}

void corrupt(std::vector<PointValue<F>>& pts, unsigned count, Chacha& rng) {
  for (unsigned c = 0; c < count && c < pts.size(); ++c) {
    auto& pv = pts[rng.uniform(pts.size())];
    pv.y = pv.y + F::from_uint(1 + rng.uniform(1000));
  }
}

// One decode through both paths; the verdicts (and F(0)) must agree.
void expect_same_verdict(std::span<const PointValue<F>> pts, unsigned deg,
                         unsigned errors, const char* what) {
  const auto slow = berlekamp_welch<F>(pts, deg, errors);
  const auto fast = rs_decode<F>(pts, deg, errors);
  ASSERT_EQ(fast.has_value(), slow.has_value())
      << what << " points=" << pts.size() << " deg=" << deg
      << " errors=" << errors;
  if (slow) {
    EXPECT_EQ(*fast, *slow) << what;
  }
  const auto zero = rs_decode_at_zero<F>(pts, deg, errors);
  ASSERT_EQ(zero.has_value(), slow.has_value()) << what;
  if (slow) {
    EXPECT_EQ(*zero, (*slow)(F::zero())) << what;
  }
}

TEST(ReedSolomonTest, SyndromeDecodeMatchesBerlekampWelch) {
  Chacha rng(0x5E5, 0);
  for (int n : {4, 7, 13, 19}) {
    for (unsigned t = 1; 3 * t + 1 <= static_cast<unsigned>(n); ++t) {
      for (int trial = 0; trial < 40; ++trial) {
        const P f = P::random(t, rng);
        auto pts = sample(f, n, rng);
        if (pts.empty()) continue;
        const unsigned by_distance =
            pts.size() > t ? static_cast<unsigned>((pts.size() - t - 1) / 2)
                           : 0;
        const unsigned cap = std::min(t, by_distance);
        // Clean codewords and 0..t errors, at the callers' error cap.
        for (unsigned e = 0; e <= t; ++e) {
          auto bad = pts;
          corrupt(bad, e, rng);
          expect_same_verdict(bad, t, cap, "codeword");
        }
        // An uncapped error budget: points below degree + 2e + 1 take
        // berlekamp_welch's own path on both sides.
        expect_same_verdict(pts, t, t, "uncapped");
        // An over-degree sharing (a cheating dealer).
        const P over = P::random(t + 1, rng);
        const auto over_pts = sample(over, n, rng);
        if (!over_pts.empty()) {
          expect_same_verdict(over_pts, t, cap, "over-degree");
        }
        // A short point set: fewer points than the degree needs.
        const std::span<const PointValue<F>> all(pts);
        expect_same_verdict(all.first(std::min<std::size_t>(t, pts.size())),
                            t, 0, "short");
      }
    }
  }
}

TEST(ReedSolomonTest, CleanDecodeCountsOneInterpolation) {
  Chacha rng(7, 0);
  const P f = P::random(1, rng);
  std::vector<PointValue<F>> pts;
  for (int i = 0; i < 7; ++i) pts.push_back({point(i), f(point(i))});
  (void)rs_decode_at_zero<F>(pts, 1, 1);  // warm the cache
  const MetricsScope scope;
  const auto zero = rs_decode_at_zero<F>(pts, 1, 1);
  const FieldCounters cost = scope.delta();
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(*zero, f(F::zero()));
  EXPECT_EQ(cost.interpolations, 1u);
  EXPECT_EQ(cost.invs, 0u);
  // 5 parity rows of 7, then 2 Lagrange weights.
  EXPECT_EQ(cost.muls, 5u * 7u + 2u);
}

TEST(ReedSolomonTest, FullCacheFallsBackToBerlekampWelch) {
  // More masks than the cache holds: every decode stays correct.
  Chacha rng(11, 0);
  const P f = P::random(2, rng);
  for (std::uint64_t mask = 1; mask < (1u << 10); ++mask) {
    std::vector<PointValue<F>> pts;
    for (int i = 0; i < 10; ++i) {
      if ((mask >> i) & 1u) pts.push_back({point(i), f(point(i))});
    }
    if (pts.size() < 5) continue;
    const auto got = rs_decode<F>(pts, 2, 1);
    ASSERT_TRUE(got.has_value()) << "mask " << mask;
    EXPECT_EQ(*got, f);
  }
}

TEST(ReedSolomonTest, CodecRoundTripsAndRejectsPadding) {
  const ReedSolomon rs(7, 4);
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 31u, 32u, 33u, 120u}) {
    std::vector<std::uint8_t> value(len);
    for (std::size_t b = 0; b < len; ++b) {
      value[b] = static_cast<std::uint8_t>(b * 37 + 1);
    }
    const auto data = rs.pack(value);
    EXPECT_EQ(data.size(), rs_stripes(len, 4) * 4);
    const auto back = rs.unpack(data, len);
    ASSERT_TRUE(back.has_value()) << len;
    EXPECT_EQ(*back, value);
    if (len % 32 != 0) {
      // A nonzero pad byte (or element) is not an encoding of any value.
      auto dirty = data;
      dirty.back() = dirty.back() + F::from_uint(1ull << 63);
      EXPECT_FALSE(rs.unpack(dirty, len).has_value()) << len;
    }
  }
  EXPECT_FALSE(rs.unpack(std::vector<F>(4), 40).has_value());
}

TEST(ReedSolomonTest, DecodesSymbolsWithErasuresAndErrors) {
  Chacha rng(0xC0DE, 0);
  for (const auto& [n, t] : {std::pair{7, 1}, std::pair{13, 2},
                            std::pair{31, 5}}) {
    const unsigned dim = static_cast<unsigned>(n - 3 * t);
    const ReedSolomon rs(n, dim);
    std::vector<std::uint8_t> value(100 + rng.uniform(200));
    rng.fill_bytes(value);
    const auto data = rs.pack(value);
    std::vector<std::vector<F>> symbols(n);
    for (int i = 0; i < n; ++i) symbols[i] = rs.symbol(data, i);
    // Systematic: the first dim symbols are the data themselves.
    for (std::size_t s = 0; s < symbols[0].size(); ++s) {
      for (unsigned j = 0; j < dim; ++j) {
        EXPECT_EQ(symbols[j][s], data[s * dim + j]);
      }
    }
    for (int trial = 0; trial < 20; ++trial) {
      // Drop up to t symbols, corrupt up to t of the rest.
      std::vector<int> ids;
      for (int i = 0; i < n; ++i) ids.push_back(i);
      for (int d = rng.uniform(t + 1); d > 0; --d) {
        ids.erase(ids.begin() + rng.uniform(ids.size()));
      }
      std::vector<std::vector<F>> got;
      for (int i : ids) got.push_back(symbols[i]);
      const int errors = rng.uniform(t + 1);
      for (int e = 0; e < errors; ++e) {
        auto& row = got[rng.uniform(got.size())];
        row[rng.uniform(row.size())] = random_element<F>(rng);
      }
      std::vector<std::span<const F>> rows(got.begin(), got.end());
      const unsigned budget = static_cast<unsigned>(
          std::min<std::size_t>(t, (ids.size() - dim) / 2));
      const auto decoded = rs.decode(ids, rows, budget);
      ASSERT_TRUE(decoded.has_value()) << "n=" << n << " trial=" << trial;
      EXPECT_EQ(decoded->data, data);
      EXPECT_GE(decoded->agree, ids.size() - errors);
      EXPECT_EQ(rs.unpack(decoded->data, value.size()), value);
    }
  }
}

}  // namespace
}  // namespace dprbg
