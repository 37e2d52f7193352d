// The Distributed Pseudo-Random Bit Generator with bootstrapping
// (Fig. 1, Sections 1.1-1.2): the paper's headline object.
//
//            O(k) bits                    kM bits
//   Initial seed  ----->  D-PRBG  ----->  Consume bits
//                            ^               |
//                            +--- O(k) bits -+
//
// Each player wraps its pool of sealed coins in a DPrbg. Drawing a coin
// exposes the next sealed coin (one round). When the pool level falls to
// the reserve threshold, the generator "stretches" the remaining seed:
// one Coin-Gen run consumes an expected ~2 seed coins and mints M fresh
// sealed coins — including the seed for the next refill, so after the
// once-only genesis the supply never ends ("the generation process is
// endless, as bits are generated upon demand", Section 1.4).
//
// "Never ends" holds up to a bound: the default reserve covers
// L = leader_draw_budget(n, t) leader draws, so a refill fails with
// probability <= 2^-64. A refill that fails with an empty pool leaves the
// generator seed_exhausted() for good; only a new genesis (Fig. 1's
// "initial seed") revives it.
//
// All honest players drive their DPrbg instances in lockstep (same call
// sequence); the pools stay structurally identical, so refills trigger at
// the same instant everywhere.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "gf/field_concept.h"
#include "net/endpoint.h"
#include "coin/coin_expose.h"
#include "coin/coin_gen.h"
#include "coin/coin_pipeline.h"
#include "coin/sealed_coin.h"
#include "dprbg/coin_pool.h"
#include "dprbg/proactive.h"

namespace dprbg {

// The leader-draw budget L of one serial Coin-Gen run: the smallest L with
// (t/n)^L <= 2^-64. All L draws land on faulty players with at most that
// probability (Lemma 8), which is the only way a run holding 1 + L seed
// coins fails. Exact: compares t^L * 2^64 against n^L, so boundaries such
// as n=4, t=1 -> 32 come out right.
inline unsigned leader_draw_budget(unsigned n, unsigned t) {
  DPRBG_CHECK(t < n);
  if (t == 0) return 1;
  // Big-endian base-2^32 magnitudes: led by their length, they compare as
  // pairs like the numbers they hold.
  using Magnitude = std::vector<std::uint32_t>;
  const auto scale = [](Magnitude& a, std::uint32_t k) {
    std::uint64_t carry = 0;
    for (auto limb = a.rbegin(); limb != a.rend(); ++limb) {
      const std::uint64_t p = std::uint64_t{*limb} * k + carry;
      *limb = static_cast<std::uint32_t>(p);
      carry = p >> 32;
    }
    if (carry != 0) a.insert(a.begin(), static_cast<std::uint32_t>(carry));
  };
  Magnitude faulty{1, 0, 0};  // t^L * 2^64
  Magnitude all{1};           // n^L
  unsigned l = 0;
  do {
    ++l;
    scale(faulty, t);
    scale(all, n);
  } while (std::pair{faulty.size(), faulty} > std::pair{all.size(), all});
  return l;
}

template <FiniteField F>
class DPrbg {
 public:
  struct Options {
    // M: sealed coins minted per Coin-Gen run. Soundness degrades as M/p
    // (Lemma 3), so M can be "exponentially large" in k = F::kBits.
    unsigned batch_size = 64;
    // Refill when the pool drops to this level. Unset: 1 + L with L =
    // leader_draw_budget(n, t), one challenge plus every leader draw a
    // serial Coin-Gen run may make. An explicit value is used as given.
    std::optional<unsigned> reserve;
    // Refill pipelining: how many Coin-Gen batches a refill keeps in
    // flight (>= 1). 1 (the default) is the paper's serial refill on the
    // caller's stream. Depths > 1 run each pass as one pipelined window
    // (coin/coin_pipeline.h); every pass uses a fresh block of stream
    // ids, so stale delayed traffic from an old pass can never alias a
    // live stream.
    unsigned pipeline_depth = 1;
  };

  DPrbg(Options opts, std::vector<SealedCoin<F>> genesis_coins)
      : opts_(opts) {
    DPRBG_CHECK(opts_.pipeline_depth >= 1);
    // The generator's pool is the canonical seed pool — the one whose
    // depth an operator watches (pool_depth gauge and take counters).
    pool_.watch_telemetry();
    for (auto& c : genesis_coins) pool_.add(std::move(c));
  }

  // Draws the next shared k-ary coin. Runs Coin-Expose (1 round), plus a
  // Coin-Gen refill first when the pool is low. Returns nullopt exactly
  // when the generator is seed_exhausted(), then and on every later call.
  template <NetEndpoint Io>
  std::optional<F> next_coin(Io& io) {
    maybe_refill(io);
    if (seed_exhausted_) return std::nullopt;
    const unsigned instance =
        static_cast<unsigned>(pool_.consumed() % 4096);
    const SealedCoin<F> coin = pool_.take();
    ++coins_drawn_;
    return coin_expose<F>(io, coin, instance);
  }

  // Binary projection ("F(0) mod 2", Fig. 6). One fresh coin per bit:
  // safe for *adaptive* consumers (e.g. randomized BA, where each phase's
  // coin must stay unpredictable until that phase's votes are cast).
  template <NetEndpoint Io>
  std::optional<int> next_bit(Io& io) {
    const auto v = next_coin(io);
    if (!v) return std::nullopt;
    return coin_to_bit(*v);
  }

  // Sliced bits: "As all our coins will be generated in the field
  // GF(2^k) we can assume that each coin generates in fact k random
  // coins in {0,1}. Hence, we shall call these coins 'k-coins'"
  // (Section 3.1). One exposure yields k bits.
  //
  // SECURITY CAVEAT: all k bits become public at the single exposure.
  // Use this for non-adaptive randomness (sampling, symmetric tie-
  // breaking, seeding) — NOT where each bit must remain secret until a
  // later adversarial choice (use next_bit there).
  template <NetEndpoint Io>
  std::optional<int> next_bit_cached(Io& io) {
    if (cached_bits_ == 0) {
      const auto v = next_coin(io);
      if (!v) return std::nullopt;
      bit_cache_ = v->to_uint();
      cached_bits_ = F::kBits;
    }
    const int bit = static_cast<int>(bit_cache_ & 1u);
    bit_cache_ >>= 1;
    --cached_bits_;
    return bit;
  }

  // Pro-actively re-randomizes every sealed coin left in the pool
  // (Section 1.2's mobile-adversary epochs), consuming one pool coin as
  // the refresh challenge. Model caveat: the refresh subprotocol runs in
  // the Section 3 broadcast model (see dprbg/proactive.h); call it at
  // epoch boundaries where that assumption holds (or when coins feed
  // applications other than broadcast). Returns false — uniformly across
  // honest players — when the pool is too small or the refresh failed
  // (the old, still-valid sharings are kept in that case).
  template <NetEndpoint Io>
  bool refresh_pool(Io& io) {
    if (pool_.remaining() < 2) return false;
    const unsigned instance =
        static_cast<unsigned>(pool_.consumed() % 4096);
    const SealedCoin<F> challenge = pool_.take();
    const std::vector<SealedCoin<F>> current(pool_.coins().begin(),
                                             pool_.coins().end());
    auto result = proactive_refresh<F>(
        io, std::span<const SealedCoin<F>>(current), challenge, instance);
    if (!result.success) return false;
    pool_.replace_all(std::move(result.coins));
    ++refreshes_;
    return true;
  }

  [[nodiscard]] std::size_t pool_remaining() const {
    return pool_.remaining();
  }
  [[nodiscard]] std::uint64_t refreshes() const { return refreshes_; }
  [[nodiscard]] std::uint64_t coins_drawn() const { return coins_drawn_; }
  [[nodiscard]] std::uint64_t refills() const { return refills_; }
  [[nodiscard]] std::uint64_t seed_coins_spent_refilling() const {
    return seed_spent_;
  }
  [[nodiscard]] const Options& options() const { return opts_; }
  // True once a refill failed with the pool empty: no coin is left to
  // challenge or elect a leader with, so the generator can never refill
  // again. Honest players reach it at the same draw.
  [[nodiscard]] bool seed_exhausted() const { return seed_exhausted_; }

 private:
  // Adaptive refill ("a constant threshold triggering the generation of
  // new coins", Section 1.2). Each pass is one serial coin_gen run on the
  // caller's stream with the whole pool (depth 1, the paper's refill) or
  // one pipelined window (depth > 1). A window charges its batches up
  // front, so the trigger grows to cover a full window's charge. A pass
  // that mints nothing ends the refill; if it left the pool empty, the
  // seed is exhausted.
  template <NetEndpoint Io>
  void maybe_refill(Io& io) {
    if (leader_budget_ == 0) {
      leader_budget_ = leader_draw_budget(static_cast<unsigned>(io.n()),
                                          static_cast<unsigned>(io.t()));
    }
    const unsigned depth = opts_.pipeline_depth;
    std::size_t trigger = opts_.reserve.value_or(1 + leader_budget_);
    if (depth > 1) {
      trigger = std::max<std::size_t>(trigger,
                                      std::size_t{depth} * (1 + kLeaderCoins));
    }
    while (!seed_exhausted_ && pool_.remaining() <= trigger) {
      TelemetryClock::time_point t0;
      const bool tel_on = telemetry_enabled();
      if (tel_on) t0 = TelemetryClock::now();
      std::vector<CoinGenResult<F>> pass;
      if (depth == 1) {
        pass.push_back(
            coin_gen<F>(io, opts_.batch_size, pool_, leader_budget_));
      } else {
        PipelineOptions popts;
        popts.depth = depth;
        popts.first_batch_id = next_batch_id_;
        next_batch_id_ += depth;
        pass = pipelined_coin_gen<F>(io, opts_.batch_size, pool_, depth,
                                     popts).batches;
      }
      if (tel_on) {
        metrics().histogram("dprbg_refill_us")
            .observe(telemetry_elapsed_us(t0));
        metrics().counter("dprbg_refills_total").add(1);
      }
      unsigned minted = 0;
      for (const auto& gen : pass) {
        seed_spent_ += gen.seed_coins_used;
        if (!gen.success) continue;
        ++minted;
        pool_.add_batch(gen.sealed_coins(static_cast<unsigned>(io.t())));
      }
      refills_ += minted;
      if (minted == 0) {
        seed_exhausted_ = pool_.empty();
        if (seed_exhausted_ && tel_on) {
          metrics().counter("dprbg_seed_exhausted_total").add(1);
        }
        return;
      }
    }
  }

  Options opts_;
  CoinPool<F> pool_;
  std::uint64_t coins_drawn_ = 0;
  std::uint64_t refills_ = 0;
  std::uint64_t seed_spent_ = 0;
  std::uint64_t bit_cache_ = 0;
  unsigned cached_bits_ = 0;
  std::uint64_t refreshes_ = 0;
  bool seed_exhausted_ = false;
  // L for this cluster's (n, t); computed at the first refill check.
  unsigned leader_budget_ = 0;
  // Next unused round-stream id for pipelined refills (stream 0 is the
  // root stream; ids advance monotonically and are never reused).
  std::uint32_t next_batch_id_ = 1;
};

}  // namespace dprbg
