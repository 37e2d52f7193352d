// Per-player pool of sealed coins (the "distributed seed" storage of the
// bootstrap loop, Fig. 1).
//
// Every honest player holds a structurally identical pool (same coins in
// the same order; only the share values differ), and all honest players
// take coins in the same lockstep order (from the front, and for the
// pipeline's spare leader coins from the back) — the take count doubles
// as the Coin-Expose instance tag, so concurrent exposures never cross
// wires.

#pragma once

#include <cstddef>
#include <deque>
#include <iterator>
#include <vector>

#include "common/check.h"
#include "common/telemetry.h"
#include "gf/field_concept.h"
#include "coin/sealed_coin.h"

namespace dprbg {

template <FiniteField F>
class CoinPool {
 public:
  CoinPool() = default;

  // Opts this pool instance into telemetry (pool_depth gauge,
  // pool_taken_total / pool_drained_total counters). Only the canonical
  // seed pool should watch — DPrbg enables it on its own pool — so that
  // scratch pools (the pipeline's per-batch subpool charges) don't
  // thrash the depth gauge or double-count takes.
  void watch_telemetry() { watched_ = true; }

  void add(SealedCoin<F> coin) {
    coins_.push_back(std::move(coin));
    note_depth();
  }

  [[nodiscard]] std::size_t remaining() const { return coins_.size(); }
  [[nodiscard]] bool empty() const { return coins_.empty(); }

  // Total coins ever taken; identical across honest players, hence usable
  // as a globally consistent instance id for the next exposure.
  [[nodiscard]] std::size_t consumed() const { return consumed_; }

  // Read-only view of the queued coins (front = next to be taken).
  [[nodiscard]] const std::deque<SealedCoin<F>>& coins() const {
    return coins_;
  }

  // Replaces the queued coins in place (same count, same order), used by
  // pro-active refresh: the coin VALUES are unchanged, only the sharings
  // rotate, so cross-player pool alignment is preserved.
  void replace_all(std::vector<SealedCoin<F>> fresh) {
    DPRBG_CHECK(fresh.size() == coins_.size());
    coins_.assign(std::make_move_iterator(fresh.begin()),
                  std::make_move_iterator(fresh.end()));
  }

  // Pops the next coin. All honest players call this in the same order.
  SealedCoin<F> take() {
    DPRBG_CHECK(!coins_.empty());
    SealedCoin<F> c = std::move(coins_.front());
    coins_.pop_front();
    ++consumed_;
    note_take(1);
    return c;
  }

  // Pops the next m coins at once (front first). Equivalent to m take()
  // calls — consumed() advances by m — but a single bulk splice. The
  // pipelined refill loop uses this to charge each in-flight Coin-Gen
  // batch its seed-coin budget up front, which keeps the pool index /
  // instance-id alignment identical across honest players no matter how
  // the batches interleave in wall-clock.
  std::vector<SealedCoin<F>> take_batch(std::size_t m) {
    DPRBG_CHECK(m <= coins_.size());
    std::vector<SealedCoin<F>> out;
    out.reserve(m);
    const auto end = coins_.begin() + static_cast<std::ptrdiff_t>(m);
    out.assign(std::make_move_iterator(coins_.begin()),
               std::make_move_iterator(end));
    coins_.erase(coins_.begin(), end);
    consumed_ += m;
    note_take(m);
    return out;
  }

  // Pops the last m coins at once, in pool order, so that add_batch() of
  // the same run restores the pool. consumed() advances by m. The
  // pipeline charges a batch's spare leader coins from the back
  // (coin/coin_pipeline.h).
  std::vector<SealedCoin<F>> take_back_batch(std::size_t m) {
    DPRBG_CHECK(m <= coins_.size());
    const auto begin = coins_.end() - static_cast<std::ptrdiff_t>(m);
    std::vector<SealedCoin<F>> out(std::make_move_iterator(begin),
                                   std::make_move_iterator(coins_.end()));
    coins_.erase(begin, coins_.end());
    consumed_ += m;
    note_take(m);
    return out;
  }

  // Appends a run of coins in order (the bulk form of add()); used to
  // return a batch's unspent seed coins and to bank freshly generated
  // ones.
  void add_batch(std::vector<SealedCoin<F>> fresh) {
    for (auto& c : fresh) coins_.push_back(std::move(c));
    note_depth();
  }

 private:
  // Telemetry is bumped once per honest player per event (lockstep
  // pools agree, so the depth gauge is last-writer-wins consistent; the
  // counters read as players x coins). Guarded so the disabled mode
  // never touches the registry; the statics bind once and stay valid
  // across registry resets.
  void note_depth() {
    if (!watched_ || !telemetry_enabled()) return;
    static Gauge& depth = metrics().gauge("pool_depth");
    depth.set(static_cast<std::int64_t>(coins_.size()));
  }
  void note_take(std::size_t m) {
    if (!watched_ || !telemetry_enabled()) return;
    static Counter& taken = metrics().counter("pool_taken_total");
    static Counter& drained = metrics().counter("pool_drained_total");
    taken.add(m);
    if (coins_.empty()) drained.add(1);
    note_depth();
  }

  std::deque<SealedCoin<F>> coins_;
  std::size_t consumed_ = 0;
  bool watched_ = false;
};

}  // namespace dprbg
