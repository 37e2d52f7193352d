// A library of standard Byzantine behaviours for tests and experiments.
//
// The model (Section 2) lets faulty players "deviate arbitrarily from the
// protocol, and even collude". Tests exercise that power with a zoo of
// reusable adversary programs; ad-hoc attacks (which need knowledge of a
// specific protocol's tags and rounds) are written inline at the call
// site, but the generic ones below cover the recurring shapes:
//
//   crash            — send nothing, ever (the Cluster's default).
//   sleeper          — behave honestly for a while, then crash. The
//                      end-to-end shape (a Coin-Gen dealer that completes
//                      Bit-Gen honestly and dies before the leader draw) is
//                      exercised by AdversaryLibTest.CoinGenDealerCrashes
//                      MidProtocol.
//   silent           — participate in every barrier but never send
//                      (omission fault; unlike crash it keeps the barrier
//                      count, so it models a live-but-mute peer).
//   noise            — spray random bytes with plausible protocol tags
//                      every round (fuzzes every deserialization path).
//   replayer         — echo back every message it receives, to everyone
//                      (stale/duplicated traffic).
//   spammer          — flood one victim with junk on one tag.
//
// For *link*-level misbehaviour (lost/delayed/duplicated/corrupted
// traffic attributed to a player budget) see net/fault.h — the injector
// composes with any adversary in this zoo.
//
// All of them run for a bounded number of rounds and then return (the
// Cluster's drop semantics keep the honest players running).

#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/cluster.h"
#include "net/msg.h"
#include "rng/chacha.h"

namespace dprbg {

// Crash fault: never sends anything (identical to passing a null
// adversary to Cluster::run; named for explicitness in tables).
inline Cluster::Program crash_adversary() {
  return [](PartyIo&) {};
}

// Runs `honest` but abandons the protocol after `rounds_before_crash`
// syncs. Useful for mid-protocol failure injection. The honest program is
// executed inside a fence that counts rounds; once the budget is spent,
// the player simply stops participating.
//
// Implementation note: we cannot interrupt an arbitrary honest program
// from outside, so the sleeper is expressed as a wrapper the *caller*
// builds from protocol phases. For whole-protocol use, prefer noise or
// crash; sleeper is provided for phase-structured call sites.
using PhaseList = std::vector<std::function<void(PartyIo&)>>;

inline Cluster::Program sleeper_adversary(PhaseList phases,
                                          std::size_t phases_to_run) {
  return [phases = std::move(phases), phases_to_run](PartyIo& io) {
    for (std::size_t p = 0; p < phases.size() && p < phases_to_run; ++p) {
      phases[p](io);
    }
  };
}

// Omission fault: stays in lockstep (keeps arriving at barriers) for
// `rounds` rounds without ever sending, then crashes. Distinct from
// crash_adversary: the cluster still counts this player as active, so it
// exercises the "live but mute" shape rather than the dropped-thread one.
inline Cluster::Program silent_adversary(int rounds) {
  return [rounds](PartyIo& io) {
    for (int round = 0; round < rounds; ++round) io.sync();
  };
}

// Random-byte noise with plausible tags, every round.
inline Cluster::Program noise_adversary(int rounds, int bursts_per_round = 5,
                                        std::size_t max_body = 64) {
  return [=](PartyIo& io) {
    Chacha& rng = io.rng();
    for (int round = 0; round < rounds; ++round) {
      for (int b = 0; b < bursts_per_round; ++b) {
        const auto tag = make_tag(
            static_cast<ProtoId>(1 + rng.uniform(10)),
            static_cast<unsigned>(rng.uniform(4096)),
            static_cast<unsigned>(rng.uniform(8)),
            static_cast<unsigned>(rng.uniform(16)));
        std::vector<std::uint8_t> junk(rng.uniform(max_body));
        rng.fill_bytes(junk);
        io.send(static_cast<int>(rng.uniform(io.n())), tag,
                std::move(junk));
      }
      io.sync();
    }
  };
}

// Replays received messages back to all players, every round. Bounded
// per round: two replayers otherwise feed each other and the traffic
// grows without limit (the simulation would melt long before any honest
// invariant broke).
inline Cluster::Program replay_adversary(int rounds,
                                         std::size_t max_per_round = 16) {
  return [=](PartyIo& io) {
    for (int round = 0; round < rounds; ++round) {
      std::size_t replayed = 0;
      for (const Msg& m : io.inbox().all()) {
        if (replayed++ >= max_per_round) break;
        io.send_all(m.tag, m.body);
      }
      io.sync();
    }
  };
}

// Floods `victim` with `per_round` junk messages on a fixed tag.
inline Cluster::Program spam_adversary(int victim, std::uint32_t tag,
                                       int rounds, int per_round = 64) {
  return [=](PartyIo& io) {
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < per_round; ++i) {
        std::vector<std::uint8_t> junk(16);
        io.rng().fill_bytes(junk);
        io.send(victim, tag, std::move(junk));
      }
      io.sync();
    }
  };
}

}  // namespace dprbg
