// Tests for Grade-Cast [14]: honest-sender confidence 2, the conf-2 =>
// common-value property, equivocation downgrades, parallel instances,
// and adversaries aimed at the dispersed echoes (Reed–Solomon chunks of
// dimension c = n - 3t).

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "common/serial.h"
#include "gradecast/gradecast.h"
#include "net/cluster.h"
#include "poly/polynomial.h"
#include "poly/reed_solomon.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> v) {
  return std::vector<std::uint8_t>(v);
}

TEST(GradeCastTest, HonestSenderFullConfidence) {
  const int n = 7, t = 2;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 1);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    results[io.id()] = grade_cast(io, /*sender=*/3, bytes({0xAA, 0xBB}));
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(results[i].confidence, 2) << "player " << i;
    EXPECT_EQ(results[i].value, bytes({0xAA, 0xBB}));
  }
}

TEST(GradeCastTest, SilentSenderZeroConfidence) {
  const int n = 7, t = 2;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 2);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = grade_cast(io, /*sender=*/0, {});
      },
      {0}, nullptr);
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(results[i].confidence, 0) << "player " << i;
  }
}

TEST(GradeCastTest, EquivocatingSenderNeverSplitsValues) {
  // The sender sends different values to two halves. Whatever happens,
  // no two honest players may output *different* values both with
  // confidence >= 1.
  const int n = 7, t = 2;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 3);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = grade_cast(io, 0, {});
      },
      {0},
      [&](PartyIo& io) {
        // Equivocate in round 1, then echo like an honest player would.
        const auto tag0 = make_tag(ProtoId::kGradeCast, 0, 0);
        for (int to = 0; to < io.n(); ++to) {
          io.send(to, tag0, to % 2 == 0 ? bytes({1}) : bytes({2}));
        }
        io.sync();
        io.sync();
        io.sync();
      });
  for (int i = 1; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (results[i].confidence >= 1 && results[j].confidence >= 1) {
        EXPECT_EQ(results[i].value, results[j].value)
            << "players " << i << "," << j;
      }
    }
  }
  // With a 4/3 split and t = 2, no value can reach the n - t echo
  // threshold, so nobody should reach confidence 2.
  for (int i = 1; i < n; ++i) EXPECT_LT(results[i].confidence, 2);
}

TEST(GradeCastTest, Confidence2ImpliesAllHonestAtLeast1) {
  // Faulty players echo garbage; sender honest. Some honest players may
  // drop to confidence < 2? (They cannot here: honest echoes alone reach
  // n - t.) Then assert the graded-consistency property.
  const int n = 7, t = 2;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 4);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = grade_cast(io, 3, bytes({0x42}));
      },
      {1, 5},
      [&](PartyIo& io) {
        io.sync();  // receive value
        // Echo our chunk of a wrong value, then support it too.
        const unsigned c = gradecast_dimension(io.n(), io.t());
        const ReedSolomon& rs = ReedSolomon::cached(io.n(), c);
        const auto lie = gradecast_detail::encode_echo(
            {1, rs.symbol(rs.pack(bytes({0x13})), io.id())});
        io.send_all(make_tag(ProtoId::kGradeCast, 0, 1), lie);
        io.sync();
        io.send_all(make_tag(ProtoId::kGradeCast, 0, 2), lie);
        io.sync();
      });
  bool some_conf2 = false;
  for (int i = 0; i < n; ++i) {
    if (i == 1 || i == 5) continue;
    if (results[i].confidence == 2) some_conf2 = true;
  }
  ASSERT_TRUE(some_conf2);
  for (int i = 0; i < n; ++i) {
    if (i == 1 || i == 5) continue;
    EXPECT_GE(results[i].confidence, 1) << "player " << i;
    EXPECT_EQ(results[i].value, bytes({0x42}));
  }
}

TEST(GradeCastTest, EverySenderInTurn) {
  // Each player grade-casts its own value at its own instance; everyone
  // outputs every value with confidence 2.
  const int n = 7, t = 2;
  std::vector<std::vector<GradeCastResult>> results(n);
  Cluster cluster(n, t, 5);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    const auto mine = bytes({static_cast<std::uint8_t>(0x10 + io.id())});
    for (int s = 0; s < n; ++s) {
      results[io.id()].push_back(
          grade_cast(io, s, mine, static_cast<unsigned>(s)));
    }
  }));
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(results[i].size(), static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      EXPECT_EQ(results[i][s].confidence, 2);
      EXPECT_EQ(results[i][s].value,
                bytes({static_cast<std::uint8_t>(0x10 + s)}));
    }
  }
}

TEST(GradeCastTest, SenderOutsideTheClusterGradesZero) {
  // Coin-Gen passes sender -1 when its leader draw failed: nobody sends,
  // every player still runs the three rounds and grades 0.
  const int n = 7, t = 1;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 8);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    results[io.id()] = grade_cast(io, /*sender=*/-1, bytes({1}));
    EXPECT_EQ(io.rounds(), 3u);
  }));
  for (int i = 0; i < n; ++i) EXPECT_EQ(results[i].confidence, 0);
  EXPECT_EQ(cluster.comm().messages, 0u);
}

TEST(GradeCastTest, OversizedValueTreatedAsAbsent) {
  const int n = 4, t = 1;
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 6);
  cluster.run(
      [&](PartyIo& io) {
        results[io.id()] = grade_cast(io, 0, {});
      },
      {0},
      [&](PartyIo& io) {
        io.send_all(make_tag(ProtoId::kGradeCast, 0, 0),
                    std::vector<std::uint8_t>((1u << 20) + 1, 0x77));
        io.sync();
        io.sync();
        io.sync();
      });
  for (int i = 1; i < n; ++i) {
    EXPECT_EQ(results[i].confidence, 0);
  }
}

TEST(GradeCastTest, SequentialInstancesIndependent) {
  const int n = 4, t = 1;
  std::vector<GradeCastResult> first(n), second(n);
  Cluster cluster(n, t, 7);
  cluster.run(std::vector<Cluster::Program>(n, [&](PartyIo& io) {
    first[io.id()] = grade_cast(io, 0, bytes({1}), /*instance=*/0);
    second[io.id()] = grade_cast(io, 0, bytes({2}), /*instance=*/1);
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(first[i].value, bytes({1}));
    EXPECT_EQ(second[i].value, bytes({2}));
  }
}

// --- Dispersed-echo adversaries at (n, t) = (7, 1), (13, 2), (7, 2) -----

using gradecast_detail::EchoChunk;
using gradecast_detail::MaybeChunk;

const std::uint32_t kSendTag = make_tag(ProtoId::kGradeCast, 0, 0);
const std::uint32_t kEchoTag = make_tag(ProtoId::kGradeCast, 0, 1);
const std::uint32_t kSupportTag = make_tag(ProtoId::kGradeCast, 0, 2);

// The three header guarantees among the honest players, plus a common
// value at confidence >= 1.
void expect_guarantees(const std::vector<GradeCastResult>& results,
                       const std::set<int>& faulty) {
  const int n = static_cast<int>(results.size());
  bool some2 = false;
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i) == 0 && results[i].confidence == 2) some2 = true;
  }
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i) != 0) continue;
    if (some2) {
      EXPECT_GE(results[i].confidence, 1) << "player " << i;
    }
    for (int j = i + 1; j < n; ++j) {
      if (faulty.count(j) != 0) continue;
      EXPECT_LE(std::abs(results[i].confidence - results[j].confidence), 1)
          << "players " << i << "," << j;
      if (results[i].confidence >= 1 && results[j].confidence >= 1) {
        EXPECT_EQ(results[i].value, results[j].value)
            << "players " << i << "," << j;
      }
    }
  }
}

// Sends `chunk` as an echo-round message to `to`; an absent chunk is no
// message, as an honest player with nothing to echo sends.
void send_chunk(PartyIo& io, int to, std::uint32_t tag,
                const MaybeChunk& chunk) {
  if (chunk) io.send(to, tag, gradecast_detail::encode_echo(*chunk));
}

class DispersedGradeCast
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DispersedGradeCast, ChunkCollidingEquivocatorKeepsGuarantees) {
  // Sender 0 sends v1 to t + 1 honest players and v2 to the rest, where
  // v2's codeword agrees with v1's on c - 1 of the v2 holders. With the t
  // faulty echoes, v1's codeword sits exactly at the n - t support
  // threshold, so the faulty players choose who supports it: every honest
  // player but one (then their round-3 chunks split the honest players
  // between confidence 2 and 1), or n - 2t - 1 of them (a split between
  // 1 and 0). Honest v2 holders that grade v1's codeword must output v1,
  // the decoded codeword, never their own round-1 value.
  const auto [n, t] = GetParam();
  const unsigned c = gradecast_dimension(n, t);
  const ReedSolomon rs(n, c);
  std::set<int> faulty{0};
  for (int b = n - 1; static_cast<int>(faulty.size()) < t; --b) {
    faulty.insert(b);
  }
  std::vector<int> honest;
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i) == 0) honest.push_back(i);
  }
  const std::set<int> holders1(honest.begin(), honest.begin() + t + 1);
  const std::vector<int> colliding(honest.begin() + t + 1,
                                   honest.begin() + t + c);

  Chacha rng(0xC011, 0);
  std::vector<std::uint8_t> v1(8 * c);  // one stripe, no padding
  rng.fill_bytes(v1);
  // f2 = f1 + g, with g of degree c - 1 vanishing on the colliding points.
  Polynomial<GF2_64> g = Polynomial<GF2_64>::constant(GF2_64::one());
  for (int k : colliding) {
    g = g * Polynomial<GF2_64>{{ReedSolomon::point(k), GF2_64::one()}};
  }
  const auto data1 = rs.pack(v1);
  auto data2 = data1;
  for (unsigned j = 0; j < c; ++j) {
    data2[j] = data2[j] + g(ReedSolomon::point(static_cast<int>(j)));
  }
  const std::vector<std::uint8_t> v2 = *rs.unpack(data2, v1.size());
  ASSERT_NE(v1, v2);
  for (int k : colliding) {
    ASSERT_EQ(rs.symbol(data1, k), rs.symbol(data2, k));
  }

  for (const bool high : {true, false}) {
    SCOPED_TRACE(high ? "split 2/1" : "split 1/0");
    const std::size_t supporters =
        high ? honest.size() - 1 : static_cast<std::size_t>(n - 2 * t - 1);
    std::vector<GradeCastResult> results(n);
    Cluster cluster(n, t, high ? 50 : 51);
    cluster.run(
        [&](PartyIo& io) { results[io.id()] = grade_cast(io, 0, {}); },
        std::vector<int>(faulty.begin(), faulty.end()),
        [&](PartyIo& io) {
          if (io.id() == 0) {
            for (int to = 0; to < n; ++to) {
              io.send(to, kSendTag, holders1.count(to) != 0 ? v1 : v2);
            }
          }
          io.sync();
          const EchoChunk mine{v1.size(), rs.symbol(data1, io.id())};
          for (std::size_t k = 0; k < honest.size(); ++k) {
            send_chunk(io, honest[k], kEchoTag,
                       k < supporters ? MaybeChunk(mine) : std::nullopt);
          }
          io.sync();
          for (std::size_t k = 0; k < honest.size(); ++k) {
            send_chunk(io, honest[k], kSupportTag,
                       k % 2 == 0 ? MaybeChunk(mine) : std::nullopt);
          }
          io.sync();
        });
    expect_guarantees(results, faulty);
    std::set<int> grades;
    for (int i : honest) {
      grades.insert(results[i].confidence);
      if (results[i].confidence >= 1) {
        EXPECT_EQ(results[i].value, v1)
            << "player " << i << (holders1.count(i) ? " (held v1)"
                                                    : " (held v2)");
      }
    }
    const std::set<int> split = high ? std::set<int>{1, 2}
                                     : std::set<int>{0, 1};
    EXPECT_EQ(grades, split);
  }
}

TEST_P(DispersedGradeCast, ThirdValueEchoerCannotMoveHonestSender) {
  // An honest sender; every faulty player echoes and supports its chunk
  // of a third value of the same length, to everyone.
  const auto [n, t] = GetParam();
  const ReedSolomon rs(n, gradecast_dimension(n, t));
  const std::vector<std::uint8_t> v(37, 0x5C);
  const std::vector<std::uint8_t> v3(37, 0xA3);
  std::set<int> faulty;
  for (int b = 1; static_cast<int>(faulty.size()) < t; b += 2) {
    faulty.insert(b);
  }
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 60);
  cluster.run(
      [&](PartyIo& io) { results[io.id()] = grade_cast(io, 0, v); },
      std::vector<int>(faulty.begin(), faulty.end()),
      [&](PartyIo& io) {
        io.sync();
        const auto lie = gradecast_detail::encode_echo(
            {v3.size(), rs.symbol(rs.pack(v3), io.id())});
        io.send_all(kEchoTag, lie);
        io.sync();
        io.send_all(kSupportTag, lie);
        io.sync();
      });
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i) != 0) continue;
    EXPECT_EQ(results[i].confidence, 2) << "player " << i;
    EXPECT_EQ(results[i].value, v) << "player " << i;
  }
  EXPECT_EQ(cluster.decode_rejections(), 0u);
}

TEST_P(DispersedGradeCast, MismatchedLengthChunksAreIgnoredOrScored) {
  // Faulty echoers claim the wrong length: in round 2 with a well-formed
  // chunk of that length (a lie, outvoted), in round 3 with symbols that
  // do not match the claimed length (malformed: the whole batch is
  // dropped and scored through note_decode_failure by every honest
  // receiver).
  const auto [n, t] = GetParam();
  const unsigned c = gradecast_dimension(n, t);
  const std::vector<std::uint8_t> v(8 * c + 3, 0x77);
  std::set<int> faulty;
  for (int b = 2; static_cast<int>(faulty.size()) < t; ++b) faulty.insert(b);
  std::vector<GradeCastResult> results(n);
  Cluster cluster(n, t, 70);
  cluster.run(
      [&](PartyIo& io) { results[io.id()] = grade_cast(io, 0, v); },
      std::vector<int>(faulty.begin(), faulty.end()),
      [&](PartyIo& io) {
        io.sync();
        // Round 2: a length one stripe longer, with its symbols.
        const std::uint64_t longer = v.size() + 8 * c;
        io.send_all(kEchoTag,
                    gradecast_detail::encode_echo(
                        {longer, std::vector<GF2_64>(rs_stripes(longer, c))}));
        io.sync();
        // Round 3: the right length with the longer length's symbols.
        io.send_all(kSupportTag,
                    gradecast_detail::encode_echo(
                        {v.size(),
                         std::vector<GF2_64>(rs_stripes(longer, c))}));
        io.sync();
      });
  for (int i = 0; i < n; ++i) {
    if (faulty.count(i) != 0) continue;
    EXPECT_EQ(results[i].confidence, 2) << "player " << i;
    EXPECT_EQ(results[i].value, v) << "player " << i;
  }
  EXPECT_EQ(cluster.decode_rejections(),
            static_cast<std::uint64_t>(t) * static_cast<std::uint64_t>(n - t));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DispersedGradeCast,
    ::testing::Values(std::tuple{7, 1}, std::tuple{13, 2}, std::tuple{7, 2}),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace dprbg
