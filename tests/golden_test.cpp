// Golden tests: lock down deterministic outputs so refactors cannot
// silently change the wire format, field constants, or replayable
// randomness. If one of these fails, either a bug was introduced or the
// format deliberately changed — in the latter case update the constants
// AND bump a protocol version in the release notes.

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "coin/coin_gen.h"
#include "common/serial.h"
#include "dprbg/coin_pool.h"
#include "dprbg/dprbg.h"
#include "dprbg/trusted_dealer.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "net/cluster.h"
#include "net/msg.h"
#include "rng/chacha.h"
#include "sharing/shamir.h"

namespace dprbg {
namespace {

// FNV-1a over the little-endian bytes of 64-bit words: a transcript
// fingerprint that changes if any recorded output does.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add_ids(const std::vector<int>& ids) {
    add(ids.size());
    for (int id : ids) add(static_cast<std::uint64_t>(id));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

TEST(GoldenTest, TagLayout) {
  // tag = proto(8) | instance(12) | phase(8) | sub(4).
  EXPECT_EQ(make_tag(ProtoId::kVss, 0, 0, 0), 0x03000000u);
  EXPECT_EQ(make_tag(ProtoId::kBitGen, 1, 2, 3), 0x05001023u);
  EXPECT_EQ(make_tag(ProtoId::kCoinExpose, 4095, 255, 15), 0x02FFFFFFu);
  // Field overflow wraps into the mask, never into neighbours.
  EXPECT_EQ(make_tag(ProtoId::kVss, 4096, 0, 0),
            make_tag(ProtoId::kVss, 0, 0, 0));
}

TEST(GoldenTest, EnvelopeHeaderLayouts) {
  // The envelope framing is golden: version byte 0x10, then from /
  // rotated tag / batch / body_len as canonical varints.
  EnvelopeHeader h;
  h.from = 5;
  h.tag = make_tag(ProtoId::kVss, 1, 2, 3);  // 0x03001023
  h.batch = 300;
  h.body_len = 130;

  ByteWriter w;
  encode_envelope_header(w, h);
  const std::vector<std::uint8_t> expect = {
      0x10,              // version 1, low nibble reserved zero
      0x05,              // from
      0x83, 0xC6, 0x40,  // wire_tag(tag) = 0x00102303, 3-byte varint
      0xAC, 0x02,        // batch = 300
      0x82, 0x01,        // body_len = 130
  };
  EXPECT_EQ(w.data(), expect);
  EXPECT_EQ(envelope_header_bytes(h), expect.size());

  ByteReader r(w.data());
  const auto back = decode_envelope_header(r);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->from, h.from);
  EXPECT_EQ(back->tag, h.tag);
  EXPECT_EQ(back->batch, h.batch);
  EXPECT_EQ(back->body_len, h.body_len);
}

TEST(GoldenTest, FieldElementWireFormat) {
  // Little-endian, exactly kBytes bytes.
  ByteWriter w;
  write_elem(w, GF2_64::from_uint(0x0102030405060708ull));
  const std::vector<std::uint8_t> expected = {0x08, 0x07, 0x06, 0x05,
                                              0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(w.data(), expected);

  ByteWriter w16;
  write_elem(w16, GF2_16::from_uint(0xABCD));
  EXPECT_EQ(w16.data(), (std::vector<std::uint8_t>{0xCD, 0xAB}));
}

TEST(GoldenTest, SerializedVectorLayout) {
  ByteWriter w;
  w.u64_vec(std::vector<std::uint64_t>{0x11, 0x22});
  const std::vector<std::uint8_t> expected = {
      2,    0, 0, 0,                    // u32 length
      0x11, 0, 0, 0, 0, 0, 0, 0,        // first element LE
      0x22, 0, 0, 0, 0, 0, 0, 0,        // second element LE
  };
  EXPECT_EQ(w.data(), expected);
}

TEST(GoldenTest, ChachaKnownStream) {
  // Replayability contract: these values must never change for a given
  // (seed, stream) or every recorded experiment changes under users'
  // feet. Draws 0, 1, 7, 8, 31, 32 and 1000 of Chacha(0, 0).next_u64()
  // straddle the 16-word block and 64-word refill boundaries.
  const std::vector<std::pair<int, std::uint64_t>> expect = {
      {0, 0x323a73b9b500341dull},    {1, 0x627ec387d1141f5aull},
      {7, 0x9de9e7b9e39a0787ull},    {8, 0xa989f47017a2eed2ull},
      {31, 0x8779e1095914b674ull},   {32, 0x2de641ce83e1d353ull},
      {1000, 0xa4a72a1b24da9de6ull},
  };
  Chacha a(0, 0);
  int drawn = 0;
  for (const auto& [index, value] : expect) {
    std::uint64_t v = 0;
    while (drawn <= index) {
      v = a.next_u64();
      ++drawn;
    }
    EXPECT_EQ(v, value) << "draw " << index;
  }
  // And distinct streams diverge immediately.
  Chacha c(0, 1);
  EXPECT_NE(c.next_u64(), expect[0].second);
}

// Every player's Coin-Gen result at n=7, t=1, M=4096: coin shares,
// clique, summed dealers, qualified flag and iterations. Recorded before
// the inline PCLMUL share-row kernels landed; both dispatch modes
// (plain and DPRBG_FORCE_SCALAR=1) must reproduce it.
TEST(GoldenTest, CoinGenTranscriptDigest) {
  using F = GF2_64;
  const int n = 7, t = 1;
  const unsigned m = 4096;
  const std::uint64_t seed = 20;
  auto genesis = trusted_dealer_coins<F>(n, t, 8, seed);
  std::vector<CoinGenResult<F>> results(n);
  Cluster cluster(n, t, seed);
  cluster.run([&](PartyIo& io) {
    CoinPool<F> pool;
    for (auto& c : genesis[io.id()]) pool.add(std::move(c));
    results[io.id()] = coin_gen<F>(io, m, pool);
  }, {}, nullptr);
  Digest d;
  for (const auto& r : results) {
    ASSERT_TRUE(r.success);
    ASSERT_EQ(r.coin_shares.size(), m);
    d.add_ids(r.clique);
    d.add_ids(r.summed_dealers);
    d.add(r.qualified ? 1 : 0);
    d.add(r.iterations);
    for (const F& s : r.coin_shares) d.add(s.to_uint());
  }
  EXPECT_EQ(d.value(), 0x94f9b50cc62145ffull);
}

// 500 DPrbg::next_coin values (batch 64, reserve 16), every refill
// included: a digest of player 0's stream, which every player shares.
TEST(GoldenTest, DprbgStreamDigest) {
  using F = GF2_64;
  const int n = 7, t = 1, draws = 500;
  const std::uint64_t seed = 21;
  DPrbg<F>::Options opts;
  opts.batch_size = 64;
  opts.reserve = 16;
  auto genesis = trusted_dealer_coins<F>(n, t, 32, seed);
  std::vector<std::vector<std::optional<F>>> streams(n);
  Cluster cluster(n, t, seed);
  cluster.run([&](PartyIo& io) {
    DPrbg<F> prbg(opts, genesis[io.id()]);
    for (int i = 0; i < draws; ++i) {
      streams[io.id()].push_back(prbg.next_coin(io));
    }
  }, {}, nullptr);
  Digest d;
  for (const auto& coin : streams[0]) {
    ASSERT_TRUE(coin.has_value());
    d.add(coin->to_uint());
  }
  for (int i = 1; i < n; ++i) EXPECT_EQ(streams[i], streams[0]);
  EXPECT_EQ(d.value(), 0xe8d2cd76a7abcb49ull);
}

TEST(GoldenTest, Gf2ModuliAreTheDocumentedOnes) {
  // The field constants are part of the wire contract (two builds with
  // different moduli cannot interoperate).
  EXPECT_EQ(gf2_detail::modulus<8>(), 0x1Bu);
  EXPECT_EQ(gf2_detail::modulus<16>(), 0x2Bu);
  EXPECT_EQ(gf2_detail::modulus<32>(), 0x8Du);
  EXPECT_EQ(gf2_detail::modulus<64>(), 0x1Bu);
}

TEST(GoldenTest, EvalPointsAreOneBased) {
  EXPECT_EQ(eval_point<GF2_64>(0).to_uint(), 1u);
  EXPECT_EQ(eval_point<GF2_64>(6).to_uint(), 7u);
}

TEST(GoldenTest, AesFieldVector) {
  // Cross-implementation anchor: AES's GF(2^8) test vector.
  EXPECT_EQ((GF2_8::from_uint(0x57) * GF2_8::from_uint(0x83)).to_uint(),
            0xC1u);
}

}  // namespace
}  // namespace dprbg
