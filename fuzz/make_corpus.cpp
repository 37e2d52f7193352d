// Regenerates the checked-in seed corpora under fuzz/corpus/.
//
//   make_corpus <corpus-root>
//
// Seeds are deterministic: boundary varints, valid and malformed
// envelope headers, and well-formed protocol bodies for every decoder
// the dispatching target covers — so the fuzzers start from inputs that
// already reach the deep accept paths,
// and the plain-build corpus replay (tests/fuzz_corpus_test.cpp)
// exercises both accept and reject branches of every decoder.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "fuzz/fuzz_targets.h"

namespace {

namespace fs = std::filesystem;

void write_seed(const fs::path& dir, const std::string& name,
                const std::vector<std::uint8_t>& bytes) {
  fs::create_directories(dir);
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> varint_of(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  dprbg::append_varint(out, v);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: make_corpus <corpus-root>\n");
    return 2;
  }
  const fs::path root = argv[1];
  using dprbg::ByteWriter;
  using dprbg::EnvelopeHeader;

  // --- varint -------------------------------------------------------------
  {
    const fs::path dir = root / "varint";
    write_seed(dir, "zero", varint_of(0));
    write_seed(dir, "one_byte_max", varint_of(127));
    write_seed(dir, "two_byte_min", varint_of(128));
    write_seed(dir, "boundary_2_14", varint_of((1ull << 14) - 1));
    write_seed(dir, "boundary_2_32", varint_of(1ull << 32));
    write_seed(dir, "u64_max", varint_of(~0ull));
    write_seed(dir, "overlong_zero", {0x80, 0x00});
    write_seed(dir, "truncated_run", {0xFF, 0xFF, 0xFF});
    write_seed(dir, "overflow_10_bytes",
               {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F});
    // 8 bytes so the differential direction in the target kicks in.
    write_seed(dir, "differential", {1, 2, 3, 4, 5, 6, 7, 8});
  }

  // --- envelope_header ----------------------------------------------------
  {
    const fs::path dir = root / "envelope_header";
    const auto encoded = [](const EnvelopeHeader& h) {
      ByteWriter w;
      dprbg::encode_envelope_header(w, h);
      return std::move(w).take();
    };
    EnvelopeHeader h;
    h.from = 3;
    h.tag = dprbg::make_tag(dprbg::ProtoId::kGradeCast, 2, 1);
    h.batch = 7;
    h.body_len = 96;
    const auto gradecast = encoded(h);
    write_seed(dir, "gradecast", gradecast);
    write_seed(dir, "truncated",
               std::vector<std::uint8_t>(gradecast.begin(),
                                         gradecast.begin() + 4));
    // The golden-test header: a 3-byte tag and 2-byte batch and length.
    {
      EnvelopeHeader g;
      g.from = 5;
      g.tag = dprbg::make_tag(dprbg::ProtoId::kVss, 1, 2, 3);
      g.batch = 300;
      g.body_len = 130;
      write_seed(dir, "multibyte_fields", encoded(g));
    }
    // Maximal field values: every header field at its ceiling.
    {
      EnvelopeHeader big;
      big.from = 0xFFFFFFFFu;
      big.tag = 0xFFFFFFFFu;
      big.batch = 0xFFFFu;
      big.body_len = 0xFFFFFFFFu;
      write_seed(dir, "max_fields", encoded(big));
    }
    // Nonzero reserved low nibble: must be rejected.
    write_seed(dir, "bad_flags", {0x17, 0x03});
    // Unknown version nibble.
    write_seed(dir, "bad_version", {0x20});
    // Non-canonical (overlong) varint sender: must be rejected.
    write_seed(dir, "overlong_from", {0x10, 0x83, 0x00, 0x01, 0x02, 0x03});
    {
      ByteWriter w;
      w.u8(dprbg::kEnvelopeVersionByte);
      w.bytes(varint_of(5));
      w.u8(0x80);  // truncated varint tag
      write_seed(dir, "truncated_tag", w.data());
    }
    // Varint `from` overflowing 32 bits: must be rejected.
    {
      ByteWriter w;
      w.u8(dprbg::kEnvelopeVersionByte);
      w.bytes(varint_of(0x1FFFFFFFFull));
      w.bytes(varint_of(1));
      w.bytes(varint_of(1));
      w.bytes(varint_of(1));
      write_seed(dir, "from_overflow", w.data());
    }
  }

  // --- protocol_decoders --------------------------------------------------
  {
    using F = dprbg::GF2_64;
    const fs::path dir = root / "protocol_decoders";
    // data[0] selects the decoder, data[1] parameterizes, rest is body.
    auto with_prefix = [](std::uint8_t sel, std::uint8_t param,
                          const std::vector<std::uint8_t>& body) {
      std::vector<std::uint8_t> out{sel, param};
      out.insert(out.end(), body.begin(), body.end());
      return out;
    };
    // Grade-Cast echo chunks at c == 2 (param 0x13: high nibble 1 ->
    // c = 1 + 1), as echoer 3 of n == 4 sends them: a 24-byte value, the
    // empty value, and a body too short for the length it claims.
    {
      const dprbg::ReedSolomon rs(4, 2);
      const std::vector<std::uint8_t> value(24, 0x42);
      const dprbg::gradecast_detail::EchoChunk chunk{
          value.size(), rs.symbol(rs.pack(value), 3)};
      write_seed(dir, "echoes",
                 with_prefix(0, 0x13,
                             dprbg::gradecast_detail::encode_echo(chunk)));
    }
    write_seed(dir, "echoes_empty", with_prefix(0, 0x13, {0}));
    write_seed(dir, "echoes_short", with_prefix(0, 0x13, {9, 0, 0}));
    // Dispersal codec: a 19-byte value at n == 7, c == 4 (param 0x36).
    write_seed(dir, "rs_codec",
               with_prefix(5, 0x36,
                           std::vector<std::uint8_t>{
                               0x01, 0x23, 0x45, 0x67, 0x89, 0xAB, 0xCD,
                               0xEF, 0x10, 0x32, 0x54, 0x76, 0x98, 0xBA,
                               0xDC, 0xFE, 0x00, 0xFF, 0x5A}));
    // Syndrome-first vs berlekamp_welch: degree 1, error budget 1 (param
    // 0x11), the 7 points of f(x) = 5 + 3x at x = 1..7 with x = 4 wrong.
    {
      std::vector<std::uint8_t> body;
      for (std::uint8_t x = 1; x <= 7; ++x) {
        const F y = F::from_uint(5) + F::from_uint(3) * F::from_uint(x) +
                    (x == 4 ? F::one() : F::zero());
        body.push_back(x);
        for (int k = 0; k < 8; ++k) {
          body.push_back(static_cast<std::uint8_t>(y.to_uint() >> (8 * k)));
        }
      }
      write_seed(dir, "rs_syndrome", with_prefix(6, 0x11, body));
    }
    // Threshold decode: degree 2, slack 2 (param 0x22), the 8 points of
    // f(x) = 9 + x + 4x^2 at x = 1..8 with x = 2 and x = 7 wrong, so 6 of
    // 8 agree: need = 6 accepts with two errors corrected.
    {
      std::vector<std::uint8_t> body;
      for (std::uint8_t x = 1; x <= 8; ++x) {
        const F fx = F::from_uint(x);
        const F y = F::from_uint(9) + fx + F::from_uint(4) * fx * fx +
                    (x == 2 || x == 7 ? F::from_uint(x) : F::zero());
        body.push_back(x);
        for (int k = 0; k < 8; ++k) {
          body.push_back(static_cast<std::uint8_t>(y.to_uint() >> (8 * k)));
        }
      }
      write_seed(dir, "rs_agreeing", with_prefix(6, 0x22, body));
    }
    // Clique message for n == 13, t == 2: two entries of 1 + 3*8 bytes.
    {
      ByteWriter w;
      w.u8(2);
      for (const std::uint8_t j : {std::uint8_t{1}, std::uint8_t{5}}) {
        w.u8(j);
        for (int c = 0; c < 3; ++c) {
          w.u64(0x0101010101010101ull * (j + 1) + static_cast<unsigned>(c));
        }
      }
      write_seed(dir, "clique_two_entries", with_prefix(1, 0, w.data()));
    }
    write_seed(dir, "clique_bad_count", with_prefix(1, 0, {0xFF, 0x00}));
    // Combo batch for n == 7: exactly 7 * (1 + kBytes) bytes.
    {
      std::vector<std::uint8_t> body(7 * (1 + F::kBytes), 0);
      for (int i = 0; i < 7; ++i) {
        body[static_cast<std::size_t>(i) * (1 + F::kBytes)] =
            static_cast<std::uint8_t>(i % 2);
      }
      write_seed(dir, "combo_batch_exact", with_prefix(2, 0, body));
      body.pop_back();
      write_seed(dir, "combo_batch_short", with_prefix(2, 0, body));
    }
    // Field-element row: param 4 -> count 4, body exactly 4 elements.
    write_seed(dir, "elem_row_exact",
               with_prefix(3, 4, std::vector<std::uint8_t>(4 * F::kBytes, 7)));
    // ByteReader torture: u8 + uvarint + u64_vec + bytes.
    {
      ByteWriter w;
      w.u8(0x5A);
      w.uvarint(300);
      w.u64_vec(std::vector<std::uint64_t>{1, 2, 3});
      w.bytes(std::vector<std::uint8_t>(5, 0xEE));
      write_seed(dir, "reader_mixed", with_prefix(4, 5, w.data()));
    }
    write_seed(dir, "reader_hostile_len",
               with_prefix(4, 64, {0x00, 0x01, 0xFF, 0xFF, 0xFF, 0xFF}));
  }

  std::printf("corpus written under %s\n", root.string().c_str());
  return 0;
}
