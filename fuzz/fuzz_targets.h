// Shared fuzz-target bodies.
//
// Each target is an ordinary function `<name>_one(data, size)` so the
// same body is reachable three ways:
//   * `fuzz_<name>.cpp` wraps it in LLVMFuzzerTestOneInput for libFuzzer
//     (clang) or the standalone driver (gcc, standalone_main.cpp);
//   * `tests/fuzz_corpus_test.cpp` replays the checked-in corpora
//     through it in the plain tier-1 build, so every crash-found input
//     regresses without needing a fuzzing toolchain;
//   * `make_corpus.cpp` uses the same decoders to sanity-check seeds.
//
// Targets assert *invariants*, not outcomes: decoding arbitrary bytes
// may fail, but it must fail cleanly (no UB — the sanitizers' job), and
// when it succeeds the decoded value must re-encode canonically and
// respect every documented bound. FUZZ_CHECK traps on violation, which
// libFuzzer, the standalone driver, and gtest all surface as a crash.

#pragma once

#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "coin/bitgen.h"
#include "coin/coin_gen.h"
#include "common/serial.h"
#include "common/varint.h"
#include "gf/field_io.h"
#include "gf/gf2.h"
#include "gradecast/gradecast.h"
#include "net/msg.h"
#include "poly/berlekamp_welch.h"
#include "poly/reed_solomon.h"

#define FUZZ_CHECK(cond)            \
  do {                              \
    if (!(cond)) __builtin_trap();  \
  } while (0)

namespace dprbg::fuzz {

// --- varint ---------------------------------------------------------------
//
// Accepted inputs must round-trip byte-identically (canonicality) and
// agree with varint_size; and every encodable value must decode back.
inline int varint_one(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> in(data, size);
  const VarintDecode d = read_varint(in);
  if (d.ok) {
    FUZZ_CHECK(d.bytes >= 1 && d.bytes <= kMaxVarintBytes);
    FUZZ_CHECK(d.bytes <= size);
    FUZZ_CHECK(varint_size(d.value) == d.bytes);
    std::vector<std::uint8_t> re;
    append_varint(re, d.value);
    FUZZ_CHECK(re.size() == d.bytes);
    for (std::size_t i = 0; i < re.size(); ++i) FUZZ_CHECK(re[i] == data[i]);
  }
  // Differential direction: treat the first 8 bytes as a value; its
  // encoding must decode to itself with full consumption.
  if (size >= 8) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    }
    std::vector<std::uint8_t> enc;
    append_varint(enc, v);
    FUZZ_CHECK(enc.size() == varint_size(v));
    const VarintDecode back = read_varint(enc);
    FUZZ_CHECK(back.ok && back.value == v && back.bytes == enc.size());
  }
  return 0;
}

// --- envelope header ------------------------------------------------------
//
// Arbitrary bytes must decode cleanly; any accepted header must
// re-encode to exactly the consumed bytes and agree with
// envelope_header_bytes.
inline int envelope_header_one(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> payload(data, size);
  ByteReader r(payload);
  const auto h = decode_envelope_header(r);
  if (h) {
    const std::size_t consumed = payload.size() - r.remaining();
    ByteWriter w;
    encode_envelope_header(w, *h);
    FUZZ_CHECK(w.size() == consumed);
    FUZZ_CHECK(envelope_header_bytes(*h) == consumed);
    for (std::size_t i = 0; i < consumed; ++i) {
      FUZZ_CHECK(w.data()[i] == payload[i]);
    }
    FUZZ_CHECK(unwire_tag(wire_tag(h->tag)) == h->tag);
  }
  return 0;
}

// --- protocol decoders ----------------------------------------------------
//
// One dispatching target over every length-validated protocol decoder:
// the Grade-Cast echo batch, the Coin-Gen clique message, the Bit-Gen
// combination batch, the field-element row, the defensive ByteReader
// itself, the Reed–Solomon dispersal codec, and the syndrome-first
// decoder against berlekamp_welch. data[0] selects the decoder, data[1]
// parameterizes it, the rest is the hostile body.
inline int protocol_decoders_one(const std::uint8_t* data, std::size_t size) {
  using F = GF2_64;
  if (size < 2) return 0;
  const std::uint8_t sel = data[0] % 7;
  const std::uint8_t param = data[1];
  const std::vector<std::uint8_t> body(data + 2, data + size);
  constexpr std::size_t kMaxValue = 1u << 10;
  switch (sel) {
    case 0: {
      // Low nibble: n; high nibble: the code dimension c <= n.
      const int n = 1 + param % 16;
      const unsigned c = 1 + (param >> 4) % static_cast<unsigned>(n);
      const auto decoded =
          gradecast_detail::decode_echoes(body, n, c, kMaxValue);
      if (decoded) {
        FUZZ_CHECK(static_cast<int>(decoded->size()) == n);
        for (const auto& chunk : *decoded) {
          if (!chunk) continue;
          FUZZ_CHECK(chunk->length <= kMaxValue);
          FUZZ_CHECK(chunk->symbols.size() == rs_stripes(chunk->length, c));
        }
        // The layout is canonical: every accepted batch re-encodes to
        // exactly the bytes it was decoded from.
        const auto re = gradecast_detail::encode_echoes(*decoded);
        FUZZ_CHECK(re.size() == body.size());
        for (std::size_t i = 0; i < re.size(); ++i) {
          FUZZ_CHECK(re[i] == body[i]);
        }
      }
      break;
    }
    case 1: {
      const int n = 13;
      const unsigned t = 2;
      const auto msg = coin_gen_detail::decode_clique_msg<F>(body, n, t);
      if (msg) {
        FUZZ_CHECK(msg->clique.size() <= static_cast<std::size_t>(n));
        for (int m : msg->clique) FUZZ_CHECK(m >= 0 && m < n);
        for (const auto& [j, poly] : msg->polys) {
          FUZZ_CHECK(j >= 0 && j < n);
          FUZZ_CHECK(poly.degree() <= static_cast<int>(t));
        }
      }
      break;
    }
    case 2: {
      const int n = 7;
      const auto batch = bitgen_detail::decode_combo_batch<F>(body, n);
      // Shape-validated: accepted iff exactly n entries of 1 + kBytes.
      FUZZ_CHECK(batch.has_value() ==
                 (body.size() == static_cast<std::size_t>(n) * (1 + F::kBytes)));
      break;
    }
    case 3: {
      const std::size_t count = param % 9;
      const auto row = decode_elem_row<F>(body, count);
      FUZZ_CHECK(row.has_value() == (body.size() == count * F::kBytes));
      if (row) FUZZ_CHECK(row->size() == count);
      break;
    }
    case 4: {
      // The defensive reader itself: arbitrary interleaved reads never
      // read out of bounds and fail permanently once failed.
      ByteReader r(body);
      (void)r.u8();
      (void)r.uvarint();
      const auto vec = r.u64_vec(/*max_len=*/256);
      FUZZ_CHECK(vec.size() <= 256);
      const auto raw = r.bytes(param, /*max_len=*/64);
      FUZZ_CHECK(raw.size() <= 64);
      if (!r.ok()) {
        FUZZ_CHECK(r.remaining() == 0);  // failed readers park at the end
        FUZZ_CHECK(!r.done());
      }
      break;
    }
    case 5: {
      // The dispersal codec re-encodes canonically: data that unpacks to
      // a value is exactly what packing that value gives, and the n
      // symbols of a packed value decode back to it. Low nibble: n;
      // high nibble: c <= n; the value length is the body's.
      const int n = 1 + param % 16;
      const unsigned c = 1 + (param >> 4) % static_cast<unsigned>(n);
      const ReedSolomon rs(n, c);
      std::vector<F> raw(body.size() / 8);
      for (std::size_t e = 0; e < raw.size(); ++e) {
        std::uint64_t v = 0;
        for (int k = 0; k < 8; ++k) {
          v |= std::uint64_t{body[e * 8 + k]} << (8 * k);
        }
        raw[e] = F::from_uint(v);
      }
      for (std::uint64_t len = raw.size() * 8; len + 8 * c > raw.size() * 8;
           --len) {
        if (const auto value = rs.unpack(raw, len)) {
          FUZZ_CHECK(value->size() == len);
          FUZZ_CHECK(rs.pack(*value) == raw);
        }
        if (len == 0) break;
      }
      const auto data = rs.pack(body);
      std::vector<std::vector<F>> symbols(n);
      std::vector<int> ids(n);
      std::vector<std::span<const F>> rows(n);
      for (int i = 0; i < n; ++i) {
        ids[i] = i;
        symbols[i] = rs.symbol(data, i);
        rows[i] = symbols[i];
      }
      const auto decoded = rs.decode(ids, rows, 0);
      FUZZ_CHECK(decoded && decoded->data == data &&
                 decoded->agree == static_cast<std::size_t>(n));
      const auto back = rs.unpack(decoded->data, body.size());
      FUZZ_CHECK(back && *back == body);
      break;
    }
    case 6: {
      // Syndrome-first decoding and berlekamp_welch give the same verdict
      // on the same points. Low nibble: degree; high nibble: error
      // budget; each 9-byte record is an x-coordinate byte and a value
      // (distinct x-coordinates only, at most 16 points).
      const unsigned degree = param % 16;
      const unsigned max_errors = (param >> 4) % 8;
      std::vector<PointValue<F>> points;
      std::uint32_t seen[8] = {};
      for (std::size_t off = 0; off + 9 <= body.size() && points.size() < 16;
           off += 9) {
        const std::uint8_t x = body[off];
        if ((seen[x / 32] >> (x % 32)) & 1u) continue;
        seen[x / 32] |= 1u << (x % 32);
        std::uint64_t y = 0;
        for (int k = 0; k < 8; ++k) {
          y |= std::uint64_t{body[off + 1 + k]} << (8 * k);
        }
        points.push_back({F::from_uint(x), F::from_uint(y)});
      }
      const auto slow = berlekamp_welch<F>(points, degree, max_errors);
      const auto fast = rs_decode<F>(points, degree, max_errors);
      FUZZ_CHECK(slow.has_value() == fast.has_value());
      if (slow) FUZZ_CHECK(*slow == *fast);
      const auto zero = rs_decode_at_zero<F>(points, degree, max_errors);
      FUZZ_CHECK(slow.has_value() == zero.has_value());
      if (slow) FUZZ_CHECK((*slow)(F::zero()) == *zero);
      break;
    }
    default:
      break;
  }
  return 0;
}

}  // namespace dprbg::fuzz
