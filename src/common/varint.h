// Canonical unsigned varints (LEB128 layout) — the wire's integer
// encoding.
//
// Encoding: little-endian base-128 groups, low group first; bit 7 of
// each byte is the continuation flag. A uint64 takes 1..10 bytes; values
// below 128 take exactly one byte, which is what keeps the envelope
// header and the Grade-Cast echo layout small at small field values
// (net/msg.h, gradecast/gradecast.h).
//
// Decoding is *canonical*: exactly one byte string encodes each value.
// Overlong encodings (a final zero group, e.g. 0x80 0x00 for 0), runs
// past 10 bytes, and 10-byte encodings spilling beyond 64 bits are all
// rejected, as is truncation. Canonicality is a security property, not a
// nicety — it keeps "decode then re-encode" byte-identical, so signed or
// hashed messages cannot be mutated into a second valid spelling
// (fuzz/fuzz_varint.cpp round-trips every accepted input; the adversarial
// property suite is tests/varint_test.cpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace dprbg {

inline constexpr std::size_t kMaxVarintBytes = 10;

// Encoded size of `v`: 1..10 bytes.
[[nodiscard]] constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Appends the canonical encoding of `v` to `out`.
inline void append_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

struct VarintDecode {
  std::uint64_t value = 0;
  std::size_t bytes = 0;  // consumed iff ok
  bool ok = false;
};

// Decodes one canonical varint from the front of `data`. Fails (ok ==
// false, nothing consumed) on truncation, an overlong encoding, or
// 64-bit overflow.
[[nodiscard]] inline VarintDecode read_varint(
    std::span<const std::uint8_t> data) {
  VarintDecode r;
  std::uint64_t v = 0;
  const std::size_t limit =
      data.size() < kMaxVarintBytes ? data.size() : kMaxVarintBytes;
  for (std::size_t i = 0; i < limit; ++i) {
    const std::uint8_t b = data[i];
    const std::uint64_t group = b & 0x7Fu;
    // The 10th byte holds bits 63..69: anything above bit 0 overflows.
    if (i == kMaxVarintBytes - 1 && group > 1) return r;
    v |= group << (7 * i);
    if ((b & 0x80u) == 0) {
      // Canonical form: the final group is nonzero (except the
      // single-byte encoding of 0 itself).
      if (i > 0 && group == 0) return r;
      r.value = v;
      r.bytes = i + 1;
      r.ok = true;
      return r;
    }
  }
  return r;  // truncated, or a continuation run past 10 bytes
}

}  // namespace dprbg
