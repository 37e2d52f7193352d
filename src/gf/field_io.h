// Serialization of field elements into protocol messages.
//
// Elements travel as fixed-width little-endian integers of F::kBytes
// bytes, so message sizes match the paper's accounting (a share of a
// k-bit secret costs k bits on the wire).

#pragma once

#include <bit>
#include <cstring>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/serial.h"
#include "gf/field_concept.h"

namespace dprbg {

// True when a row of F elements in memory already is its wire encoding:
// 8-byte elements held as one little-endian uint64_t in which every bit
// pattern is a valid element (kBits == 64, so from_uint masks nothing).
// GF2_64 — the protocol field — qualifies on little-endian hosts; its
// share rows then encode and decode with a single memcpy.
template <FiniteField F>
inline constexpr bool kRowIsWireLayout =
    std::endian::native == std::endian::little && F::kBytes == 8 &&
    F::kBits == 64 && sizeof(F) == 8 && std::is_trivially_copyable_v<F>;

template <FiniteField F>
void write_elem(ByteWriter& w, F e) {
  std::uint64_t v = e.to_uint();
  for (unsigned i = 0; i < F::kBytes; ++i) {
    w.u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

template <FiniteField F>
F read_elem(ByteReader& r) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < F::kBytes; ++i) {
    v |= std::uint64_t{r.u8()} << (8 * i);
  }
  return F::from_uint(v);
}

// Appends a whole row of elements: the same bytes as write_elem per
// element, with the writer extended once.
template <FiniteField F>
void write_elem_row(ByteWriter& w, std::span<const F> row) {
  const std::span<std::uint8_t> out = w.extend(row.size() * F::kBytes);
  if constexpr (kRowIsWireLayout<F>) {
    if (!row.empty()) std::memcpy(out.data(), row.data(), out.size());
  } else {
    std::uint8_t* p = out.data();
    for (const F& e : row) {
      const std::uint64_t v = e.to_uint();
      for (unsigned i = 0; i < F::kBytes; ++i) {
        *p++ = static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
  }
}

// Decodes an untrusted buffer as exactly `count` field elements — the
// only shape an honest sender produces for a share row. The size is
// validated before any allocation, so a Byzantine body can neither
// over-allocate nor smuggle trailing bytes.
template <FiniteField F>
std::optional<std::vector<F>> decode_elem_row(
    std::span<const std::uint8_t> bytes, std::size_t count) {
  if (bytes.size() != count * F::kBytes) return std::nullopt;
  std::vector<F> out(count);
  if constexpr (kRowIsWireLayout<F>) {
    if (count != 0) std::memcpy(out.data(), bytes.data(), bytes.size());
  } else {
    ByteReader r(bytes);
    for (F& e : out) e = read_elem<F>(r);
  }
  return out;
}

}  // namespace dprbg
