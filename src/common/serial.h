// Minimal byte-oriented serialization for protocol messages.
//
// All protocol payloads are encoded with these little-endian writers and
// readers. Readers are *defensive*: malformed input (as a Byzantine sender
// would produce) never causes undefined behaviour — it flips the reader
// into a failed state that the caller must check.

#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/varint.h"

namespace dprbg {

// Append-only little-endian byte writer.
class ByteWriter {
 public:
  ByteWriter() = default;
  // Pre-reserves capacity for payloads whose size is known up front (row
  // and envelope encoders), so the hot encode paths append without
  // reallocating.
  explicit ByteWriter(std::size_t reserve_bytes) {
    buf_.reserve(reserve_bytes);
  }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { put_le(v); }
  void u32(std::uint32_t v) { put_le(v); }
  void u64(std::uint64_t v) { put_le(v); }

  void bytes(std::span<const std::uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  // Grows the buffer by `n` zero bytes in one step and returns them for
  // the caller to fill (bulk encoders: one resize, then memcpy or stores).
  std::span<std::uint8_t> extend(std::size_t n) {
    const std::size_t at = buf_.size();
    buf_.resize(at + n);
    return std::span<std::uint8_t>(buf_).subspan(at);
  }

  // Canonical unsigned varint (the wire's integer encoding, common/varint.h).
  void uvarint(std::uint64_t v) { append_varint(buf_, v); }

  // Length-prefixed vector of u64 (the common share-list payload).
  void u64_vec(std::span<const std::uint64_t> v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v) u64(x);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const& {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> buf_;
};

// Little-endian byte reader over a borrowed buffer. On any out-of-bounds
// read the reader fails permanently and returns zeros; callers check
// `ok()` once at the end of decoding.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() { return get_le<std::uint8_t>(); }
  std::uint16_t u16() { return get_le<std::uint16_t>(); }
  std::uint32_t u32() { return get_le<std::uint32_t>(); }
  std::uint64_t u64() { return get_le<std::uint64_t>(); }

  // Reads a length-prefixed u64 vector; rejects absurd lengths so a
  // Byzantine sender cannot force a huge allocation.
  std::vector<std::uint64_t> u64_vec(std::size_t max_len = 1u << 20) {
    const std::uint32_t len = u32();
    if (len > max_len || len * 8ull > remaining()) {
      ok_ = false;
      return {};
    }
    std::vector<std::uint64_t> out;
    out.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) out.push_back(u64());
    return out;
  }

  // Bounds-checked bulk read of `len` raw bytes. The length is validated
  // against both the caller's cap and the bytes actually present *before*
  // anything is allocated, so a hostile length prefix can neither trigger
  // a huge allocation nor read out of bounds.
  std::vector<std::uint8_t> bytes(std::size_t len,
                                  std::size_t max_len = 1u << 20) {
    if (!ok_ || len > max_len || len > remaining()) {
      ok_ = false;
      pos_ = data_.size();
      return {};
    }
    std::vector<std::uint8_t> out(data_.begin() + pos_,
                                  data_.begin() + pos_ + len);
    pos_ += len;
    return out;
  }

  // Canonical unsigned varint; an overlong, truncated, or overflowing
  // encoding fails the reader like any other malformed field.
  std::uint64_t uvarint() {
    if (!ok_) return 0;
    const VarintDecode d = read_varint(data_.subspan(pos_));
    if (!d.ok) {
      ok_ = false;
      pos_ = data_.size();
      return 0;
    }
    pos_ += d.bytes;
    return d.value;
  }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  // True iff decoding consumed the whole buffer without error.
  [[nodiscard]] bool done() const { return ok_ && pos_ == data_.size(); }

 private:
  template <typename T>
  T get_le() {
    if (pos_ + sizeof(T) > data_.size()) {
      ok_ = false;
      pos_ = data_.size();
      return T{0};
    }
    T v{0};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace dprbg
