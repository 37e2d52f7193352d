// ChaCha20-based deterministic CSPRNG.
//
// The paper's model gives every player "a source of perfectly random
// bits", and Section 1.1 notes players may realize it with a local
// cryptographic pseudo-random generator. We use the ChaCha20 block
// function (Bernstein 2008) in counter mode: cryptographic quality,
// trivially seekable, and — crucially for a reproduction — fully
// deterministic under a fixed seed, so every experiment in this repo can
// be replayed bit-for-bit.
//
// A refill computes four consecutive blocks in one pass (chacha_blocks4,
// four blocks in the lanes of 128-bit vectors); the keystream is the one
// a block-at-a-time generator produces, word for word.

#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "gf/field_concept.h"

namespace dprbg {

// ChaCha20 block function on a 16-word input state whose words 12-13
// (the 64-bit block counter, low word first) are replaced by `counter`:
// 20 rounds, then the input added back. The reference that
// chacha_blocks4 is tested against.
void chacha_block(const std::array<std::uint32_t, 16>& state,
                  std::uint64_t counter, std::span<std::uint32_t, 16> out)
    noexcept;

// Blocks counter, counter+1, counter+2 and counter+3 (mod 2^64, the
// carry crossing from word 12 into word 13) in one pass; block k lands
// in out[16k, 16k+16). Equal to four chacha_block calls.
void chacha_blocks4(const std::array<std::uint32_t, 16>& state,
                    std::uint64_t counter, std::span<std::uint32_t, 64> out)
    noexcept;

class Chacha {
 public:
  // Seeds the generator. `stream` separates independent generators drawn
  // from the same seed (e.g. one per player).
  explicit Chacha(std::uint64_t seed, std::uint64_t stream = 0) noexcept;

  std::uint32_t next_u32() noexcept {
    if (pos_ >= kBufWords) refill();
    return buf_[pos_++];
  }
  std::uint64_t next_u64() noexcept {
    const std::uint64_t lo = next_u32();
    const std::uint64_t hi = next_u32();
    return lo | (hi << 32);
  }
  // Uniform in [0, bound) via rejection sampling (bound > 0).
  std::uint64_t uniform(std::uint64_t bound) noexcept;
  void fill_bytes(std::span<std::uint8_t> out) noexcept;

  // UniformRandomBitGenerator interface, so <random> utilities work too.
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  static constexpr unsigned kBufWords = 64;  // four blocks

  void refill() noexcept;

  std::array<std::uint32_t, 16> state_{};  // key and nonce; counter unused
  std::uint64_t counter_ = 0;              // the next block to compute
  std::array<std::uint32_t, kBufWords> buf_{};
  unsigned pos_ = kBufWords;  // next word in buf_; kBufWords = empty
};

// Uniform field element (all bit patterns of GF(2^m) are valid elements).
template <FiniteField F>
F random_element(Chacha& rng) {
  return F::from_uint(rng.next_u64());
}

// Uniform *nonzero* field element.
template <FiniteField F>
F random_nonzero(Chacha& rng) {
  while (true) {
    F e = random_element<F>(rng);
    if (!e.is_zero()) return e;
  }
}

}  // namespace dprbg
