#include "rng/chacha.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace dprbg {

namespace {

inline void quarter_round(std::uint32_t& a, std::uint32_t& b,
                          std::uint32_t& c, std::uint32_t& d) noexcept {
  a += b;
  d = std::rotl(d ^ a, 16);
  c += d;
  b = std::rotl(b ^ c, 12);
  a += b;
  d = std::rotl(d ^ a, 8);
  c += d;
  b = std::rotl(b ^ c, 7);
}

// Word i of four consecutive blocks, one block per lane. GCC and Clang
// lower the element-wise ops to SSE2 on x86-64 and NEON on AArch64.
using U32x4 = std::uint32_t __attribute__((vector_size(16)));

inline U32x4 rotl4(U32x4 v, int s) noexcept {
  return (v << s) | (v >> (32 - s));
}

inline void quarter_round4(U32x4& a, U32x4& b, U32x4& c, U32x4& d) noexcept {
  a += b;
  d = rotl4(d ^ a, 16);
  c += d;
  b = rotl4(b ^ c, 12);
  a += b;
  d = rotl4(d ^ a, 8);
  c += d;
  b = rotl4(b ^ c, 7);
}

}  // namespace

void chacha_block(const std::array<std::uint32_t, 16>& state,
                  std::uint64_t counter,
                  std::span<std::uint32_t, 16> out) noexcept {
  std::array<std::uint32_t, 16> in = state;
  in[12] = static_cast<std::uint32_t>(counter);
  in[13] = static_cast<std::uint32_t>(counter >> 32);
  std::array<std::uint32_t, 16> x = in;
  for (int round = 0; round < 10; ++round) {  // 20 rounds: 10 double-rounds
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) out[i] = x[i] + in[i];
}

void chacha_blocks4(const std::array<std::uint32_t, 16>& state,
                    std::uint64_t counter,
                    std::span<std::uint32_t, 64> out) noexcept {
  U32x4 in[16];
  for (int i = 0; i < 16; ++i) in[i] = U32x4{} + state[i];
  for (int k = 0; k < 4; ++k) {
    const std::uint64_t c = counter + static_cast<std::uint64_t>(k);
    in[12][k] = static_cast<std::uint32_t>(c);
    in[13][k] = static_cast<std::uint32_t>(c >> 32);
  }
  U32x4 x[16];
  for (int i = 0; i < 16; ++i) x[i] = in[i];
  for (int round = 0; round < 10; ++round) {
    quarter_round4(x[0], x[4], x[8], x[12]);
    quarter_round4(x[1], x[5], x[9], x[13]);
    quarter_round4(x[2], x[6], x[10], x[14]);
    quarter_round4(x[3], x[7], x[11], x[15]);
    quarter_round4(x[0], x[5], x[10], x[15]);
    quarter_round4(x[1], x[6], x[11], x[12]);
    quarter_round4(x[2], x[7], x[8], x[13]);
    quarter_round4(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += in[i];
  // Transpose lanes back to block order.
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 16; ++i) out[16 * k + i] = x[i][k];
  }
}

Chacha::Chacha(std::uint64_t seed, std::uint64_t stream) noexcept {
  // "expand 32-byte k" constants.
  state_[0] = 0x61707865;
  state_[1] = 0x3320646e;
  state_[2] = 0x79622d32;
  state_[3] = 0x6b206574;
  // 256-bit key derived from (seed, stream) by simple expansion; the goal
  // is deterministic independence between streams, not secrecy.
  std::uint64_t x = seed;
  for (int i = 0; i < 4; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x ^ (stream * 0xbf58476d1ce4e5b9ull + i);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    state_[4 + 2 * i] = static_cast<std::uint32_t>(z);
    state_[5 + 2 * i] = static_cast<std::uint32_t>(z >> 32);
  }
  // Counter (words 12-13) starts at zero; nonce (words 14-15) = stream.
  state_[14] = static_cast<std::uint32_t>(stream);
  state_[15] = static_cast<std::uint32_t>(stream >> 32);
}

void Chacha::refill() noexcept {
  chacha_blocks4(state_, counter_, buf_);
  counter_ += 4;
  pos_ = 0;
}

std::uint64_t Chacha::uniform(std::uint64_t bound) noexcept {
  // Rejection sampling: draw from the largest multiple of bound below 2^64.
  const std::uint64_t threshold = (0 - bound) % bound;  // 2^64 mod bound
  while (true) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

void Chacha::fill_bytes(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i < out.size()) {
    const std::uint32_t w = next_u32();
    const std::size_t take = std::min<std::size_t>(4, out.size() - i);
    std::memcpy(out.data() + i, &w, take);
    i += take;
  }
}

}  // namespace dprbg
