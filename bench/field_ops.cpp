// Experiment E1 (Section 2, "Model"): field arithmetic strategies.
//
// Paper claims reproduced here:
//  * naive multiplication in GF(2^k) takes O(k^2) steps;
//  * the special field GF(q^l) multiplies in O(k log k) via NTT;
//  * "in practice, when k is small, working over GF(2^k) with the naive
//    O(k^2) multiplication is faster than working over our special field
//    with the O(k log k) multiplication, because of the sizes of the
//    constants involved. So an implementation should be careful about
//    which method it uses."
//
// Google-benchmark microbenchmarks for each strategy, plus a summary
// table locating the crossover.
//
// --sweep-M (E20, DESIGN.md §14) switches to the wide-batch kernel
// sweep: GF(2^64) software vs hardware CLMUL, the blocked Horner
// combine, the inline-PCLMUL share-row kernels (small-x evaluation and
// Coin-Gen-shaped combine) against the per-element loop, ChaCha20 one
// block vs four blocks per call, and the NTT-vs-schoolbook crossover, at
// M = 4 ... 4096. Every fast-path timing is hard-asserted against the
// reference output in-run. --json emits one JSON row per table line
// (BENCH_field_kernels.json is this output verbatim); --smoke trims the
// M list for CI.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <span>
#include <cstdio>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "gf/fft_field.h"
#include "gf/gf2.h"
#include "poly/interpolate.h"
#include "poly/polynomial.h"
#include "rng/chacha.h"

namespace dprbg {
namespace {

template <typename F>
void BM_Gf2Mul(benchmark::State& state) {
  Chacha rng(1);
  std::vector<F> xs, ys;
  for (int i = 0; i < 256; ++i) {
    xs.push_back(random_nonzero<F>(rng));
    ys.push_back(random_nonzero<F>(rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xs[i & 255] * ys[(i + 7) & 255]);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Gf2Mul<GF2_8>)->Name("gf2_mul/k=8_table");
BENCHMARK(BM_Gf2Mul<GF2_16>)->Name("gf2_mul/k=16_table");
BENCHMARK(BM_Gf2Mul<GF2_32>)->Name("gf2_mul/k=32_naive");
BENCHMARK(BM_Gf2Mul<GF2_64>)->Name("gf2_mul/k=64_naive");

void BM_FftFieldMul(benchmark::State& state) {
  const unsigned l = static_cast<unsigned>(state.range(0));
  const bool use_ntt = state.range(1) != 0;
  const FftField field(l);
  Chacha rng(2);
  std::vector<FftElem> xs, ys;
  for (int i = 0; i < 64; ++i) {
    std::uint32_t words[FftElem::kMaxL];
    for (unsigned w = 0; w < l; ++w) words[w] = rng.next_u32();
    xs.push_back(field.from_words(words));
    for (unsigned w = 0; w < l; ++w) words[w] = rng.next_u32();
    ys.push_back(field.from_words(words));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(use_ntt
                                 ? field.mul(xs[i & 63], ys[(i + 3) & 63])
                                 : field.mul_naive(xs[i & 63], ys[(i + 3) & 63]));
    ++i;
  }
  state.SetLabel("k~" + std::to_string(static_cast<int>(field.bits())) +
                 " q=" + std::to_string(field.q()));
}
BENCHMARK(BM_FftFieldMul)
    ->Name("fft_field_mul")
    ->ArgNames({"l", "ntt"})
    ->Args({4, 1})
    ->Args({4, 0})
    ->Args({8, 1})
    ->Args({8, 0})
    ->Args({16, 1})
    ->Args({16, 0})
    ->Args({32, 1})
    ->Args({32, 0})
    ->Args({64, 1})
    ->Args({64, 0})
    ->Args({128, 1})
    ->Args({128, 0})
    ->Args({256, 1})
    ->Args({256, 0});

template <typename F>
void BM_Gf2Inverse(benchmark::State& state) {
  Chacha rng(3);
  std::vector<F> xs;
  for (int i = 0; i < 256; ++i) xs.push_back(random_nonzero<F>(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(xs[i & 255].inv());
    ++i;
  }
}
BENCHMARK(BM_Gf2Inverse<GF2_16>)->Name("gf2_inv/k=16_table");
BENCHMARK(BM_Gf2Inverse<GF2_64>)->Name("gf2_inv/k=64_fermat");

template <typename F>
void BM_Interpolation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Chacha rng(4);
  const auto poly = Polynomial<F>::random((n - 1) / 3, rng);
  std::vector<PointValue<F>> pts;
  for (int i = 1; i <= n; ++i) {
    pts.push_back({F::from_uint(i), poly(F::from_uint(i))});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrange_interpolate<F>(pts));
  }
}
BENCHMARK(BM_Interpolation<GF2_64>)
    ->Name("interpolation/k=64")
    ->Arg(4)
    ->Arg(7)
    ->Arg(13)
    ->Arg(25)
    ->Arg(49);

}  // namespace

// --- E20: wide-batch kernel sweep (--sweep-M) ---

namespace {

// ns per element for `fn` (which processes `elems` elements per call),
// with one warm-up call outside the timed region.
template <typename Fn>
double time_ns_per_elem(std::size_t elems, int reps, Fn&& fn) {
  fn();
  const auto start = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(stop - start).count() /
         (static_cast<double>(reps) * static_cast<double>(elems));
}

}  // namespace

int run_kernel_sweep(bool smoke) {
  using namespace bench;
  print_header(
      "E20: GF(2^64) share-row kernels, M-sweep",
      "the wide-batch engine's speed comes from executing the same ops "
      "faster: PCLMUL GF(2^64) mul >> 4x over the shift-XOR loop (the "
      "protocol field's hot op), blocked Horner combines over SoA rows, "
      "inline-PCLMUL share-row kernels and four-block ChaCha refills, "
      "each bit-asserted against its reference loop; the GF(q^l) NTT "
      "beats schoolbook from l = 128");

  const std::vector<std::size_t> ms =
      smoke ? std::vector<std::size_t>{4, 64, 1024}
            : std::vector<std::size_t>{4, 16, 64, 256, 1024, 4096};
  const std::size_t budget = smoke ? (1u << 18) : (1u << 22);
  bool ok = true;
  Chacha rng(0xe20);

  // 1) GF(2^64) multiply: software shift-XOR loop vs the PCLMUL path
  // (bit-asserted; on hosts without PCLMUL both columns are the loop).
  {
    Table t({"M", "soft_ns", "hw_ns", "speedup", "match"});
    t.context("table", "gf2_64_mul");
    t.context("clmul_hw", gf2_detail::clmul_hw ? "1" : "0");
    for (const std::size_t m : ms) {
      const int reps = static_cast<int>(
          std::max<std::size_t>(1, budget / (64 * m)));
      std::vector<std::uint64_t> xs(m), ys(m), d_soft(m), d_hw(m);
      for (std::size_t i = 0; i < m; ++i) {
        xs[i] = rng.next_u64();
        ys[i] = rng.next_u64();
      }
      const double soft = time_ns_per_elem(m, reps, [&] {
        for (std::size_t i = 0; i < m; ++i) {
          d_soft[i] = gf2_detail::clmul_reduce<64>(xs[i], ys[i]);
        }
      });
      double hw = soft;
      bool match = true;
      if (gf2_detail::clmul_hw) {
        hw = time_ns_per_elem(m, reps, [&] {
          for (std::size_t i = 0; i < m; ++i) {
            d_hw[i] = gf2_detail::clmul_hw_mul64(xs[i], ys[i]);
          }
        });
        match = d_hw == d_soft;
        ok = ok && match;
      }
      t.row({fmt(m), fmt(soft), fmt(hw), fmt(soft / hw),
             match ? "yes" : "NO"});
    }
    t.print();
  }

  // 2) Blocked Horner combine (the Coin-Gen / Batch-VSS inner loop):
  // per-row scalar Horner vs batch_combine_block, M rows of the
  // protocol's m_total at n=7, M=4 (65 columns).
  {
    using F = GF2_64;
    Table t({"M", "scalar_ns_per_row", "block_ns_per_row", "speedup",
             "match"});
    t.context("table", "combine_block");
    t.context("row_len", "65");
    const std::size_t row_len = 65;
    const F r = random_element<F>(rng);
    for (const std::size_t m : ms) {
      const int reps = static_cast<int>(
          std::max<std::size_t>(1, budget / (8 * row_len * m)));
      std::vector<std::vector<F>> mat(m);
      std::vector<const F*> ptrs(m);
      for (std::size_t i = 0; i < m; ++i) {
        mat[i].resize(row_len);
        for (auto& v : mat[i]) v = random_element<F>(rng);
        ptrs[i] = mat[i].data();
      }
      std::vector<F> exp(m), got(m);
      const double scalar = time_ns_per_elem(m, reps, [&] {
        for (std::size_t i = 0; i < m; ++i) {
          F acc = F::zero();
          for (std::size_t j = row_len; j-- > 0;) {
            acc = (acc + mat[i][j]) * r;
          }
          exp[i] = acc;
        }
      });
      const double block = time_ns_per_elem(m, reps, [&] {
        batch_combine_block<F>(ptrs, row_len, r, got);
      });
      const bool match = got == exp;
      ok = ok && match;
      t.row({fmt(m), fmt(scalar), fmt(block), fmt(scalar / block),
             match ? "yes" : "NO"});
    }
    t.print();
  }

  // 3) Share-row evaluation at a small point (the dealer's deal loop at
  // t=1: M degree-1 polynomials at x = 7 = eval_point(6)): the
  // per-element Horner loop with one out-of-line multiply per step vs
  // eval_polys_block, which takes the inline one-fold PCLMUL kernel when
  // clmul_hw is set.
  {
    using F = GF2_64;
    Table t({"M", "loop_ns_per_poly", "block_ns_per_poly", "speedup",
             "match"});
    t.context("table", "eval_small_x");
    t.context("deg", "1");
    t.context("x", "7");
    t.context("clmul_hw", gf2_detail::clmul_hw ? "1" : "0");
    const F x = F::from_uint(7);
    for (const std::size_t m : ms) {
      const int reps = static_cast<int>(
          std::max<std::size_t>(1, budget / (8 * m)));
      const auto block = PolyBlock<F>::random(m, 1, rng);
      std::vector<F> exp(m), got(m);
      const double loop = time_ns_per_elem(m, reps, [&] {
        for (std::size_t j = 0; j < m; ++j) {
          const auto c = block.coeffs(j);
          F acc = F::zero();
          for (std::size_t i = c.size(); i-- > 0;) acc = acc * x + c[i];
          exp[j] = acc;
        }
      });
      const double blk = time_ns_per_elem(
          m, reps, [&] { eval_polys_block<F>(block, x, got); });
      const bool match = got == exp;
      ok = ok && match;
      t.row({fmt(m), fmt(loop), fmt(blk), fmt(loop / blk),
             match ? "yes" : "NO"});
    }
    t.print();
  }

  // 4) Coin-Gen's combination shape: n = 7 rows of M+1 shares (one per
  // dealer) under one challenge. Per-row Horner loop with out-of-line
  // multiplies vs batch_combine_block, which takes the inline PCLMUL
  // kernel when clmul_hw is set.
  {
    using F = GF2_64;
    Table t({"M", "loop_ns_per_elem", "block_ns_per_elem", "speedup",
             "match"});
    t.context("table", "combine_inline");
    t.context("rows", "7");
    t.context("clmul_hw", gf2_detail::clmul_hw ? "1" : "0");
    const std::size_t rows = 7;
    const F r = random_element<F>(rng);
    for (const std::size_t m : ms) {
      const std::size_t row_len = m + 1;
      const std::size_t elems = rows * row_len;
      const int reps = static_cast<int>(
          std::max<std::size_t>(1, budget / (8 * elems)));
      std::vector<std::vector<F>> mat(rows);
      std::vector<const F*> ptrs(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        mat[i].resize(row_len);
        for (auto& v : mat[i]) v = random_element<F>(rng);
        ptrs[i] = mat[i].data();
      }
      std::vector<F> exp(rows), got(rows);
      const double loop = time_ns_per_elem(elems, reps, [&] {
        for (std::size_t i = 0; i < rows; ++i) {
          F acc = F::zero();
          for (std::size_t j = row_len; j-- > 0;) {
            acc = (acc + mat[i][j]) * r;
          }
          exp[i] = acc;
        }
      });
      const double blk = time_ns_per_elem(elems, reps, [&] {
        batch_combine_block<F>(ptrs, row_len, r, got);
      });
      const bool match = got == exp;
      ok = ok && match;
      t.row({fmt(m), fmt(loop), fmt(blk), fmt(loop / blk),
             match ? "yes" : "NO"});
    }
    t.print();
  }

  // 5) ChaCha20 keystream: M blocks one at a time (chacha_block) vs four
  // per call (chacha_blocks4, the refill Chacha runs), bit-asserted.
  {
    Table t({"M", "one_ns_per_block", "four_ns_per_block", "speedup",
             "match"});
    t.context("table", "chacha_blocks");
    std::array<std::uint32_t, 16> state{};
    for (auto& w : state) w = rng.next_u32();
    for (const std::size_t m : ms) {
      const std::size_t blocks = (m + 3) / 4 * 4;
      const int reps = static_cast<int>(
          std::max<std::size_t>(1, budget / (16 * blocks)));
      std::vector<std::uint32_t> one(16 * blocks), four(16 * blocks);
      const double t1 = time_ns_per_elem(blocks, reps, [&] {
        for (std::size_t b = 0; b < blocks; ++b) {
          chacha_block(state, b,
                       std::span<std::uint32_t, 16>(one.data() + 16 * b, 16));
        }
      });
      const double t4 = time_ns_per_elem(blocks, reps, [&] {
        for (std::size_t b = 0; b < blocks; b += 4) {
          chacha_blocks4(
              state, b, std::span<std::uint32_t, 64>(four.data() + 16 * b, 64));
        }
      });
      const bool match = one == four;
      ok = ok && match;
      t.row({fmt(blocks), fmt(t1), fmt(t4), fmt(t1 / t4),
             match ? "yes" : "NO"});
    }
    t.print();
  }

  // 6) NTT crossover: locates FftField::kNttCrossoverL (the constant
  // mul_auto switches on) by timing both paths per l.
  {
    Table t({"l", "schoolbook_ns", "ntt_ns", "winner"});
    t.context("table", "ntt_crossover");
    t.context("crossover_l", fmt(FftField::kNttCrossoverL));
    for (const unsigned l : {4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
      const FftField f(l);
      std::vector<FftElem> xs;
      for (int i = 0; i < 64; ++i) {
        std::uint32_t words[FftElem::kMaxL];
        for (unsigned w = 0; w < f.l(); ++w) words[w] = rng.next_u32();
        xs.push_back(f.from_words(words));
      }
      const int reps = (smoke ? 200 : 2000) / (l >= 128 ? 4 : 1);
      FftElem acc = f.one();
      std::size_t i = 0;
      const double naive = time_ns_per_elem(1, reps, [&] {
        acc = f.mul_naive(acc, xs[i++ & 63]);
      });
      benchmark::DoNotOptimize(acc);
      acc = f.one();
      const double ntt = time_ns_per_elem(1, reps, [&] {
        acc = f.mul(acc, xs[i++ & 63]);
      });
      benchmark::DoNotOptimize(acc);
      t.row({fmt(l), fmt(naive), fmt(ntt),
             ntt < naive ? "NTT" : "schoolbook"});
    }
    t.print();
  }

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: fast-path/reference mismatch in sweep\n");
    return 1;
  }
  if (!bench::json_mode()) {
    std::printf(
        "\nshape check: every match column yes (fast path == reference, "
        "bit-for-bit); hw CLMUL >= 10x soft at every M; the inline "
        "share-row kernels (eval_small_x, combine_inline) beat the "
        "per-element loop from M = 64 and four-block ChaCha beats single "
        "blocks; NTT wins from l >= %u.\n",
        FftField::kNttCrossoverL);
  }
  return 0;
}

}  // namespace dprbg

int main(int argc, char** argv) {
  // Strip the custom flags before benchmark::Initialize (google-benchmark
  // rejects flags it does not recognize).
  bool sweep = false;
  bool smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--sweep-M") {
      sweep = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--json") {
      dprbg::bench::json_mode_ref() = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (sweep) return dprbg::run_kernel_sweep(smoke);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Crossover summary (the paper's "an implementation should be careful
  // about which method it uses"): compare ~equal-k configurations by a
  // quick direct timing.
  using namespace dprbg;
  using namespace dprbg::bench;
  print_header("E1: GF(2^k) naive vs GF(q^l) NTT multiplication",
               "naive O(k^2) wins for small k; NTT O(k log k) wins "
               "asymptotically (Section 2)");
  Table table({"k(approx)", "gf2_ns/op", "ntt_ns/op", "ntt_naive_ns/op",
               "winner"});
  Chacha rng(7);
  auto time_gf2 = [&](auto sample, int iters) {
    using F = decltype(sample);
    std::vector<F> xs;
    for (int i = 0; i < 64; ++i) xs.push_back(random_nonzero<F>(rng));
    const auto start = std::chrono::steady_clock::now();
    F acc = F::one();
    for (int i = 0; i < iters; ++i) acc = acc * xs[i & 63];
    benchmark::DoNotOptimize(acc);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start).count() /
           iters;
  };
  auto time_fft = [&](const FftField& f, bool ntt, int iters) {
    std::vector<FftElem> xs;
    for (int i = 0; i < 64; ++i) {
      std::uint32_t words[FftElem::kMaxL];
      for (unsigned w = 0; w < f.l(); ++w) words[w] = rng.next_u32();
      xs.push_back(f.from_words(words));
    }
    FftElem acc = f.one();
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      acc = ntt ? f.mul(acc, xs[i & 63]) : f.mul_naive(acc, xs[i & 63]);
    }
    benchmark::DoNotOptimize(acc);
    const auto stop = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(stop - start).count() /
           iters;
  };
  constexpr int kIters = 200000;
  {
    const double g8 = time_gf2(GF2_8::one(), kIters);
    const FftField f(4);
    const double ntt = time_fft(f, true, kIters / 4);
    const double nv = time_fft(f, false, kIters / 4);
    table.row({"8", fmt(g8), fmt(ntt), fmt(nv),
               g8 < std::min(ntt, nv) ? "gf2 naive/table" : "special field"});
  }
  {
    const double g16 = time_gf2(GF2_16::one(), kIters);
    const FftField f(8);
    const double ntt = time_fft(f, true, kIters / 8);
    const double nv = time_fft(f, false, kIters / 8);
    table.row({"16", fmt(g16), fmt(ntt), fmt(nv),
               g16 < std::min(ntt, nv) ? "gf2 naive/table" : "special field"});
  }
  {
    const double g64 = time_gf2(GF2_64::one(), kIters);
    const FftField f(16);
    const double ntt = time_fft(f, true, kIters / 8);
    const double nv = time_fft(f, false, kIters / 8);
    table.row({"64", fmt(g64), fmt(ntt), fmt(nv),
               g64 < std::min(ntt, nv) ? "gf2 naive/table" : "special field"});
  }
  for (unsigned l : {64u, 128u, 256u}) {
    const FftField f(l);  // k ~ l * log2(q) >> 64: the large-k regime
    const double ntt = time_fft(f, true, kIters / (2 * l));
    const double nv = time_fft(f, false, kIters / (2 * l));
    table.row({std::to_string(static_cast<int>(f.bits())), "n/a", fmt(ntt),
               fmt(nv), ntt < nv ? "NTT" : "schoolbook"});
  }
  table.print();

  return 0;
}
