#include "attribution.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace dprbg::bench {

std::optional<double> percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || q <= 0.0 || q >= 1.0) return std::nullopt;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t idx = rank == 0 ? 0 : rank - 1;
  if (n - 1 - idx < 10) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

namespace {

// Innermost span per round over [lo, hi]: paint spans widest first, and
// among equal ranges the outer one (closed later) first.
std::vector<int> innermost_by_round(const std::vector<SpanRec>& spans,
                                    std::uint64_t lo, std::uint64_t hi) {
  std::vector<int> owner(hi - lo + 1, -1);
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const SpanRec& x = spans[static_cast<std::size_t>(a)];
    const SpanRec& y = spans[static_cast<std::size_t>(b)];
    const std::uint64_t lx = x.r1 - x.r0;
    const std::uint64_t ly = y.r1 - y.r0;
    if (lx != ly) return lx > ly;
    return x.seq > y.seq;
  });
  for (int i : order) {
    const SpanRec& s = spans[static_cast<std::size_t>(i)];
    const std::uint64_t from = std::max(s.r0, lo);
    const std::uint64_t to = std::min(s.r1, hi + 1);
    for (std::uint64_t r = from; r < to; ++r) owner[r - lo] = i;
  }
  return owner;
}

}  // namespace

StreamCharges attribute_stream(
    std::span<const Stamp> stamps, std::vector<SpanRec> spans,
    const std::map<std::uint64_t, std::uint64_t>& first_send_seq) {
  StreamCharges out;
  if (stamps.empty()) return out;
  std::sort(spans.begin(), spans.end(),
            [](const SpanRec& a, const SpanRec& b) { return a.seq < b.seq; });

  std::uint64_t lo = stamps.front().round;
  std::uint64_t hi = lo;
  std::int64_t begin_ns = -1;
  std::int64_t end_ns = -1;
  for (const Stamp& s : stamps) {
    lo = std::min(lo, s.round);
    hi = std::max(hi, s.round);
    if (s.kind == StampKind::kBegin && begin_ns < 0) begin_ns = s.ns;
    if (s.kind == StampKind::kEnd) end_ns = s.ns;
  }
  if (begin_ns >= 0 && end_ns >= begin_ns) out.wall_ns = end_ns - begin_ns;
  const std::vector<int> covering = innermost_by_round(spans, lo, hi);

  const auto name_of = [&](int i) -> const std::string& {
    static const std::string driver = kDriver;
    return i < 0 ? driver : spans[static_cast<std::size_t>(i)].name;
  };
  const auto covering_round = [&](std::uint64_t r) {
    return covering[r - lo];
  };
  // The span that made round r's first send: the first span to close
  // after that send whose range includes r. Sends made outside every span
  // would make this scan run on, so it gives up after a few candidates.
  constexpr std::ptrdiff_t kMaxScan = 64;
  const auto sender_of_round = [&](std::uint64_t r) {
    const auto it = first_send_seq.find(r);
    if (it == first_send_seq.end()) return covering_round(r);
    auto s = std::upper_bound(
        spans.begin(), spans.end(), it->second,
        [](std::uint64_t seq, const SpanRec& sp) { return seq < sp.seq; });
    const auto stop = spans.end() - s > kMaxScan ? s + kMaxScan : spans.end();
    for (; s != stop; ++s) {
      if (s->r0 <= r && r <= s->r1) {
        return static_cast<int>(s - spans.begin());
      }
    }
    return covering_round(r);
  };

  bool started = false;
  for (std::size_t k = 1; k < stamps.size(); ++k) {
    const Stamp& a = stamps[k - 1];
    const Stamp& b = stamps[k];
    if (a.kind == StampKind::kBegin) started = true;
    if (!started) continue;
    if (a.kind == StampKind::kEnd) break;
    const std::int64_t d = b.ns - a.ns;
    out.charged_ns += d;
    if (b.kind == StampKind::kExit) {
      out.wait_ns[name_of(covering_round(b.round))] += d;
      out.sync_wait_ns += d;
    } else if (a.kind == StampKind::kExit) {
      out.self_ns[name_of(covering_round(a.round))] += d;
    } else if (b.kind == StampKind::kFirstSend ||
               b.kind == StampKind::kEnter) {
      out.self_ns[name_of(sender_of_round(b.round))] += d;
    } else if (a.kind == StampKind::kCall && b.kind == StampKind::kReturn) {
      out.wait_ns[kDriver] += d;
    } else {
      out.self_ns[kDriver] += d;
    }
  }
  return out;
}

double attribution_error(std::int64_t charged_ns, std::int64_t wall_ns) {
  if (wall_ns <= 0) return charged_ns == 0 ? 0.0 : 1.0;
  return std::abs(static_cast<double>(charged_ns - wall_ns)) /
         static_cast<double>(wall_ns);
}

}  // namespace dprbg::bench
