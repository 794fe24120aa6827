// Pure statistics helpers of the benchmark: percentile choice, capacity from
// completion times, and failure counting. Header-only and
// free of library dependencies so tests/test_stats.cpp can check them on
// synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace axbench {

/// Latency of a request that was never served: it misses any limit.
inline constexpr double kUnserved = std::numeric_limits<double>::infinity();

/// 1-based nearest rank of percentile p among n samples. The epsilon keeps
/// binary rounding (0.999 * 10000 = 9990.000000000002) off the next rank.
inline int64_t nearest_rank(double p, int64_t n) {
  const auto r = static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<int64_t>(r, 1, n);
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; unserved (+inf) samples
/// sort last. Empty input gives NaN.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const int64_t rank = nearest_rank(p, static_cast<int64_t>(v.size()));
  return v[static_cast<size_t>(rank - 1)];
}

/// Median (the mean of the middle two for an even count); NaN when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The tail percentile a sample supports: the highest of a fixed ladder that
/// still has at least `min_beyond` samples strictly beyond its rank.
struct Tail {
  double pct = 0;       ///< chosen percentile (0 = the sample supports none)
  double value = 0;     ///< its value (the maximum when pct == 0)
  int64_t n = 0;        ///< sample count
  int64_t beyond = 0;   ///< samples ranked above the chosen one
};

inline Tail tail_percentile(const std::vector<double>& v, int64_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.99, 99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0};
  Tail t;
  t.n = static_cast<int64_t>(v.size());
  if (v.empty()) return t;
  for (double p : kLadder) {
    const int64_t rank = nearest_rank(p, t.n);
    if (t.n - rank >= min_beyond) {
      t.pct = p;
      t.beyond = t.n - rank;
      t.value = percentile(v, p);
      return t;
    }
  }
  t.value = *std::max_element(v.begin(), v.end());
  return t;
}

/// Completions per second over consecutive chunks of `chunk` requests,
/// from each request's completion time in ms (nondecreasing), skipping the
/// first `skip_head` (at least 1) and the last `skip_tail` requests. A
/// chunk's span runs from the completion before it to its last completion.
/// Chunks that hold an unserved request give no rate.
inline std::vector<double> chunk_rates(const std::vector<double>& done_ms, size_t skip_head,
                                       size_t skip_tail, size_t chunk) {
  std::vector<double> rates;
  if (skip_head == 0 || chunk == 0) return rates;
  const size_t end = done_ms.size() > skip_tail ? done_ms.size() - skip_tail : 0;
  for (size_t i = skip_head; i + chunk <= end; i += chunk) {
    const auto first = done_ms.begin() + static_cast<std::ptrdiff_t>(i - 1);
    const auto last = done_ms.begin() + static_cast<std::ptrdiff_t>(i + chunk);
    if (!std::all_of(first, last, [](double t) { return std::isfinite(t); })) continue;
    const double span = done_ms[i + chunk - 1] - done_ms[i - 1];
    if (span > 0) rates.push_back(static_cast<double>(chunk) / span * 1e3);
  }
  return rates;
}

/// Completions per second over the second half of a phase, from each
/// request's completion time in ms (nondecreasing: requests are awaited in
/// order). In a saturating phase the slot pool is full by then, so this is
/// the engine's capacity. 0 for fewer than 4 requests or when the last one
/// was never served.
inline double completion_rate(const std::vector<double>& done_ms) {
  const size_t n = done_ms.size(), half = n / 2;
  if (n < 4 || !std::isfinite(done_ms.back())) return 0.0;
  return static_cast<double>(n - 1 - half) / (done_ms.back() - done_ms[half]) * 1e3;
}

/// Outcome tally of one load phase. Shed, rejected and failed requests all
/// count as failures: they miss any latency limit.
struct Tally {
  int64_t sent = 0;
  int64_t served = 0;
  int64_t shed = 0;
  int64_t rejected = 0;
  int64_t failed = 0;  ///< await() threw

  int64_t failures() const { return shed + rejected + failed; }
  /// Share of sent requests that were served (1 when nothing was sent).
  double ok_share() const {
    return sent > 0 ? static_cast<double>(sent - failures()) / static_cast<double>(sent) : 1.0;
  }
  void add(const Tally& o) {
    sent += o.sent;
    served += o.served;
    shed += o.shed;
    rejected += o.rejected;
    failed += o.failed;
  }
};

}  // namespace axbench
