#ifndef QCFE_PERFBENCH_BENCH_UTIL_H_
#define QCFE_PERFBENCH_BENCH_UTIL_H_

/// \file bench_util.h
/// Measurement helpers of the benchmark, kept apart from the program's own
/// utilities so that a change to the program cannot change how it is
/// measured: order statistics, a seeded open-loop arrival schedule, and an
/// in-memory span recorder with per-layer self-time accounting.
/// Header-only; perfbench_helpers_test covers every function here.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (the only clock the benchmark reads).
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// SplitMix64 step: mixes a seed into a well-spread 64-bit value.
inline uint64_t Mix(uint64_t a, uint64_t b = 0) {
  uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Small deterministic generator for traffic (xorshift64*).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed) | 1) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }
  /// Uniform in (0, 1]: never 0, so -log(u) is finite.
  double Uniform() {
    return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
  }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

/// The q-quantile (0 <= q <= 1) of `values` by linear interpolation between
/// order statistics (the numpy default). 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(const std::vector<double>& values) {
  return Percentile(values, 0.5);
}

inline double MeanOf(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// max(actual/predicted, predicted/actual), both floored at 1e-6 ms.
inline double QErrorOf(double actual, double predicted) {
  const double a = std::max(actual, 1e-6);
  const double p = std::max(predicted, 1e-6);
  return std::max(a / p, p / a);
}

/// Pearson correlation; 0 when either side has no variance.
inline double PearsonOf(const std::vector<double>& a,
                        const std::vector<double>& b) {
  const size_t n = std::min(a.size(), b.size());
  if (n < 2) return 0.0;
  double ma = 0.0, mb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double sab = 0.0, saa = 0.0, sbb = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sab += (a[i] - ma) * (b[i] - mb);
    saa += (a[i] - ma) * (a[i] - ma);
    sbb += (b[i] - mb) * (b[i] - mb);
  }
  if (saa <= 0.0 || sbb <= 0.0) return 0.0;
  return sab / std::sqrt(saa * sbb);
}

/// Open-loop Poisson arrivals: the send offsets (seconds from the phase
/// start) of every request due in [0, duration_s) at `rate_per_s`. The same
/// seed gives the same schedule.
inline std::vector<double> PoissonSchedule(uint64_t seed, double rate_per_s,
                                           double duration_s) {
  std::vector<double> out;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return out;
  Rng rng(seed);
  double t = 0.0;
  while (true) {
    t += -std::log(rng.Uniform()) / rate_per_s;
    if (t >= duration_s) break;
    out.push_back(t);
  }
  return out;
}

/// Share of `keys` whose value also occurs among the `window` keys before
/// it: how much work consecutive requests could share.
inline double RepeatShare(const std::vector<uint64_t>& keys, size_t window) {
  if (keys.empty()) return 0.0;
  size_t repeats = 0;
  std::map<uint64_t, size_t> last_seen;
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = last_seen.find(keys[i]);
    if (it != last_seen.end() && i - it->second <= window) ++repeats;
    last_seen[keys[i]] = i;
  }
  return static_cast<double>(repeats) / static_cast<double>(keys.size());
}

/// One traced interval. `parent` indexes the recorder's span list (-1 for
/// a root). The layer is the name's prefix before the first '.'.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

inline std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

/// Self time per layer: each span's duration minus the part of its
/// interval that its children cover (overlapping children are merged, and
/// children are clipped to the parent), summed by layer.
inline std::map<std::string, double> SelfTimeByLayer(
    const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, s.start);
      const double hi = std::min(hi_raw, s.end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    out[LayerOf(s.name)] += std::max(0.0, (s.end - s.start) - covered);
  }
  return out;
}

/// In-memory span recorder. Disabled recorders keep nothing and cost one
/// branch per span, so untraced runs measure the program alone. Spans are
/// opened and closed on the thread that drives the benchmark script; the
/// open-span stack supplies each new span's parent.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when disabled).
  int Begin(const std::string& name) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.start = NowSeconds();
    s.parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(index)].end = NowSeconds();
    if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench

#endif  // QCFE_PERFBENCH_BENCH_UTIL_H_
