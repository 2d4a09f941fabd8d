// Shared plumbing for the repository benchmark: options, the result record
// perfbench prints, timers, and the sample statistics every workload uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

#include "util/rng.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< run the per-layer ledger instead of the end-to-end loop.
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's verdict: `attempted`/`failed` count the workload's units (put/get
/// calls on the threaded workloads, programs on sim_fuzz); a failed output
/// check counts its unit as failed instead of aborting the run.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

Result run_thread_contended(const Options& options);
Result run_thread_spread(const Options& options);
Result run_sim_fuzz(const Options& options);

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Cheap monotonic stamps: the TSC where available, else steady_clock.
/// RDTSCP waits for earlier instructions to finish, so a stamp closes the
/// span before it instead of drifting ahead of a pending cache miss.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int aux = 0;
  return __rdtscp(&aux);
#else
  return now_ns();
#endif
}

/// Converts ticks() intervals to ns; measured once per run.
struct TickScale {
  double ticks_per_ns = 1;
  double stamp_ns = 0;  ///< cost of one stamp, subtracted from every traced segment.

  double ns(std::uint64_t ticks_elapsed) const {
    return static_cast<double>(ticks_elapsed) / ticks_per_ns;
  }
};

inline TickScale calibrate_ticks() {
  TickScale scale;
  const std::uint64_t ns0 = now_ns();
  const std::uint64_t t0 = ticks();
  while (now_ns() - ns0 < 20'000'000) {
  }
  scale.ticks_per_ns = static_cast<double>(ticks() - t0) / static_cast<double>(now_ns() - ns0);
  if (!(scale.ticks_per_ns > 0)) scale.ticks_per_ns = 1;
  constexpr int kPairs = 1 << 16;
  std::uint64_t sum = 0;
  for (int i = 0; i < kPairs; ++i) {
    const std::uint64_t a = ticks();
    const std::uint64_t b = ticks();
    sum += b - a;
  }
  scale.stamp_ns = static_cast<double>(sum) / kPairs / scale.ticks_per_ns;
  return scale;
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; sorts in place.
inline double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(values, 0.5); }

/// numerator / denominator, or 0 for an empty denominator.
inline double per(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0;
}

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Derives an independent, reproducible seed for stream `a`/`b` of a run.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  dsmr::util::SplitMix64 mixer(seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                               (b * 0xc2b2ae3d27d4eb4fULL));
  return mixer.next();
}

}  // namespace perfbench
