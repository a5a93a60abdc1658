#ifndef TQP_BENCH_BENCH_UTIL_H_
#define TQP_BENCH_BENCH_UTIL_H_

// Shared harness for the figure-reproduction benches: the paper reports the
// median of 5 runs after 5 warm-up runs (§2.3); MedianTime reproduces that
// protocol. Scale factor defaults keep every bench under a few seconds on a
// laptop; pass a scale factor as argv[1] to go bigger.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "common/stopwatch.h"

namespace tqp::bench {

struct TimingProtocol {
  int warmup_runs = 5;
  int timed_runs = 5;
};

/// \brief Runs `fn` per the paper's protocol and returns the median seconds.
inline double MedianTime(const std::function<void()>& fn,
                         const TimingProtocol& protocol = {}) {
  for (int i = 0; i < protocol.warmup_runs; ++i) fn();
  std::vector<double> times;
  times.reserve(static_cast<size_t>(protocol.timed_runs));
  for (int i = 0; i < protocol.timed_runs; ++i) {
    Stopwatch timer;
    fn();
    times.push_back(timer.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// \brief Scale factor from argv[1], with a bench-appropriate default.
inline double ScaleFactorArg(int argc, char** argv, double default_sf) {
  if (argc > 1) {
    const double sf = std::strtod(argv[1], nullptr);
    if (sf > 0) return sf;
  }
  return default_sf;
}

inline void PrintHeader(const char* title) {
  std::printf("\n=== %s ===\n", title);
}

}  // namespace tqp::bench

#endif  // TQP_BENCH_BENCH_UTIL_H_
