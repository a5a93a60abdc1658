#ifndef TQP_COMMON_STOPWATCH_H_
#define TQP_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace tqp {

/// \brief Monotonic wall-clock stopwatch for phase timings (sessions, EXPLAIN
/// ANALYZE, the adaptive morsel sizer) and the benches.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// \brief Elapsed time since construction or last Reset, in nanoseconds.
  int64_t ElapsedNanos() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }

  double ElapsedMicros() const { return static_cast<double>(ElapsedNanos()) / 1e3; }
  double ElapsedMillis() const { return static_cast<double>(ElapsedNanos()) / 1e6; }
  double ElapsedSeconds() const { return static_cast<double>(ElapsedNanos()) / 1e9; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tqp

#endif  // TQP_COMMON_STOPWATCH_H_
