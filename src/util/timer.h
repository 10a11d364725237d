#ifndef KRCORE_UTIL_TIMER_H_
#define KRCORE_UTIL_TIMER_H_

#include <chrono>
#include <limits>

namespace krcore {

/// Monotonic stopwatch used for all reported timings.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// A wall-clock budget for a mining call. The paper reports `INF` for runs
/// exceeding one hour; mining routines poll a Deadline (cheaply, every few
/// thousand search steps) and abort with Status::DeadlineExceeded.
class Deadline {
 public:
  /// An infinite deadline (never expires).
  Deadline() : expires_at_(Clock::time_point::max()) {}

  static Deadline Infinite() { return Deadline(); }

  static Deadline AfterSeconds(double seconds) {
    Deadline d;
    d.expires_at_ =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    return d;
  }

  bool Expired() const {
    return expires_at_ != Clock::time_point::max() &&
           Clock::now() >= expires_at_;
  }

  bool IsInfinite() const { return expires_at_ == Clock::time_point::max(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point expires_at_;
};

}  // namespace krcore

#endif  // KRCORE_UTIL_TIMER_H_
