// Monotonic stopwatch for the benchmark harnesses.

#ifndef MODELARDB_UTIL_STOPWATCH_H_
#define MODELARDB_UTIL_STOPWATCH_H_

#include <chrono>

namespace modelardb {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace modelardb

#endif  // MODELARDB_UTIL_STOPWATCH_H_
