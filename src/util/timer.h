// Wall-clock timing and a named accumulator for the paper's runtime
// breakdown (Fig. 7 splits mGP into density, wirelength and other).
#pragma once

#include <chrono>
#include <map>
#include <string>

namespace ep {

/// Simple stopwatch measuring wall time in seconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}
  void reset() { start_ = Clock::now(); }
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates labeled durations; mGP's Fig. 7 split is kept in one.
class TimeBreakdown {
 public:
  void add(const std::string& label, double seconds) {
    seconds_[label] += seconds;
  }
  [[nodiscard]] double get(const std::string& label) const {
    const auto it = seconds_.find(label);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_;
};

/// RAII helper: adds the elapsed time to a breakdown on destruction.
class ScopedTimer {
 public:
  ScopedTimer(TimeBreakdown& sink, std::string label)
      : sink_(sink), label_(std::move(label)) {}
  ~ScopedTimer() { sink_.add(label_, timer_.seconds()); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimeBreakdown& sink_;
  std::string label_;
  Timer timer_;
};

}  // namespace ep
