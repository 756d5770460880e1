#ifndef CAUSER_COMMON_STOPWATCH_H_
#define CAUSER_COMMON_STOPWATCH_H_

#include <chrono>

namespace causer {

/// Wall-clock stopwatch returning a scalar duration. Used wherever the
/// caller consumes the number directly: bench reports, log lines, and the
/// `*_seconds` histogram observations in the metrics registry
/// (common/metrics.h). For timing that should appear on a timeline instead,
/// use trace::TraceSpan (common/trace.h), which records begin/end events
/// into per-thread buffers for chrome://tracing export rather than
/// returning a value.
class Stopwatch {
 public:
  /// Starts (or restarts) the stopwatch.
  Stopwatch();

  /// Resets the start time to now.
  void Restart();

  /// Seconds elapsed since construction or the last Restart().
  double ElapsedSeconds() const;

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace causer

#endif  // CAUSER_COMMON_STOPWATCH_H_
