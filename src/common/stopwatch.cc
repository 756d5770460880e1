#include "common/stopwatch.h"

namespace causer {

Stopwatch::Stopwatch() : start_(std::chrono::steady_clock::now()) {}

void Stopwatch::Restart() { start_ = std::chrono::steady_clock::now(); }

double Stopwatch::ElapsedSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

}  // namespace causer
