#ifndef CAUSER_COMMON_LOG_H_
#define CAUSER_COMMON_LOG_H_

#include <sstream>
#include <string>

namespace causer {

/// Log verbosity levels, lowest first.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Emits a single log line to stderr when `level` is kInfo or above.
void LogMessage(LogLevel level, const std::string& message);

namespace internal {

/// Stream-style collector that emits on destruction.
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { LogMessage(level_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

/// CHECK-style invariant enforcement: aborts with a message on failure.
/// Used for programmer errors (shape mismatches etc.), not data errors.
void CheckFailed(const char* file, int line, const char* expr);

#define CAUSER_CHECK(expr)                              \
  do {                                                  \
    if (!(expr)) {                                      \
      ::causer::CheckFailed(__FILE__, __LINE__, #expr); \
    }                                                   \
  } while (0)

#define CAUSER_LOG(level) \
  ::causer::internal::LogStream(::causer::LogLevel::k##level)

}  // namespace causer

#endif  // CAUSER_COMMON_LOG_H_
