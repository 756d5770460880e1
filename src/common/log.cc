#include "common/log.h"

#include <cstdio>
#include <cstdlib>

namespace causer {
namespace {

/// Messages below this level are dropped.
constexpr LogLevel kMinLevel = LogLevel::kInfo;

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

}  // namespace

void LogMessage(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(kMinLevel)) return;
  std::fprintf(stderr, "[%s] %s\n", LevelName(level), message.c_str());
}

void CheckFailed(const char* file, int line, const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  std::abort();
}

}  // namespace causer
