#include "common/flags.h"

#include <cstdio>
#include <cstdlib>

namespace causer {

Flags Flags::Parse(int argc, const char* const* argv,
                   const std::set<std::string>& switches) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      flags.positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags.values_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (switches.count(body) == 0 && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags.values_[body] = argv[++i];
    } else {
      flags.values_[body] = "";
    }
  }
  return flags;
}

const std::string* Flags::Find(const std::string& name) const {
  read_.insert(name);
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::Has(const std::string& name) const {
  return Find(name) != nullptr;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& fallback) const {
  const std::string* v = Find(name);
  return v == nullptr ? fallback : *v;
}

int Flags::GetInt(const std::string& name, int fallback) const {
  const std::string* v = Find(name);
  if (v == nullptr || v->empty()) return fallback;
  char* end = nullptr;
  long n = std::strtol(v->c_str(), &end, 10);
  if (end == nullptr || end == v->c_str() || *end != '\0') {
    // Trailing garbage ("--rerank-k=2kf") must not silently become the
    // fallback: the caller asked for a number and didn't get one.
    std::fprintf(stderr, "malformed integer for --%s: '%s'\n", name.c_str(),
                 v->c_str());
    std::exit(2);
  }
  return static_cast<int>(n);
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  const std::string* v = Find(name);
  if (v == nullptr || v->empty()) return fallback;
  char* end = nullptr;
  double x = std::strtod(v->c_str(), &end);
  if (end == nullptr || end == v->c_str() || *end != '\0') {
    std::fprintf(stderr, "malformed number for --%s: '%s'\n", name.c_str(),
                 v->c_str());
    std::exit(2);
  }
  return x;
}

bool Flags::GetBool(const std::string& name, bool fallback) const {
  const std::string* v = Find(name);
  if (v == nullptr) return fallback;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on")
    return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  std::fprintf(stderr, "malformed boolean for --%s: '%s'\n", name.c_str(),
               v->c_str());
  std::exit(2);
}

void Flags::ExitOnUnknown() const {
  for (const auto& [name, value] : values_) {
    if (read_.count(name) == 0) {
      std::fprintf(stderr, "unknown flag --%s\n", name.c_str());
      std::exit(2);
    }
  }
}

}  // namespace causer
