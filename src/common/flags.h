#ifndef CAUSER_COMMON_FLAGS_H_
#define CAUSER_COMMON_FLAGS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

namespace causer {

/// Minimal command-line flag parser for the CLI tools:
///   --key=value  or  --key value  or  --bool_flag
/// Positional arguments are collected in order.
class Flags {
 public:
  /// Parses argv (argv[0] is skipped). Every flag is kept; ExitOnUnknown
  /// rejects the ones no getter asked for. A later occurrence of a flag
  /// overrides an earlier one. A flag named in `switches` never takes the
  /// next argument as its value ("--smoke out.json" is the switch plus a
  /// positional); it still accepts --name=value.
  static Flags Parse(int argc, const char* const* argv,
                     const std::set<std::string>& switches = {});

  /// True when --name was present (with or without a value).
  bool Has(const std::string& name) const;

  /// String value of --name, or `fallback` when absent.
  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const;

  /// Integer value of --name, or `fallback` when the flag is absent or has
  /// an empty value. A present-but-malformed value (trailing garbage,
  /// non-numeric) is a usage error: prints to stderr and exits 2 — it must
  /// never silently become the fallback.
  int GetInt(const std::string& name, int fallback) const;

  /// Double value of --name; same absent/empty fallback and exit-2
  /// malformed-value contract as GetInt.
  double GetDouble(const std::string& name, double fallback) const;

  /// Boolean: true for presence without value or value in
  /// {1, true, yes, on}; false for {0, false, no, off}. Any other value
  /// ("--check=ture") is a usage error that exits 2, like GetInt.
  bool GetBool(const std::string& name, bool fallback = false) const;

  /// Prints "unknown flag --<name>" and exits 2 when a flag was passed that
  /// none of the getters above has read, so a typo or a retired flag fails
  /// instead of running with defaults. Call once the command has read all
  /// of its flags and before it does any work.
  void ExitOnUnknown() const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The value of --name (null when absent), remembered as read.
  const std::string* Find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace causer

#endif  // CAUSER_COMMON_FLAGS_H_
