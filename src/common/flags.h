#ifndef PLP_COMMON_FLAGS_H_
#define PLP_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace plp {

/// Minimal `--key=value` command-line parser for the example and benchmark
/// binaries. Not a general-purpose flags library: no registration, no
/// type-checked declarations — binaries query by name with a default.
///
/// Accepted forms: `--key=value`, `--key value`, and bare `--key` (which is
/// read as boolean true). Anything not starting with `--` is collected as a
/// positional argument.
class FlagParser {
 public:
  /// Parses argv. Returns an error on malformed input (e.g. empty key).
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  /// True if the flag was present on the command line.
  bool Has(const std::string& key) const;

  /// Every key present on the command line, in ascending order, so a
  /// binary can refuse the ones it does not read.
  std::vector<std::string> keys() const;

  /// Typed getters; return `def` when the flag is absent and abort via
  /// PLP_CHECK when the value cannot be parsed as the requested type.
  std::string GetString(const std::string& key, const std::string& def) const;
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  bool GetBool(const std::string& key, bool def) const;

  /// Parses a comma-separated list of doubles, e.g. `--eps=0.5,1,2`.
  std::vector<double> GetDoubleList(const std::string& key,
                                    const std::vector<double>& def) const;
  std::vector<int64_t> GetIntList(const std::string& key,
                                  const std::vector<int64_t>& def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  FlagParser() = default;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace plp

#endif  // PLP_COMMON_FLAGS_H_
