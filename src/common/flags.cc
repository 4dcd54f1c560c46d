#include "common/flags.h"

#include <cstdlib>

#include "common/check.h"

namespace plp {
namespace {

bool LooksLikeFlag(const std::string& arg) {
  return arg.size() > 2 && arg[0] == '-' && arg[1] == '-';
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= s.size()) {
    const size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(s.substr(start));
      break;
    }
    parts.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
}

}  // namespace

Result<FlagParser> FlagParser::Parse(int argc, const char* const* argv) {
  FlagParser parser;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!LooksLikeFlag(arg)) {
      parser.positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      const std::string key = body.substr(0, eq);
      if (key.empty()) return InvalidArgumentError("empty flag name: " + arg);
      parser.values_[key] = body.substr(eq + 1);
      continue;
    }
    // `--key value` or bare boolean `--key`.
    if (i + 1 < argc && !LooksLikeFlag(argv[i + 1])) {
      parser.values_[body] = argv[i + 1];
      ++i;
    } else {
      parser.values_[body] = "true";
    }
  }
  return parser;
}

bool FlagParser::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::vector<std::string> FlagParser::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

int64_t FlagParser::GetInt(const std::string& key, int64_t def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  PLP_CHECK(end != nullptr && *end == '\0');
  return v;
}

double FlagParser::GetDouble(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  PLP_CHECK(end != nullptr && *end == '\0');
  return v;
}

bool FlagParser::GetBool(const std::string& key, bool def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  PLP_CHECK(false);
  return def;
}

std::vector<double> FlagParser::GetDoubleList(
    const std::string& key, const std::vector<double>& def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  std::vector<double> out;
  for (const std::string& part : SplitCommas(it->second)) {
    char* end = nullptr;
    out.push_back(std::strtod(part.c_str(), &end));
    PLP_CHECK(end != nullptr && *end == '\0');
  }
  return out;
}

std::vector<int64_t> FlagParser::GetIntList(
    const std::string& key, const std::vector<int64_t>& def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  std::vector<int64_t> out;
  for (const std::string& part : SplitCommas(it->second)) {
    char* end = nullptr;
    out.push_back(std::strtoll(part.c_str(), &end, 10));
    PLP_CHECK(end != nullptr && *end == '\0');
  }
  return out;
}

}  // namespace plp
