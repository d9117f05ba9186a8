#include "util/options.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace fl::util {

namespace {

void usage_check(bool ok, const std::string& message) {
  if (!ok) throw UsageError(message);
}

/// Signed base-10 integer spanning all of `text`; out-of-range values throw
/// instead of saturating. `what` names the option in every diagnostic.
std::int64_t parse_int(const std::string& text, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  usage_check(!text.empty() && end && *end == '\0',
              what + " expects an integer, got '" + text + "'");
  usage_check(errno != ERANGE, what + ": '" + text + "' is out of range");
  return v;
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  FL_REQUIRE(argc >= 1, "argv must contain the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    usage_check(arg.rfind("--", 0) == 0,
                "options must start with '--' (got '" + arg + "')");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

bool Options::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Options::get_string(const std::string& name,
                                const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& name,
                              std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  return parse_int(it->second, "option --" + name);
}

std::uint64_t Options::get_uint(const std::string& name, std::uint64_t fallback,
                                std::uint64_t max) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const std::string range = "option --" + name + " must be in [0, " +
                            std::to_string(max) + "], got '" + text + "'";
  // strtoull would wrap a negative value into a huge count.
  usage_check(text.find('-') == std::string::npos, range);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  usage_check(!text.empty() && end && *end == '\0',
              "option --" + name + " expects an integer, got '" + text + "'");
  usage_check(errno != ERANGE && v <= max, range);
  return v;
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(text.c_str(), &end);
  usage_check(!text.empty() && end && *end == '\0',
              "option --" + name + " expects a number, got '" + text + "'");
  usage_check(errno != ERANGE && std::isfinite(v),
              "option --" + name + ": '" + text + "' is out of range");
  return v;
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw UsageError("option --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::int64_t> Options::get_int_list(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::vector<std::int64_t> out;
  std::string token;
  const std::string& s = it->second;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == ',') {
      usage_check(!token.empty(), "option --" + name + ": empty list element");
      out.push_back(parse_int(token, "option --" + name));
      token.clear();
    } else {
      token += s[i];
    }
  }
  return out;
}

void Options::require_known(const std::vector<std::string>& accepted) const {
  std::string list;
  for (const std::string& a : accepted) list += " --" + a;
  for (const auto& [name, value] : values_)
    usage_check(
        std::find(accepted.begin(), accepted.end(), name) != accepted.end(),
        "unknown option --" + name + " (accepted:" + list + ")");
}

}  // namespace fl::util
