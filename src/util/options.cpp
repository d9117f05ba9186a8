#include "util/options.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/assert.hpp"

namespace fl::util {

Options::Options(int argc, const char* const* argv) {
  FL_REQUIRE(argc >= 1, "argv must contain the program name");
  program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    FL_REQUIRE(arg.rfind("--", 0) == 0,
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
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  FL_REQUIRE(end && *end == '\0',
             "option --" + name + " expects an integer, got '" + it->second + "'");
  return v;
}

std::uint64_t Options::get_uint(const std::string& name, std::uint64_t fallback,
                                std::uint64_t max) const {
  if (!has(name)) return fallback;
  const std::int64_t v = get_int(name, 0);
  FL_REQUIRE(v >= 0 && static_cast<std::uint64_t>(v) <= max,
             "option --" + name + " must be in [0, " + std::to_string(max) +
                 "], got '" + values_.at(name) + "'");
  return static_cast<std::uint64_t>(v);
}

double Options::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  FL_REQUIRE(end && *end == '\0',
             "option --" + name + " expects a number, got '" + it->second + "'");
  return v;
}

bool Options::get_bool(const std::string& name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  FL_REQUIRE(false, "option --" + name + " expects a boolean, got '" + v + "'");
  return fallback;  // unreachable
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
      FL_REQUIRE(!token.empty(), "option --" + name + ": empty list element");
      char* end = nullptr;
      out.push_back(std::strtoll(token.c_str(), &end, 10));
      FL_REQUIRE(end && *end == '\0',
                 "option --" + name + ": bad integer '" + token + "'");
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
    FL_REQUIRE(
        std::find(accepted.begin(), accepted.end(), name) != accepted.end(),
        "unknown option --" + name + " (accepted:" + list + ")");
}

}  // namespace fl::util
