// Tiny command-line option parser for examples and bench binaries.
//
// Supports `--name value`, `--name=value` and boolean `--flag`. Unknown
// options raise an error listing what is accepted (require_known) —
// examples are meant to be explored interactively, so misuse should teach
// rather than run something other than what was asked for. Every misuse
// throws UsageError; the binaries' shared main() (util/cli_main.cpp)
// prints it as "<program>: <message>" and exits with status 2.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/assert.hpp"

namespace fl::util {

/// Command-line misuse: a malformed, unknown or out-of-range option. The
/// message is the bare diagnostic, with no source location.
class UsageError : public ContractViolation {
 public:
  using ContractViolation::ContractViolation;
};

class Options {
 public:
  /// Parse argv. Throws UsageError on malformed input.
  Options(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Signed integer; a malformed or out-of-range value throws UsageError
  /// naming the option (never saturates).
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// Non-negative integer in [0, max], for counts, sizes and seeds that
  /// land in an unsigned type: a negative value or one above `max` throws
  /// UsageError instead of wrapping.
  std::uint64_t get_uint(
      const std::string& name, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  /// Finite number; an empty, malformed, non-finite (inf, nan) or
  /// out-of-range value throws UsageError naming the option.
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --sizes=256,512,1024.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, std::vector<std::int64_t> fallback) const;

  /// Throws UsageError naming the first option on the command line that is
  /// not in `accepted`, and listing what is.
  void require_known(const std::vector<std::string>& accepted) const;

  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
};

}  // namespace fl::util

/// The body of a bench or example binary; their main() is the shared one in
/// util/cli_main.cpp (the fl_cli library), which calls this.
int fl_main(int argc, char** argv);
