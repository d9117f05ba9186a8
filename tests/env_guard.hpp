// RAII override of one environment variable for the duration of a scope.
//
// The network probes FL_SIM_* variables at construction, so tests that
// sweep lanes or budgets through the environment set them around each run.
// The ambient value (e.g. FL_SIM_THREADS from a CI leg) is restored on
// exit, so later runs in the same process still see it.
#pragma once

#include <cstdlib>
#include <optional>
#include <string>

namespace fl::testing {

class EnvGuard {
 public:
  EnvGuard(const char* name, const std::string& value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    setenv(name, value.c_str(), 1);
  }
  ~EnvGuard() {
    if (old_) {
      setenv(name_, old_->c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

}  // namespace fl::testing
