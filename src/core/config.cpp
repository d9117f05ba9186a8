#include "core/config.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace fl::core {

SamplerConfig SamplerConfig::paper_faithful(unsigned k, unsigned h,
                                            std::uint64_t seed) {
  SamplerConfig cfg;
  cfg.k = k;
  cfg.h = h;
  cfg.c = 2.0;
  cfg.log_exp_budget = 1.0;
  cfg.log_exp_trial = 3.0;
  cfg.seed = seed;
  return cfg;
}

SamplerConfig SamplerConfig::bench_profile(unsigned k, unsigned h,
                                           std::uint64_t seed) {
  SamplerConfig cfg;
  cfg.k = k;
  cfg.h = h;
  // Small constants expose the polynomial part of the bounds at the sizes a
  // laptop sweep can reach; the exponents (what the theorems predict) are
  // unchanged.
  cfg.c = 1.0;
  cfg.log_exp_budget = 1.0;
  cfg.log_exp_trial = 1.0;
  cfg.seed = seed;
  return cfg;
}

double SamplerConfig::delta() const {
  return 1.0 / (std::exp2(static_cast<double>(k) + 1.0) - 1.0);
}

double SamplerConfig::epsilon() const {
  FL_REQUIRE(h >= 1, "SamplerConfig: h must be >= 1");
  return 1.0 / static_cast<double>(h);
}

double SamplerConfig::pow3(unsigned j) {
  double out = 1.0;
  for (unsigned i = 0; i < j; ++i) out *= 3.0;
  return out;
}

double SamplerConfig::stretch_bound() const { return 2.0 * pow3(k) - 1.0; }

std::size_t SamplerConfig::budget(double n, unsigned level) const {
  FL_REQUIRE(n >= 2.0, "budget: n too small");
  const double expo = std::exp2(static_cast<double>(level)) * delta();
  const double logn = std::log2(n);
  const double value =
      c * std::pow(n, expo) * std::pow(logn, log_exp_budget);
  return static_cast<std::size_t>(std::max(1.0, std::ceil(value)));
}

std::size_t SamplerConfig::trial_size(double n, unsigned level) const {
  FL_REQUIRE(n >= 2.0, "trial_size: n too small");
  const double expo =
      std::exp2(static_cast<double>(level)) * delta() + epsilon();
  const double logn = std::log2(n);
  const double value =
      c * c * std::pow(n, expo) * std::pow(logn, log_exp_trial);
  return static_cast<std::size_t>(std::max(1.0, std::ceil(value)));
}

double SamplerConfig::center_prob(double n, unsigned level) const {
  FL_REQUIRE(n >= 2.0, "center_prob: n too small");
  const double expo = std::exp2(static_cast<double>(level)) * delta();
  return std::pow(n, -expo);
}

void SamplerConfig::validate(std::size_t n) const {
  FL_REQUIRE(n >= 2, "Sampler needs n >= 2");
  FL_REQUIRE(k >= 1, "Sampler needs k >= 1");
  FL_REQUIRE(h >= 1, "Sampler needs h >= 1");
  FL_REQUIRE(c > 0.0, "Sampler needs c > 0");
  // The paper allows k <= log log n and h <= log n; we enforce generous
  // caps (hard failure beyond them would only waste work, not break
  // correctness, but out-of-range parameters signal caller confusion).
  const double logn = std::log2(static_cast<double>(n));
  FL_REQUIRE(static_cast<double>(h) <= std::max(1.0, logn),
             "Sampler needs h <= log n");
  FL_REQUIRE(static_cast<double>(k) <=
                 std::max(1.0, std::log2(std::max(2.0, logn)) + 1.0),
             "Sampler needs k <= log log n (+1 slack)");
  FL_REQUIRE(!congest.has_value() ||
                 congest->words_per_edge_per_round >= 1,
             "Sampler congest budget must be >= 1 word");
}

std::string SamplerConfig::describe() const {
  char buf[320];
  char congest_buf[64] = "";
  if (congest.has_value() && congest->enforced()) {
    std::snprintf(congest_buf, sizeof(congest_buf), " congest=%llu:%s",
                  static_cast<unsigned long long>(
                      congest->words_per_edge_per_round),
                  congest->policy == sim::CongestPolicy::Strict ? "strict"
                                                                : "defer");
  }
  std::snprintf(buf, sizeof(buf),
                "Sampler(k=%u h=%u c=%.2f delta=%.4f eps=%.4f stretch<=%.0f "
                "log_exp=[%.1f,%.1f]%s%s%s)",
                k, h, c, delta(), epsilon(), stretch_bound(), log_exp_budget,
                log_exp_trial, force_light_completion ? " +force_light" : "",
                peel_parallel_edges ? "" : " -peeling", congest_buf);
  return buf;
}

}  // namespace fl::core
