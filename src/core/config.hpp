// SamplerConfig — the paper's parameters (k, h, c) plus reproduction knobs.
//
// Paper quantities (Section 3, with n = |V_0|):
//   δ   = 1/(2^{k+1} − 1)                     (size exponent)
//   ε   = 1/h                                 (message exponent slack)
//   p_j = n^{−2^j δ}                          (center probability, level j)
//   budget_j     = c  · n^{2^j δ}     · log n       (target |F_v|)
//   trial_size_j = c² · n^{2^j δ + ε} · log³ n      (samples per trial)
//   trials per level = 2h
//
// Reproduction knobs that deviate *transparently* from the paper:
//   * log_exp_budget / log_exp_trial scale the log-power. The paper's log³n
//     is an analysis artifact: at laptop-scale n it dwarfs the polynomial
//     part and hides the growth exponents the theorems predict. The
//     bench_profile() lowers the powers; the paper_faithful() profile keeps
//     them. Both are exercised by tests.
//   * force_light_completion patches the 1/poly(n) failure event (a node
//     finishing neither light nor heavy) by exhaustively querying its
//     leftover edges. Off by default — the benches *measure* the failure
//     rate instead of hiding it; the flag exists for downstream users who
//     need a certified spanner, and as ablation bench material.
//   * congest runs the distributed Sampler under a CONGEST budget. The
//     budget alone picks its phase barrier: the paper's fixed timetable in
//     plain LOCAL, event-driven barriers under an enforced budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sim/congest.hpp"

namespace fl::core {

struct SamplerConfig {
  unsigned k = 2;  ///< hierarchy depth; 1 <= k <= log log n
  unsigned h = 3;  ///< trial halving parameter; 1 <= h <= log n; ε = 1/h
  double c = 1.0;  ///< the paper's "sufficiently large constant"

  double log_exp_budget = 1.0;  ///< power of log n in budget_j
  double log_exp_trial = 3.0;   ///< power of log n in trial_size_j

  bool force_light_completion = false;  ///< patch the whp failure event
  bool peel_parallel_edges = true;      ///< ablation: key idea of Sec. 1.3

  /// CONGEST bandwidth budget for the distributed run's network (see
  /// sim/congest.hpp). nullopt = the network's own default (FL_SIM_CONGEST
  /// probe, else unlimited). It also picks the phase barrier: plain LOCAL
  /// runs the paper's fixed timetable; an enforced budget runs event-driven
  /// barriers, so every session completes however far the budget
  /// stretches it (see distributed_sampler.hpp).
  std::optional<sim::CongestConfig> congest;

  std::uint64_t seed = 1;

  /// Paper-faithful constants (c = 2, log n and log³ n factors).
  static SamplerConfig paper_faithful(unsigned k, unsigned h,
                                      std::uint64_t seed);

  /// Scaled-down constants for exponent measurement at n <= 2^16.
  static SamplerConfig bench_profile(unsigned k, unsigned h,
                                     std::uint64_t seed);

  double delta() const;    ///< 1/(2^{k+1} − 1)
  double epsilon() const;  ///< 1/h

  /// 3^j as a double (j <= 40 or so).
  static double pow3(unsigned j);

  /// Stretch guarantee of Theorem 9: 2·3^k − 1.
  double stretch_bound() const;

  /// Per-level quantities; `n` is the *physical* node count n_0.
  std::size_t budget(double n, unsigned level) const;
  std::size_t trial_size(double n, unsigned level) const;
  double center_prob(double n, unsigned level) const;
  unsigned trials_per_level() const { return 2 * h; }

  /// Predicted |S| exponent: |S| = Õ(n^{1+δ}).
  double size_exponent() const { return 1.0 + delta(); }

  /// Predicted message exponent (Theorem 11): Õ(n^{1+δ+ε}).
  double message_exponent() const { return 1.0 + delta() + epsilon(); }

  /// Validate against a concrete n; throws on out-of-range parameters.
  void validate(std::size_t n) const;

  std::string describe() const;
};

}  // namespace fl::core
