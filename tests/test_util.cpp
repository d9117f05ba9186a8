// Tests for the utility substrate: RNG determinism and distribution sanity,
// statistics (including the log-log exponent fits the benches rely on),
// tables and option parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "util/assert.hpp"
#include "util/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace fl::util {
namespace {

TEST(Rng, DeterministicStreams) {
  StreamFactory f(42);
  auto a = f.node_stream(7);
  auto b = f.node_stream(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DistinctKeysDistinctStreams) {
  StreamFactory f(42);
  auto a = f.node_stream(7);
  auto b = f.node_stream(8);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, TrialStreamsIndependentOfEachOther) {
  StreamFactory f(1);
  auto a = f.trial_stream(3, 1, 0);
  auto b = f.trial_stream(3, 1, 1);
  auto c = f.trial_stream(3, 2, 0);
  EXPECT_NE(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Xoshiro256 rng(123);
  const std::uint64_t bound = 10;
  std::vector<std::size_t> hist(bound, 0);
  const std::size_t draws = 100000;
  for (std::size_t i = 0; i < draws; ++i) ++hist[rng.below(bound)];
  for (const auto h : hist) {
    EXPECT_GT(h, draws / bound * 8 / 10);
    EXPECT_LT(h, draws / bound * 12 / 10);
  }
}

TEST(Rng, Uniform01InRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Xoshiro256 rng(11);
  std::size_t hits = 0;
  const std::size_t draws = 100000;
  for (std::size_t i = 0; i < draws; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgeCases) {
  Xoshiro256 rng(13);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, UniformIntCoversRange) {
  Xoshiro256 rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(-3, 3));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), -3);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(Rng, SampleWithoutReplacement) {
  Xoshiro256 rng(19);
  const auto sample = sample_without_replacement(100, 10, rng);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::size_t> uniq(sample.begin(), sample.end());
  EXPECT_EQ(uniq.size(), 10u);
  for (const auto s : sample) EXPECT_LT(s, 100u);
  // Degenerate: k >= n returns everything.
  const auto all = sample_without_replacement(5, 10, rng);
  EXPECT_EQ(all.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Xoshiro256 rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto w = v;
  shuffle(w, rng);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Stats, AccumulatorBasics) {
  Accumulator acc;
  for (double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.5);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 4.0);
  EXPECT_NEAR(acc.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(acc.sum(), 10.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(median({2.0, 1.0}), 1.5);
}

TEST(Stats, FitLineExact) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{3, 5, 7, 9};  // y = 1 + 2x
  const auto fit = fit_line(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, FitLoglogRecoversExponent) {
  // y = 5 * x^{1.5} -> log-log slope 1.5. This is the measurement machinery
  // behind the E3/E6 exponent benches.
  std::vector<double> x, y;
  for (double v : {256.0, 512.0, 1024.0, 2048.0, 4096.0}) {
    x.push_back(v);
    y.push_back(5.0 * std::pow(v, 1.5));
  }
  const auto fit = fit_loglog(x, y);
  EXPECT_NEAR(fit.slope, 1.5, 1e-9);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-9);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean({8.0}), 8.0, 1e-12);
}

TEST(Stats, ContractViolations) {
  EXPECT_THROW(percentile({}, 50), ContractViolation);
  EXPECT_THROW(fit_line({1}, {1}), ContractViolation);
  EXPECT_THROW(fit_loglog({1, -2}, {1, 2}), ContractViolation);
  EXPECT_THROW(geometric_mean({}), ContractViolation);
}

TEST(Table, AlignsAndCounts) {
  Table t({"name", "value"});
  t.add("alpha", 1.5);
  t.add("beta", std::size_t{42});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  std::ostringstream os;
  t.print(os, "demo");
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("42"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.add(1, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, RejectsAritiyMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Options, ParsesAllForms) {
  const char* argv[] = {"prog", "--n", "128", "--ratio=2.5", "--verbose",
                        "--sizes=1,2,3"};
  Options opt(6, argv);
  EXPECT_EQ(opt.get_int("n", 0), 128);
  EXPECT_DOUBLE_EQ(opt.get_double("ratio", 0.0), 2.5);
  EXPECT_TRUE(opt.get_bool("verbose", false));
  const auto sizes = opt.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[2], 3);
  EXPECT_EQ(opt.get_int("missing", 7), 7);
}

TEST(Options, RejectsMalformedInput) {
  const char* bad1[] = {"prog", "notanoption"};
  EXPECT_THROW(Options(2, bad1), ContractViolation);
  const char* bad2[] = {"prog", "--n", "abc"};
  Options opt(3, bad2);
  EXPECT_THROW(opt.get_int("n", 0), ContractViolation);

  // A number must be given, finite and in range; each rejection names the
  // option.
  const char* reals[] = {"prog", "--empty=", "--huge", "1e999", "--tiny",
                         "1e-999", "--inf", "inf", "--nan", "nan",
                         "--half", "0.5"};
  Options real(12, reals);
  for (const char* name : {"empty", "huge", "tiny", "inf", "nan"}) {
    try {
      real.get_double(name, 1.0);
      ADD_FAILURE() << "--" << name << " was accepted";
    } catch (const ContractViolation& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("--") + name), std::string::npos)
          << what;
    }
  }
  EXPECT_DOUBLE_EQ(real.get_double("half", 1.0), 0.5);
}

TEST(Options, RejectsUnknownFlagsAndOutOfRangeCounts) {
  const char* argv[] = {"prog", "--quik", "--seed", "-1", "--n=5"};
  Options opt(5, argv);
  EXPECT_NO_THROW(opt.require_known({"n", "quik", "seed"}));
  try {
    opt.require_known({"n", "quick", "seed"});
    ADD_FAILURE() << "unknown --quik was accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--quik"), std::string::npos) << what;
    EXPECT_NE(what.find("--n --quick --seed"), std::string::npos) << what;
  }
  // A negative value never wraps into a huge unsigned count.
  EXPECT_THROW(opt.get_uint("seed", 1), ContractViolation);
  EXPECT_EQ(opt.get_uint("n", 0, 5), 5u);
  EXPECT_THROW(opt.get_uint("n", 0, 4), ContractViolation);
  EXPECT_EQ(opt.get_uint("missing", 7), 7u);

  // Out-of-range integers throw naming the option instead of saturating,
  // and every seed in [0, 2^64) is accepted.
  const char* big[] = {"prog", "--seed", "99999999999999999999",
                       "--top", "18446744073709551615",
                       "--list=1,99999999999999999999"};
  Options wide(6, big);
  EXPECT_THROW(wide.get_uint("seed", 1), ContractViolation);
  EXPECT_THROW(wide.get_int_list("list", {}), ContractViolation);
  try {
    wide.get_int("seed", 1);
    ADD_FAILURE() << "an out-of-range --seed was accepted";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--seed"), std::string::npos) << what;
    EXPECT_NE(what.find("out of range"), std::string::npos) << what;
  }
  EXPECT_EQ(wide.get_uint("top", 1), 18446744073709551615ull);
}

}  // namespace
}  // namespace fl::util
