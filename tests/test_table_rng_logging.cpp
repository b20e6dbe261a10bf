// Tests for util/table (ASCII rendering), util/rng (its MT19937-64 words
// and their conversion to double against the standard library's, known
// answers and the distribution of each sampler), and util/logging
// (threshold behaviour).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace bml {
namespace {

TEST(AsciiTable, RendersAlignedRows) {
  AsciiTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "23"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   |"), std::string::npos);
  EXPECT_NE(out.find("| longer |    23 |"), std::string::npos);
}

TEST(AsciiTable, RejectsBadShapes) {
  EXPECT_THROW(AsciiTable({}), std::invalid_argument);
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.set_alignments({Align::kLeft}), std::invalid_argument);
}

TEST(AsciiTable, NumFormatsFixedDigits) {
  EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::num(2.0, 0), "2");
}

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_different = false;
  for (int i = 0; i < 10; ++i)
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_different = true;
  EXPECT_TRUE(any_different);
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const auto n = rng.uniform_int(-2, 2);
    EXPECT_GE(n, -2);
    EXPECT_LE(n, 2);
  }
}

TEST(Rng, PoissonAndChanceEdgeCases) {
  Rng rng(9);
  EXPECT_EQ(rng.poisson(-1.0), 0);
  EXPECT_EQ(rng.poisson(0.0), 0);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child stream should not replay the parent's next values.
  Rng b(5);
  (void)b.split();  // consume the one word split() consumed
  EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  (void)child;
}

TEST(Rng, UniformIntRejectsAnEmptyRange) {
  Rng rng(11);
  EXPECT_THROW((void)rng.uniform_int(1, 0), std::invalid_argument);
  EXPECT_THROW((void)rng.uniform_int(0, 86'400 - 90'000 - 1),
               std::invalid_argument);
  EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, CopiesAndMovesContinueTheSameStream) {
  Rng a(13);
  (void)a.poisson(50.0);  // the copy must not depend on a's Poisson cache
  Rng b = a;
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a.poisson(40.0 + i), b.poisson(40.0 + i));
    ASSERT_EQ(a.normal(0.0, 1.0), b.normal(0.0, 1.0));
  }
  Rng c = std::move(b);
  Rng d(1);
  d = a;
  for (int i = 0; i < 200; ++i) ASSERT_EQ(c.poisson(5000.5), d.poisson(5000.5));
}

// Rng holds the same state as std::mt19937_64 (312 words and an index)
// plus its Poisson cache pointer.
static_assert(sizeof(Rng) ==
              sizeof(std::mt19937_64) + sizeof(std::unique_ptr<int>));

/// The next raw engine word: uniform_int over the whole int64 range
/// returns word + 2^63 (mod 2^64).
std::uint64_t next_word(Rng& rng) {
  return static_cast<std::uint64_t>(rng.uniform_int(INT64_MIN, INT64_MAX)) ^
         (std::uint64_t{1} << 63);
}

// The engine's words are MT19937-64's: equal to std::mt19937_64's from
// the same seed across seven 312-word blocks, and a copy or a move taken
// mid-block continues the same stream.
TEST(Rng, EngineMatchesStdMt19937_64) {
  constexpr int kWords = 2'000;
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{1998},
        std::uint64_t{5489}, std::numeric_limits<std::uint64_t>::max()}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 reference(seed);
    Rng rng(seed);
    for (int i = 0; i < kWords; ++i) ASSERT_EQ(next_word(rng), reference());

    // Mid-block: 2,000 = 6 * 312 + 128 words drawn.
    std::mt19937_64 copied_reference = reference;
    Rng copy = rng;
    for (int i = 0; i < kWords; ++i) {
      ASSERT_EQ(next_word(rng), reference());
      ASSERT_EQ(next_word(copy), copied_reference());
    }
    for (int i = 0; i < 100; ++i) ASSERT_EQ(next_word(rng), reference());
    Rng moved = std::move(rng);
    for (int i = 0; i < kWords; ++i) ASSERT_EQ(next_word(moved), reference());
  }
}

/// The conversion canonical_from_word replaces: the 64-bit word rounded to
/// double, scaled by 2^-64 and clamped below 1.
double reference_canonical(std::uint64_t word) {
  const double u = static_cast<double>(word) * 0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

// canonical_from_word gives the 64-bit conversion's exact double: on 10^6
// engine words and on every word within 4,096 of 2^53, 2^63 and 2^64,
// where the conversion rounds ties to even (and 2^64 - 1024 upward rounds
// to 1, which clamps). A fused multiply-add of the halves gives the same
// bits, since its product is exact too.
TEST(Rng, WordToDoubleMatchesTheStandardConversion) {
  const auto check = [](std::uint64_t word) {
    const double high =
        static_cast<double>(static_cast<std::uint32_t>(word >> 32));
    const double low = static_cast<double>(static_cast<std::uint32_t>(word));
    const double fused = std::fma(high, 0x1p32, low) * 0x1p-64;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(canonical_from_word(word)),
              std::bit_cast<std::uint64_t>(reference_canonical(word)))
        << word;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(fused < 1.0 ? fused
                                                       : 0x1.fffffffffffffp-1),
              std::bit_cast<std::uint64_t>(reference_canonical(word)))
        << word;
  };
  Rng rng(2026);
  for (int i = 0; i < 1'000'000; ++i) check(next_word(rng));
  for (const int exponent : {53, 63, 64})
    for (std::uint64_t d = 0; d <= 4'096; ++d) {
      const std::uint64_t boundary =
          exponent == 64 ? 0 : std::uint64_t{1} << exponent;
      if (exponent < 64) check(boundary + d);
      check(boundary - d);  // wraps below 2^64 for the top boundary
    }
  EXPECT_EQ(canonical_from_word(std::numeric_limits<std::uint64_t>::max()),
            0x1.fffffffffffffp-1);
  EXPECT_EQ(canonical_from_word((std::uint64_t{1} << 63) + 1024), 0.5);
  EXPECT_LT(canonical_from_word(-std::uint64_t{1025}), 1.0);
  EXPECT_EQ(canonical_from_word(0), 0.0);
}

// FNV-1a over the 64-bit pattern of each of 10^5 draws, least significant
// byte first. Draw i is draw(r) or, for a parameter sweep, draw(r, i).
template <class Draw>
std::uint64_t hash_draws(std::uint64_t seed, Draw draw) {
  Rng r(seed);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 100'000; ++i) {
    const auto value = [&] {
      if constexpr (std::is_invocable_v<Draw, Rng&, int>)
        return draw(r, i);
      else
        return draw(r);
    }();
    std::uint64_t word = 0;
    if constexpr (std::is_same_v<decltype(value), const double>)
      word = std::bit_cast<std::uint64_t>(value);
    else
      word = static_cast<std::uint64_t>(value);
    for (int b = 0; b < 64; b += 8)
      h = (h ^ ((word >> b) & 0xffU)) * 0x100000001b3ULL;
  }
  return h;
}

// The samplers' exact streams. The expected hashes were computed through
// libstdc++'s distributions (GCC 12), the path these samplers replace, so
// every trace and CSV keeps its bytes on any standard library. A change
// here changes every synthetic trace: re-pin the goldens with it.
TEST(Rng, KnownAnswers) {
  // Poisson: product method below 12, rejection from 12 up (cached per
  // floor(mean)), and a mean past the caches' key bound of 2^53.
  EXPECT_EQ(hash_draws(1001, [](Rng& r) { return r.poisson(0.5); }),
            0x0b923a28e3e9dd86ULL);
  EXPECT_EQ(hash_draws(1002, [](Rng& r) { return r.poisson(6.0); }),
            0xe219f869b887a93cULL);
  EXPECT_EQ(hash_draws(1003, [](Rng& r) { return r.poisson(11.999); }),
            0x6e5ee091bee9cf9aULL);
  EXPECT_EQ(hash_draws(1004, [](Rng& r) { return r.poisson(12.0); }),
            0xeb19631ede4753dfULL);
  EXPECT_EQ(hash_draws(1005, [](Rng& r) { return r.poisson(12.001); }),
            0x6301a4eee081a710ULL);
  EXPECT_EQ(hash_draws(1006, [](Rng& r) { return r.poisson(100.0); }),
            0x3edab44a6223a706ULL);
  EXPECT_EQ(hash_draws(1007, [](Rng& r) { return r.poisson(5000.0); }),
            0x1da6a518f5c56fe4ULL);
  EXPECT_EQ(hash_draws(1008, [](Rng& r) { return r.poisson(1e16); }),
            0x06b2cd38b67df2aeULL);
  // One stream over means 0, 0.25, ..., 5999.75: both methods, integer
  // and fractional means of each floor in turn, and thousands of floors
  // sharing cache slots.
  EXPECT_EQ(hash_draws(1017,
                       [](Rng& r, int i) {
                         return r.poisson(0.25 * (i % 24'000));
                       }),
            0xb7be72cd901a9fffULL);
  EXPECT_EQ(hash_draws(1009, [](Rng& r) { return r.uniform_int(3, 3); }),
            0x92272c409ff35125ULL);
  EXPECT_EQ(hash_draws(1010, [](Rng& r) { return r.uniform_int(0, 86'399); }),
            0xc41b521d1002f72fULL);
  EXPECT_EQ(hash_draws(1011,
                       [](Rng& r) {
                         return r.uniform_int(INT64_MIN, INT64_MAX);
                       }),
            0x1f6a83a5ecbe4c0eULL);
  EXPECT_EQ(hash_draws(1012, [](Rng& r) { return r.uniform(0.0, 1.0); }),
            0x40c1358886c8a027ULL);
  EXPECT_EQ(hash_draws(1013, [](Rng& r) { return r.uniform(-1e3, 2.5); }),
            0xf09fa058e7eb72a9ULL);
  EXPECT_EQ(hash_draws(1014, [](Rng& r) { return r.normal(0.0, 1.0); }),
            0x93919d50398f0029ULL);
  EXPECT_EQ(hash_draws(1015, [](Rng& r) { return r.normal(5.0, 0.25); }),
            0x36bb2927ae8cb0afULL);
  EXPECT_EQ(hash_draws(1016, [](Rng& r) { return r.chance(0.3); }),
            0x87367834a9cc4ec5ULL);
}

struct Moments {
  double mean = 0.0;
  double variance = 0.0;  // unbiased
};

Moments moments(const std::vector<double>& xs) {
  Moments m;
  for (const double x : xs) m.mean += x;
  m.mean /= static_cast<double>(xs.size());
  for (const double x : xs) m.variance += (x - m.mean) * (x - m.mean);
  m.variance /= static_cast<double>(xs.size() - 1);
  return m;
}

// Upper 1e-6 quantile of chi-square with `df` degrees of freedom
// (Wilson-Hilferty).
double chi_square_bound(double df) {
  const double z = 4.753;
  const double a = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - a + z * std::sqrt(a), 3.0);
}

// Checks each sampler against its distribution, not against the old
// bytes: sample mean and variance within five standard errors, and for
// Poisson a chi-square of the counts against the pmf. Seeds are fixed, so
// the outcome is deterministic.
TEST(Rng, PoissonMatchesItsDistribution) {
  constexpr int kDraws = 100'000;
  const double n = kDraws;
  for (const double lambda : {0.5, 6.0, 11.999, 12.0, 12.001, 100.0, 5000.0}) {
    SCOPED_TRACE("mean " + std::to_string(lambda));
    Rng rng(2024);
    std::vector<double> draws(kDraws);
    for (double& x : draws) x = static_cast<double>(rng.poisson(lambda));
    const Moments m = moments(draws);
    EXPECT_NEAR(m.mean, lambda, 5.0 * std::sqrt(lambda / n));
    EXPECT_NEAR(m.variance, lambda,
                5.0 * std::sqrt((lambda + 2.0 * lambda * lambda) / n));

    // Bins of consecutive counts, each expecting at least 5 draws; the
    // tails fold into the first and last bins.
    const auto last = static_cast<std::int64_t>(
        lambda + 12.0 * std::sqrt(lambda) + 30.0);
    std::vector<double> expected;
    std::vector<std::int64_t> bin_end;  // inclusive upper count of each bin
    double pending = 0.0, cdf = 0.0;
    for (std::int64_t k = 0; k <= last; ++k) {
      const double kd = static_cast<double>(k);
      const double p =
          std::exp(kd * std::log(lambda) - lambda - std::lgamma(kd + 1.0));
      cdf += p;
      pending += n * p;
      if (pending >= 5.0) {
        expected.push_back(pending);
        bin_end.push_back(k);
        pending = 0.0;
      }
    }
    ASSERT_GE(expected.size(), 2U);
    expected.back() += pending + n * std::max(0.0, 1.0 - cdf);
    bin_end.back() = INT64_MAX;
    std::vector<double> observed(expected.size(), 0.0);
    for (const double x : draws) {
      const auto k = static_cast<std::int64_t>(x);
      const auto bin = static_cast<std::size_t>(
          std::lower_bound(bin_end.begin(), bin_end.end(), k) -
          bin_end.begin());
      observed[bin] += 1.0;
    }
    double chi2 = 0.0;
    for (std::size_t i = 0; i < expected.size(); ++i)
      chi2 += (observed[i] - expected[i]) * (observed[i] - expected[i]) /
              expected[i];
    EXPECT_LT(chi2, chi_square_bound(static_cast<double>(expected.size() - 1)))
        << expected.size() << " bins";
  }
}

TEST(Rng, NormalAndUniformMatchTheirMoments) {
  constexpr int kDraws = 100'000;
  const double n = kDraws;
  Rng rng(2025);
  std::vector<double> draws(kDraws);
  for (double& x : draws) x = rng.normal(5.0, 2.0);
  Moments m = moments(draws);
  EXPECT_NEAR(m.mean, 5.0, 5.0 * 2.0 / std::sqrt(n));
  EXPECT_NEAR(m.variance, 4.0, 5.0 * 4.0 * std::sqrt(2.0 / n));

  const double lo = -3.0, hi = 7.0, width = hi - lo;
  for (double& x : draws) x = rng.uniform(lo, hi);
  m = moments(draws);
  EXPECT_NEAR(m.mean, (lo + hi) / 2.0, 5.0 * width / std::sqrt(12.0 * n));
  EXPECT_NEAR(m.variance, width * width / 12.0,
              5.0 * width * width / std::sqrt(180.0 * n));
  EXPECT_GE(*std::min_element(draws.begin(), draws.end()), lo);
  EXPECT_LT(*std::max_element(draws.begin(), draws.end()), hi);
}

TEST(Logging, ThresholdFilters) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  testing::internal::CaptureStderr();
  log_info() << "should not appear";
  log_error() << "should appear";
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(err.find("should not appear"), std::string::npos);
  EXPECT_NE(err.find("should appear"), std::string::npos);
  set_log_level(before);
}

/// Counts how often a log line formats it.
struct FormatCounter {
  int* formatted;
};
std::ostream& operator<<(std::ostream& os, const FormatCounter& c) {
  ++*c.formatted;
  return os << "counted";
}

TEST(Logging, FilteredLinesFormatNothing) {
  const LogLevel before = log_level();
  int formatted = 0;
  set_log_level(LogLevel::kWarn);
  log_debug() << FormatCounter{&formatted};
  log_info() << "t=" << 1 << FormatCounter{&formatted};
  EXPECT_EQ(formatted, 0);
  set_log_level(LogLevel::kDebug);
  testing::internal::CaptureStderr();
  log_debug() << FormatCounter{&formatted};
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(formatted, 1);
  EXPECT_NE(err.find("[bml DEBUG] counted"), std::string::npos);
  set_log_level(LogLevel::kOff);
  log_error() << FormatCounter{&formatted};
  EXPECT_EQ(formatted, 1);
  set_log_level(before);
}

TEST(Logging, EnabledFollowsTheThreshold) {
  const LogLevel before = log_level();
  const LogLevel levels[] = {LogLevel::kDebug, LogLevel::kInfo,
                             LogLevel::kWarn, LogLevel::kError,
                             LogLevel::kOff};
  for (const LogLevel threshold : levels) {
    set_log_level(threshold);
    for (const LogLevel level : levels)
      EXPECT_EQ(log_enabled(level), level != LogLevel::kOff &&
                                        static_cast<int>(level) >=
                                            static_cast<int>(threshold))
          << static_cast<int>(threshold) << " " << static_cast<int>(level);
  }
  set_log_level(before);
}

}  // namespace
}  // namespace bml
