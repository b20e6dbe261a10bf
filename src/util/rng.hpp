// Deterministic random number generation.
//
// Every stochastic component in the library (synthetic traces, wattmeter
// noise, prediction-error injection) takes an explicit seed so that tests
// and benchmark runs are reproducible bit-for-bit.
//
// The words are MT19937-64's: the engine std::mt19937_64 names, whose
// seeding and output [rand.predef] fixes (Nishimura, "Tables of 64-bit
// Mersenne Twisters", ACM TOMACS 10(4), 2000), produced by the engine
// below rather than the standard library's. The standard path costs two
// data-dependent, 50/50 branches per draw: libstdc++'s twist picks the
// matrix with a branch on y & 1, and static_cast<double> of a 64-bit word
// branches on its sign bit (x86-64 before AVX-512 has no unsigned
// conversion). Here the matrix select is a mask, the twist regenerates
// all 312 words in loops the compiler vectorises, words are tempered as
// they are drawn (so the state is the same 312 words and an index), and a
// word converts to double as two exact 32-bit halves. Every word and every
// double equal the standard path's, so the streams keep their bytes.
//
// The standard library's distribution classes are not used either: their
// algorithms are implementation-defined, so the same seed would give other
// draws under another standard library. Each sampler below is instead the
// published algorithm written out here, in the exact form that produced the
// library's historical streams (GCC's libstdc++), so every trace and CSV
// keeps its bytes:
//
//  - canonical: one 64-bit word times 2^-64, clamped below 1 — the
//    generate_canonical of [rand.util.canonical] for a 64-bit engine and
//    53-bit doubles (canonical_from_word). `uniform` and `chance` scale and
//    compare it.
//  - uniform_int: Lemire's multiply-and-reject over a 128-bit product
//    ("Fast Random Integer Generation in an Interval", ACM TOMACS 29(1),
//    2019).
//  - normal: Marsaglia's polar method (Devroye, "Non-Uniform Random
//    Variate Generation", 1986, §V.4.4). Each call draws a fresh pair and
//    returns one member; the other is dropped. The historical streams drew
//    through a new distribution object per call, which never got to use
//    its spare, so keeping it would shift every noisy trace.
//  - poisson: below mean 12, the count of uniforms whose product stays
//    above e^-mean; from 12 up, Devroye's rejection method (1986, §X.3.3
//    and §X.3.4 with its errata), whose normal draws do use their polar
//    spare within one Poisson draw. Its setup depends only on
//    floor(mean), and its acceptance test takes lgamma of integers, so
//    both are cached per generator (fixed-size, direct-mapped; see
//    rng.cpp).
//
// The bytes still depend on libm (log, exp, sqrt, lgamma, and cos/pow in
// the trace generators) and on a target that does not fuse a * b + c into
// one rounding; x86-64 without -mfma does not.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

namespace bml {

/// One engine word as a double in [0, 1): static_cast<double>(word) * 2^-64,
/// clamped below 1 (words from 2^64 - 1024 up round to 1). The word
/// converts as its two 32-bit halves: each half and the high half's
/// product with 2^32 are exact, so the sum rounds once, to the same double
/// as the 64-bit conversion, with or without a fused multiply-add, and
/// without that conversion's branch on the sign bit.
[[nodiscard]] constexpr double canonical_from_word(std::uint64_t word) {
  const double high =
      static_cast<double>(static_cast<std::uint32_t>(word >> 32));
  const double low = static_cast<double>(static_cast<std::uint32_t>(word));
  const double u = (high * 0x1p32 + low) * 0x1p-64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;
}

/// MT19937-64 with the library's own samplers over its words. The engine
/// stays private, so no caller can pass its words to a standard-library
/// distribution.
/// Copyable; copies continue independent, identical streams.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);
  Rng(const Rng& other);
  Rng& operator=(const Rng& other);
  Rng(Rng&&) noexcept;
  Rng& operator=(Rng&&) noexcept;
  ~Rng();

  /// Uniform double in [lo, hi): canonical() * (hi - lo) + lo.
  double uniform(double lo, double hi) { return canonical() * (hi - lo) + lo; }

  /// Uniform integer in [lo, hi] (inclusive). Throws std::invalid_argument
  /// when hi < lo.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    if (hi < lo) throw std::invalid_argument("Rng::uniform_int: hi < lo");
    const std::uint64_t range =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const std::uint64_t offset =
        range == UINT64_MAX ? next_word() : below(range + 1);
    return static_cast<std::int64_t>(offset + static_cast<std::uint64_t>(lo));
  }

  /// Normal draw: one polar pair, spare dropped (see the file comment).
  double normal(double mean, double stddev) {
    return polar_pair().second * stddev + mean;
  }

  /// Poisson draw; 0 when mean <= 0.
  std::int64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    if (mean >= 12.0) return poisson_rejection(mean);
    const double threshold = std::exp(-mean);
    std::int64_t count = 0;
    double product = 1.0;
    do {
      product *= canonical();
      count += 1;
    } while (product > threshold);
    return count - 1;
  }

  /// Bernoulli draw with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return canonical() < p;
  }

  /// Derives an independent child stream; used to give each sub-generator
  /// (e.g. each day of a synthetic trace) its own stream.
  Rng split() { return Rng(next_word()); }

 private:
  struct PoissonCache;

  /// MT19937-64's degree: the state holds this many words.
  static constexpr std::size_t kStateWords = 312;

  /// The next tempered MT19937-64 word.
  std::uint64_t next_word() {
    if (next_ == kStateWords) twist();
    std::uint64_t y = state_[next_++];
    y ^= (y >> 29) & 0x5555555555555555ULL;
    y ^= (y << 17) & 0x71D67FFFEDA60000ULL;
    y ^= (y << 37) & 0xFFF7EEE000000000ULL;
    return y ^ (y >> 43);
  }

  /// Regenerates all kStateWords words and rewinds next_.
  void twist();

  /// One word scaled into [0, 1) with 53-bit precision.
  double canonical() { return canonical_from_word(next_word()); }

  /// Lemire's nearly divisionless draw from [0, n), n > 0.
  std::uint64_t below(std::uint64_t n) {
    __extension__ using Wide = unsigned __int128;
    Wide product = static_cast<Wide>(next_word()) * n;
    auto low = static_cast<std::uint64_t>(product);
    if (low < n) {
      const std::uint64_t threshold = -n % n;
      while (low < threshold) {
        product = static_cast<Wide>(next_word()) * n;
        low = static_cast<std::uint64_t>(product);
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Marsaglia's polar method: two independent standard normals.
  std::pair<double, double> polar_pair() {
    double x = 0.0, y = 0.0, r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    return {x * mult, y * mult};
  }

  std::int64_t poisson_rejection(double mean);

  /// The untempered state; words before next_ have been drawn.
  std::array<std::uint64_t, kStateWords> state_;
  std::size_t next_ = kStateWords;
  /// Allocated on the first Poisson draw with mean >= 12; never copied
  /// (its entries are pure functions of their keys).
  std::unique_ptr<PoissonCache> poisson_cache_;
};

}  // namespace bml
