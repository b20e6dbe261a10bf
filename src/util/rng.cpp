#include "util/rng.hpp"

#include <algorithm>
#include <array>
#include <limits>

namespace bml {

namespace {

// The constants of Devroye's Poisson method, as exact doubles.
constexpr double kPi4 = 0x1.921fb54442d18p-1;        // pi / 4
constexpr double kSqrtPi2 = 0x1.40d931ff62706p+0;    // sqrt(pi / 2)
constexpr double k1Over78 = 0x1.a41a41a41a41ap-7;    // 1 / 78
constexpr double kExp1Over78 = 0x1.034d9d38e2fcbp+0;  // e^(1 / 78)
/// Just under 1/2: truncating x + m + kNearlyHalf rounds the integer-valued
/// x + m without ever rounding up past it.
constexpr double kNearlyHalf =
    (1 - std::numeric_limits<double>::epsilon()) / 2;
/// Draws at or above 2^63 would overflow the int64 result; they are
/// rejected.
constexpr double kResultLimit = 0x1p63;

/// Cache keys are doubles; below 2^53 they convert to a slot index without
/// leaving the integer range.
constexpr double kCacheKeyLimit = 0x1p53;
constexpr std::size_t kCacheSlots = 1024;

/// The part of the rejection method's setup that depends on
/// m = floor(mean) alone.
struct PoissonSetup {
  double m = std::numeric_limits<double>::quiet_NaN();  // NaN: empty slot
  double lfm = 0.0;     // lgamma(m + 1)
  double sm = 0.0;      // sqrt(m)
  double d = 0.0;       // half-width of the normal part
  double scx = 0.0;     // sqrt(cx / 2), cx = 2m + d
  double inv_cx = 0.0;  // 1 / cx
  double c2b = 0.0;
  double cb = 0.0;
};

PoissonSetup make_setup(double m) {
  PoissonSetup s;
  s.m = m;
  s.lfm = std::lgamma(m + 1);
  s.sm = std::sqrt(m);
  const double dx = std::sqrt(2 * m * std::log(32 * m / kPi4));
  s.d = std::round(std::max(6.0, std::min(m, dx)));
  const double cx = 2 * m + s.d;
  s.scx = std::sqrt(cx / 2);
  s.inv_cx = 1 / cx;
  s.c2b = std::sqrt(kPi4 * cx) * std::exp(s.inv_cx);
  s.cb = 2 * cx * std::exp(-s.d * s.inv_cx * (1 + s.d / 2)) / s.d;
  return s;
}

}  // namespace

/// Direct-mapped caches of the rejection method's per-m setup and of
/// lgamma at the integers its acceptance test evaluates. Each slot holds
/// its key, so a miss recomputes with the same libm calls on the same
/// argument and every draw is unchanged. Keys past kCacheKeyLimit share
/// one spill slot, so the size is fixed whatever the mean (about 80 KB).
struct Rng::PoissonCache {
  struct LgammaSlot {
    double k = std::numeric_limits<double>::quiet_NaN();  // NaN: empty
    double value = 0.0;
  };
  std::array<PoissonSetup, kCacheSlots + 1> setups;
  std::array<LgammaSlot, kCacheSlots + 1> lgammas;

  static std::size_t slot_of(double key) {
    if (!(key >= 0.0 && key < kCacheKeyLimit)) return kCacheSlots;
    return static_cast<std::size_t>(static_cast<std::uint64_t>(key) %
                                    kCacheSlots);
  }

  const PoissonSetup& setup(double m) {
    PoissonSetup& slot = setups[slot_of(m)];
    if (slot.m != m) slot = make_setup(m);
    return slot;
  }

  double lgamma(double k) {
    LgammaSlot& slot = lgammas[slot_of(k)];
    if (slot.k != k) slot = {k, std::lgamma(k)};
    return slot.value;
  }
};

// MT19937-64's seeding: each word from its predecessor by Knuth's
// multiplier, as [rand.eng.mers] specifies.
Rng::Rng(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i)
    state_[i] =
        6364136223846793005ULL * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
}
Rng::Rng(const Rng& other) : state_(other.state_), next_(other.next_) {}
Rng& Rng::operator=(const Rng& other) {
  state_ = other.state_;
  next_ = other.next_;
  return *this;
}
Rng::Rng(Rng&&) noexcept = default;
Rng& Rng::operator=(Rng&&) noexcept = default;
Rng::~Rng() = default;

// MT19937-64's recurrence over the whole state (n = 312, m = 156, r = 31):
// word k becomes word (k + m) mod n xor the twisted pair (k, k + 1 mod n),
// where a mask, not a branch, applies the matrix to pairs whose low bit is
// set. Word (k + m) mod n is still the old word while k < n - m and
// already the new one after, as the recurrence requires; the loops carry
// no other dependence, so each vectorises.
void Rng::twist() {
  constexpr std::size_t kN = kStateWords;
  constexpr std::size_t kM = 156;
  constexpr std::uint64_t kMatrix = 0xB5026F5AA96619E9ULL;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  const auto twisted = [](std::uint64_t high, std::uint64_t low) {
    const std::uint64_t y = (high & kUpper) | (low & ~kUpper);
    return (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
  };
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < kN - kM; ++k)
    x[k] = x[k + kM] ^ twisted(x[k], x[k + 1]);
  for (std::size_t k = kN - kM; k < kN - 1; ++k)
    x[k] = x[k - (kN - kM)] ^ twisted(x[k], x[k + 1]);
  x[kN - 1] = x[kM - 1] ^ twisted(x[kN - 1], x[0]);
  next_ = 0;
}

std::int64_t Rng::poisson_rejection(double mean) {
  if (!poisson_cache_) poisson_cache_ = std::make_unique<PoissonCache>();
  PoissonCache& cache = *poisson_cache_;
  const double m = std::floor(mean);
  const double log_mean = std::log(mean);
  const PoissonSetup& s = cache.setup(m);
  const double c1 = s.sm * kSqrtPi2;
  const double c2 = s.c2b + c1;
  const double c3 = c2 + 1;
  const double c4 = c3 + 1;
  const double c5 = c4 + kExp1Over78;
  const double c = s.cb + c5;
  const double two_cx = 2 * (2 * m + s.d);

  // The normal draws of one Poisson draw share a polar pair.
  bool have_spare = false;
  double spare = 0.0;
  const auto standard_normal = [&] {
    if (have_spare) {
      have_spare = false;
      return spare;
    }
    const auto [first, second] = polar_pair();
    spare = first;
    have_spare = true;
    return second;
  };

  double x = 0.0;
  bool reject = true;
  do {
    const double u = c * canonical();
    const double e = -std::log(1.0 - canonical());
    double w = 0.0;
    if (u <= c1) {
      const double n = standard_normal();
      const double y = -std::abs(n) * s.sm - 1;
      x = std::floor(y);
      w = -n * n / 2;
      if (x < -m) continue;
    } else if (u <= c2) {
      const double n = standard_normal();
      const double y = 1 + std::abs(n) * s.scx;
      x = std::ceil(y);
      w = y * (2 - y) * s.inv_cx;
      if (x > s.d) continue;
    } else if (u <= c3) {
      x = -1;
    } else if (u <= c4) {
      x = 0;
    } else if (u <= c5) {
      x = 1;
      w = k1Over78;
    } else {
      const double v = -std::log(1.0 - canonical());
      const double y = s.d + v * two_cx / s.d;
      x = std::ceil(y);
      w = -s.d * s.inv_cx * (1 + y / 2);
    }
    reject = w - e - x * log_mean > s.lfm - cache.lgamma(x + m + 1);
    reject |= x + m >= kResultLimit;
  } while (reject);
  return static_cast<std::int64_t>(x + m + kNearlyHalf);
}

}  // namespace bml
