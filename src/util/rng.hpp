// Deterministic, splittable random number generation.
//
// Everything in the simulator is seeded: a trial is reproducible from its
// 64-bit seed alone, and per-node / per-subphase streams are derived with
// SplitMix64 so results are independent of thread scheduling. This is the
// standard discipline for parallel Monte-Carlo sweeps: never share a stream
// across threads; derive child streams by hashing (seed, index).
#pragma once

#include <cstdint>
#include <limits>

namespace byz::util {

/// SplitMix64: tiny, high-quality 64-bit mixer. Used both as a stream
/// splitter and to seed Xoshiro256**.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Mixes two 64-bit values into one; used to derive child seeds as
/// mix(seed, stream_index) without correlations between streams.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a,
                                               std::uint64_t b) noexcept {
  SplitMix64 sm(a ^ (0x9E3779B97F4A7C15ULL + (b << 6) + (b >> 2)));
  sm.next();
  return sm.next() ^ b;
}

/// Xoshiro256**: fast, statistically strong PRNG (Blackman & Vigna).
/// Satisfies the C++ UniformRandomBitGenerator concept.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed) noexcept : s_{} {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Unbiased integer in [0, bound) via Lemire's multiply-shift rejection.
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    // 128-bit multiply; rejection keeps the result exactly uniform.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1): 53 mantissa bits.
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Fair coin.
  constexpr bool coin() noexcept { return ((*this)() >> 63) != 0; }

  /// Derive an independent child generator for stream `index`.
  [[nodiscard]] constexpr Xoshiro256 split(std::uint64_t index) const noexcept {
    return Xoshiro256(mix_seed(s_[0] ^ s_[3], index));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Number of fair-coin flips until (and including) the first head:
/// Pr[X = r] = 2^(-r), r >= 1. This is the "color" distribution of the
/// paper (Algorithm 1, line 10). Implemented as 1 + count of leading
/// tails in a 64-bit word; the tail beyond 64 recurses (probability 2^-64).
[[nodiscard]] inline std::uint32_t geometric_color(Xoshiro256& rng) noexcept {
  std::uint32_t flips = 0;
  for (;;) {
    const std::uint64_t bits = rng();
    if (bits != 0) {
      // Position of the lowest set bit = number of tails before first head.
      return flips + static_cast<std::uint32_t>(__builtin_ctzll(bits)) + 1;
    }
    flips += 64;
  }
}

/// Standard exponential variate with rate `lambda` (inverse-CDF method).
[[nodiscard]] inline double exponential(Xoshiro256& rng,
                                        double lambda = 1.0) noexcept {
  // 1 - uniform() is in (0, 1]; log of it is finite.
  double u = 1.0 - rng.uniform();
  return -__builtin_log(u) / lambda;
}

}  // namespace byz::util
