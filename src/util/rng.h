// Deterministic pseudo-random number generation for reproducible simulation.
//
// All randomness in the PDHT library flows through Rng instances seeded from
// a single experiment seed, so that every experiment run is bit-for-bit
// reproducible.  We implement xoshiro256** (Blackman & Vigna) seeded via
// SplitMix64 rather than relying on std::mt19937_64 because (a) the
// algorithm is fixed across standard library implementations, and (b) it is
// substantially faster, which matters for message-level simulation of
// 20,000-peer networks.

#ifndef PDHT_UTIL_RNG_H_
#define PDHT_UTIL_RNG_H_

#include <cstddef>
#include <cstdint>
#include <limits>

namespace pdht {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Used for seeding xoshiro and as a cheap standalone mixer.
inline uint64_t SplitMix64Next(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** pseudo-random generator.
///
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be used
/// with <random> distributions where convenient, but most call sites use
/// the direct helpers (UniformU64, UniformDouble, Bernoulli, ...) which are
/// deterministic across platforms.
class Rng {
 public:
  using result_type = uint64_t;

  /// Constructs a generator from a 64-bit seed.  Two generators built from
  /// the same seed produce identical streams.  Inline, like the hot draw
  /// helpers below: the round engine builds one short-lived generator per
  /// task, and inlining lets the compiler drop state words a task's few
  /// draws never read.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // Seed the four xoshiro words from SplitMix64 as recommended by the
    // xoshiro authors; this avoids correlated low-entropy states.
    uint64_t sm = seed;
    s_[0] = SplitMix64Next(&sm);
    s_[1] = SplitMix64Next(&sm);
    s_[2] = SplitMix64Next(&sm);
    s_[3] = SplitMix64Next(&sm);
    // An all-zero state would be a fixed point; the SplitMix64 outputs
    // make that astronomically unlikely, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  /// Returns the next raw 64-bit output.
  uint64_t operator()() { return Next(); }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Returns a uniform integer in [0, bound).  `bound` must be > 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  uint64_t UniformU64(uint64_t bound) {
    uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
      uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Returns a uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Returns a uniform double in [0, 1).
  double UniformDouble() {
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Returns an exponentially distributed value with the given rate
  /// (mean 1/rate).  Requires rate > 0.
  double Exponential(double rate);

  /// Returns a geometrically distributed trial count in {1, 2, ...} with
  /// success probability `p` in (0, 1].
  uint64_t Geometric(double p);

  /// Creates a child generator whose stream is independent of this one for
  /// practical purposes.  Used to hand each subsystem its own stream.
  Rng Fork();

  /// Fisher-Yates shuffles `v` in place.
  template <typename T>
  void Shuffle(T* data, size_t n) {
    if (n < 2) return;
    for (size_t i = n - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformU64(i + 1));
      T tmp = data[i];
      data[i] = data[j];
      data[j] = tmp;
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
};

}  // namespace pdht

#endif  // PDHT_UTIL_RNG_H_
