// Hashing utilities.
//
// The paper generates DHT keys by hashing single or concatenated metadata
// element-value pairs, e.g.  key = hash(title = "Weather Iraklion" AND
// date = "2004/03/14") [FeBi04].  We provide FNV-1a (64-bit) for string
// hashing into the binary key space and a 128-bit variant for collision
// tests, plus mixing helpers for integer keys.

#ifndef PDHT_UTIL_HASH_H_
#define PDHT_UTIL_HASH_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace pdht {

/// 64-bit FNV-1a hash of a byte string.
uint64_t Fnv1a64(std::string_view data);

/// FNV-1a with an explicit seed/basis so independent hash families can be
/// derived (used for replica placement vs. key-space placement).
uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed);

/// 128-bit FNV-1a (returned as two 64-bit halves) for collision analysis.
struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;
  bool operator==(const Hash128&) const = default;
};
Hash128 Fnv1a128(std::string_view data);

/// Finalizing integer mixer (Stafford variant 13 of the MurmurHash3
/// finalizer).  Bijective on 64-bit values.  Inline: the round engine
/// derives a stream seed per task and per peer from it.
constexpr uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Combines two 64-bit hashes (order-sensitive).
constexpr uint64_t HashCombine(uint64_t a, uint64_t b) {
  // boost::hash_combine style, widened to 64 bits.
  return a ^ (Mix64(b) + 0x9e3779b97f4a7c15ULL + (a << 12) + (a >> 4));
}

/// Returns the `bits` most significant bits of `h` as a zero-padded binary
/// string, e.g. ToBinaryPrefix(0x8000...,4) == "1000".  Used by the P-Grid
/// overlay whose routing works on binary key prefixes.
std::string ToBinaryPrefix(uint64_t h, int bits);

}  // namespace pdht

#endif  // PDHT_UTIL_HASH_H_
