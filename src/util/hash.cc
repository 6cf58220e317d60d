#include "util/hash.h"

namespace pdht {

namespace {
constexpr uint64_t kFnvBasis64 = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime64 = 0x100000001b3ULL;
}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  return Fnv1a64Seeded(data, kFnvBasis64);
}

uint64_t Fnv1a64Seeded(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= kFnvPrime64;
  }
  return h;
}

Hash128 Fnv1a128(std::string_view data) {
  // Two independent 64-bit streams with distinct bases; adequate for the
  // collision statistics we need (not cryptographic).
  Hash128 out;
  out.hi = Fnv1a64Seeded(data, kFnvBasis64);
  out.lo = Fnv1a64Seeded(data, 0x6c62272e07bb0142ULL);
  return out;
}

std::string ToBinaryPrefix(uint64_t h, int bits) {
  std::string s;
  s.reserve(bits);
  for (int i = 0; i < bits; ++i) {
    s.push_back(((h >> (63 - i)) & 1) ? '1' : '0');
  }
  return s;
}

}  // namespace pdht
