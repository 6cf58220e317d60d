#include "util/rng.h"

#include <cmath>

namespace pdht {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(UniformU64(span));
}

double Rng::Exponential(double rate) {
  // Inverse-CDF; 1 - U is in (0, 1] so the log argument is never zero.
  return -std::log(1.0 - UniformDouble()) / rate;
}

uint64_t Rng::Geometric(double p) {
  if (p >= 1.0) return 1;
  // Inverse-CDF of the geometric distribution on {1, 2, ...}.
  double u = UniformDouble();
  double v = std::log1p(-u) / std::log1p(-p);
  uint64_t k = static_cast<uint64_t>(std::ceil(v));
  return k == 0 ? 1 : k;
}

Rng Rng::Fork() {
  // Derive the child's seed from two outputs of this stream; the SplitMix64
  // re-seeding in the constructor decorrelates parent and child.
  uint64_t a = Next();
  uint64_t b = Next();
  return Rng(a ^ Rotl(b, 32) ^ 0xd1342543de82ef95ULL);
}

}  // namespace pdht
