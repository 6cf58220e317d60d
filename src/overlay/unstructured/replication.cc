#include "overlay/unstructured/replication.h"

#include <algorithm>
#include <cassert>

namespace pdht::overlay {

ReplicaPlacement::ReplicaPlacement(uint32_t num_peers, uint32_t repl, Rng rng)
    : num_peers_(num_peers), repl_(repl),
      want_(std::min(repl, num_peers)), rng_(rng) {
  assert(num_peers >= 1);
  assert(num_peers < net::kInvalidPeer);
  assert(repl >= 1);
}

void ReplicaPlacement::Grow(uint64_t n) {
  if (n > capacity()) slots_.resize(n * want_, net::kInvalidPeer);
}

void ReplicaPlacement::PlaceKey(uint64_t key) {
  Grow(key + 1);
  net::PeerId* chosen = slots_.data() + key * want_;
  if (chosen[0] != net::kInvalidPeer) return;
  uint32_t n = 0;
  while (n < want_) {
    net::PeerId p = static_cast<net::PeerId>(rng_.UniformU64(num_peers_));
    if (std::find(chosen, chosen + n, p) == chosen + n) chosen[n++] = p;
  }
  ++num_placed_;
}

void ReplicaPlacement::PlaceKeys(uint64_t n) {
  Grow(n);
  for (uint64_t k = 0; k < n; ++k) PlaceKey(k);
}

bool ReplicaPlacement::IsPlaced(uint64_t key) const {
  return key < capacity() && slots_[key * want_] != net::kInvalidPeer;
}

bool ReplicaPlacement::PeerHoldsKey(net::PeerId peer, uint64_t key) const {
  // An unplaced key's slots all read kInvalidPeer, which no peer id equals.
  if (key >= capacity() || peer >= num_peers_) return false;
  const net::PeerId* reps = slots_.data() + key * want_;
  return std::find(reps, reps + want_, peer) != reps + want_;
}

std::vector<net::PeerId> ReplicaPlacement::ReplicasOf(uint64_t key) const {
  if (!IsPlaced(key)) return {};
  const auto first = slots_.begin() + static_cast<std::ptrdiff_t>(key * want_);
  return std::vector<net::PeerId>(first, first + want_);
}

void ReplicaPlacement::RemoveKey(uint64_t key) {
  if (!IsPlaced(key)) return;
  const auto first = slots_.begin() + static_cast<std::ptrdiff_t>(key * want_);
  std::fill(first, first + want_, net::kInvalidPeer);
  --num_placed_;
}

double ReplicaPlacement::OnlineReplicaFraction(
    uint64_t key, const std::vector<bool>& alive) const {
  if (!IsPlaced(key)) return 0.0;
  const net::PeerId* reps = slots_.data() + key * want_;
  uint32_t online = 0;
  for (uint32_t i = 0; i < want_; ++i) {
    if (reps[i] < alive.size() && alive[reps[i]]) ++online;
  }
  return static_cast<double>(online) / static_cast<double>(want_);
}

}  // namespace pdht::overlay
