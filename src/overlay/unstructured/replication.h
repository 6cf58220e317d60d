// Random content replication.
//
// "we replicate keys with a certain factor at random peers" (Section 3.1).
// ReplicaPlacement assigns every key to `repl` distinct peers chosen
// uniformly at random, and answers the content-oracle question "does peer p
// hold key k?" that the unstructured search protocols need.  Placement is
// independent of the DHT key space (different hash family).
//
// Storage is one flat key-major array: key k's replicas occupy the
// `want = min(repl, num_peers)` contiguous slots starting at k * want.
// Keys are the dense ids 0..keys-1 the workload draws from, so the array
// has no per-key header or heap block, and bulk placement writes it
// sequentially.

#ifndef PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_
#define PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_

#include <cstdint>
#include <vector>

#include "net/message.h"
#include "util/rng.h"

namespace pdht::overlay {

class ReplicaPlacement {
 public:
  /// `num_peers` peers available for placement; each key gets min(repl,
  /// num_peers) distinct replicas.
  ReplicaPlacement(uint32_t num_peers, uint32_t repl, Rng rng);

  /// Places `key` (idempotent: re-placing keeps the existing placement).
  /// Grows the array to cover `key` when it lies past the placed range.
  void PlaceKey(uint64_t key);

  /// Places keys 0..n-1 densely (the common bulk setup).
  void PlaceKeys(uint64_t n);

  bool IsPlaced(uint64_t key) const;
  bool PeerHoldsKey(net::PeerId peer, uint64_t key) const;
  /// A copy of `key`'s replicas in placement order; empty when unplaced.
  std::vector<net::PeerId> ReplicasOf(uint64_t key) const;

  /// Removes a key entirely (content deleted from the network).
  void RemoveKey(uint64_t key);

  uint32_t repl() const { return repl_; }
  uint32_t num_peers() const { return num_peers_; }
  size_t num_keys() const { return num_placed_; }

  /// Fraction of `key`'s replicas that are online according to `alive`.
  double OnlineReplicaFraction(uint64_t key,
                               const std::vector<bool>& alive) const;

 private:
  /// Keys the array currently has slots for.
  uint64_t capacity() const { return slots_.size() / want_; }
  /// Grows the array to at least `n` keys; new slots read kInvalidPeer.
  void Grow(uint64_t n);

  uint32_t num_peers_;
  uint32_t repl_;
  uint32_t want_;  // replicas per key: min(repl, num_peers)
  Rng rng_;
  // slots_[key * want_ + i]: the i-th replica of `key`; slot 0 reads
  // kInvalidPeer while the key is unplaced.  PeerHoldsKey, the walk
  // search's content oracle, is probed once per walker step, and a walk
  // probes one key at many peers, so the key's `want_` slots stay in
  // cache for the whole walk.
  std::vector<net::PeerId> slots_;
  size_t num_placed_ = 0;
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_UNSTRUCTURED_REPLICATION_H_
