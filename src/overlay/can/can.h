// CAN-style structured overlay [RaFr01] ("A scalable content-addressable
// network", cited by the paper among the traditional DHTs).
//
// Peers own hyper-rectangular zones of a d-dimensional unit torus; a key
// hashes to a point and is owned by the zone containing it.  Routing is
// greedy: forward to the neighbor (zone sharing a face) whose zone is
// closest to the target point, giving O(d * n^(1/d)) hops -- a different
// asymptotic regime from Chord/P-Grid's O(log n), which makes CAN the
// most demanding test of the paper's claim that the analysis "can be
// adapted to suit most other DHT proposals": cSIndx changes, the
// qualitative picture must not (bench_ablation_backends covers it).
//
// Construction splits zones recursively round-robin across dimensions
// (balanced, deterministic).  Churn handling mirrors the other overlays:
// sends to offline owners are counted and lost; routing falls back to the
// best *online* neighbor that still makes progress.

#ifndef PDHT_OVERLAY_CAN_CAN_H_
#define PDHT_OVERLAY_CAN_CAN_H_

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "overlay/structured_overlay.h"
#include "util/rng.h"

namespace pdht::overlay {

/// Dimensionality is fixed at compile time for simplicity; 2 is CAN's
/// classic illustration and keeps zone geometry easy to reason about.
constexpr int kCanDims = 2;

struct CanPoint {
  std::array<double, kCanDims> x{};
};

struct CanZone {
  std::array<double, kCanDims> lo{};
  std::array<double, kCanDims> hi{};

  bool Contains(const CanPoint& p) const;
  CanPoint Center() const;
  /// Shares a (d-1)-face on the torus: abutting in exactly one dimension
  /// and overlapping in all others.
  bool IsNeighbor(const CanZone& other) const;
  double Volume() const;
};

class CanOverlay : public StructuredOverlay {
 public:
  CanOverlay(net::Network* network, Rng rng);

  /// Builds the zone partition over the given members (free, like the
  /// other overlays' SetMembers).
  void SetMembers(const std::vector<net::PeerId>& members) override;

  bool IsMember(net::PeerId peer) const override;
  size_t num_members() const override { return zones_.size(); }
  const std::vector<net::PeerId>& members() const override {
    return member_list_;
  }

  const CanZone& ZoneOf(net::PeerId peer) const;
  const std::vector<net::PeerId>& NeighborsOf(net::PeerId peer) const;

  /// Point a key hashes to.
  static CanPoint KeyToPoint(uint64_t key);

  /// Owner of the key's point.
  net::PeerId ResponsibleMember(uint64_t key) const override;

  // Routing-engine contract: primary candidates are the neighbors in
  // order of increasing distance to the target point -- every progressing
  // neighbor, plus at most one unvisited non-progressing detour per hop
  // (CAN's "route around failures").  There is no recovery scan: a hop
  // whose candidates are all offline is a genuine dead end (greedy CAN
  // does not backtrack), and a hop-limit exit fails.
  bool StartLookup(net::PeerId origin, uint64_t key,
                   net::PeerId* responsible) override;
  bool AtDestination(net::PeerId peer, uint64_t key) const override;
  uint32_t LookupHopLimit() const override;
  void NextHops(const RouteState& state, uint64_t key,
                std::vector<RouteCandidate>* out) override;
  void OnAdvance(net::PeerId peer) override { MarkVisited(peer); }

  /// Maintenance sizing: neighbor count of members()[slot].
  size_t MemberTableSize(size_t slot) const override {
    return TableSize(member_list_[slot]);
  }

  /// Order-sensitive hash over zone bounds and neighbor lists of every
  /// member (determinism-test hook).  Static after SetMembers, but the
  /// matrix tests still pin it across thread/shard counts.
  uint64_t RoutingFingerprint() const override;

  size_t TableSize(net::PeerId peer) const;

  /// Zone-partition invariants: volumes sum to 1, zones don't overlap (on
  /// a sample), every sampled point has an owner.  Empty string when ok.
  std::string CheckInvariants() const override;

 private:
  /// Torus distance between a point and a zone (0 if inside).
  static double DistanceToZone(const CanPoint& p, const CanZone& z);

  /// Probes random neighbors of `peer`.  Zones and neighbor lists are
  /// static here, so a probe that finds its target offline detects the
  /// stale neighbor but repairs nothing; rejoin needs no refresh either
  /// (RejoinNode keeps the base no-op).
  MaintenanceStats ProbeMember(size_t slot, net::PeerId peer,
                               uint32_t probes, Rng& rng) override;
  Rng& MaintenanceRng() override { return rng_; }

  /// Per-lookup routing state, one entry per lookup slot (set in
  /// StartLookup; concurrent walks each run under their own
  /// CurrentLookupSlot and only read the shared zones/neighbor lists).
  struct LookupSlot {
    CanPoint point{};
    std::vector<net::PeerId> sort_scratch;  ///< NextHops neighbor order
    /// Epoch-stamped per-lookup visited set (detour-loop prevention)
    /// without per-lookup allocation.
    std::vector<uint32_t> visit_epoch;
    uint32_t visit_gen = 0;
  };

  LookupSlot& CurrentSlot() { return lookup_slots_[CurrentLookupSlot()]; }
  const LookupSlot& CurrentSlot() const {
    return lookup_slots_[CurrentLookupSlot()];
  }
  void MarkVisited(net::PeerId peer) {
    LookupSlot& slot = CurrentSlot();
    if (peer >= slot.visit_epoch.size()) {
      slot.visit_epoch.resize(peer + 1, 0);
    }
    slot.visit_epoch[peer] = slot.visit_gen;
  }
  bool Visited(net::PeerId peer) const {
    const LookupSlot& slot = CurrentSlot();
    return peer < slot.visit_epoch.size() &&
           slot.visit_epoch[peer] == slot.visit_gen;
  }

  Rng rng_;
  std::unordered_map<net::PeerId, CanZone> zones_;
  std::unordered_map<net::PeerId, std::vector<net::PeerId>> neighbors_;
  std::vector<net::PeerId> member_list_;
  std::vector<net::PeerId> empty_;

  std::vector<LookupSlot> lookup_slots_{1};
  void ResizeLookupSlots(uint32_t n) override { lookup_slots_.resize(n); }
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_CAN_CAN_H_
