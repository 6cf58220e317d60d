// Kademlia-style XOR-metric structured overlay [MaMa02] ("Kademlia: a
// peer-to-peer information system based on the XOR metric").
//
// The fourth backend behind StructuredOverlay, added to prove the factory
// seam: PdhtSystem has no Kademlia-specific code -- the backend exists
// only here and in the registry (structured_overlay.cc).
//
// Members keep k-buckets: bucket b of node n holds up to k contacts whose
// ids differ from n's id first at bit b (i.e. XOR distance in
// [2^b, 2^(b+1))).  A key is owned by the member whose id minimizes
// id XOR KeyToNodeId(key).  Routing greedily forwards to the known
// contact closest to the target, halving the XOR distance per hop in
// expectation -- O(log n) hops, the same cSIndx regime as Chord/P-Grid
// but over a symmetric (unidirectional-metric) id space rather than a
// ring.  Churn handling mirrors the other overlays: sends to offline
// contacts are counted and lost; when greedy progress stalls, routing
// falls back to scanning the membership in XOR order, so lookups on keys
// with an offline owner terminate at the owner's closest *online*
// stand-in.
//
// Proximity-aware neighbor selection (PNS): all candidates of one
// k-bucket are interchangeable for routing progress (any of them steps
// the XOR distance below 2^b), so when the base-class PeerRtt hook is
// installed the k kept out of an over-full bucket are the lowest-RTT
// ones -- and bucket repair swaps in the lowest-RTT online replacement
// -- instead of a uniformly random choice.  Hop *counts* are unchanged
// in expectation; per-hop link latency drops, which bench_latency
// quantifies as the routing-stretch win.  Without the hook, selection is
// byte-identical to the RTT-blind behaviour.

#ifndef PDHT_OVERLAY_DHT_KADEMLIA_H_
#define PDHT_OVERLAY_DHT_KADEMLIA_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "overlay/dht/id.h"
#include "overlay/structured_overlay.h"
#include "util/rng.h"

namespace pdht::overlay {

class KademliaOverlay : public StructuredOverlay {
 public:
  /// `network` must outlive the overlay.  `bucket_size` is Kademlia's k:
  /// redundant contacts per bucket for routing around failures.  `alpha`
  /// is the bounded lookup parallelism: the routing driver probes up to
  /// alpha closer contacts per hop round (alpha-concurrent iterative
  /// lookup); 1 keeps the sequential walk bit-for-bit.
  KademliaOverlay(net::Network* network, Rng rng, uint32_t bucket_size = 8,
                  uint32_t alpha = 1);

  void SetMembers(const std::vector<net::PeerId>& members) override;
  bool IsMember(net::PeerId peer) const override;
  size_t num_members() const override { return nodes_.size(); }
  /// Members sorted by node id (stable order, like Chord's ring order).
  const std::vector<net::PeerId>& members() const override {
    return member_list_;
  }

  /// The member whose id minimizes id XOR KeyToNodeId(key).
  net::PeerId ResponsibleMember(uint64_t key) const override;

  // Routing-engine contract: primary candidates are the known contacts
  // strictly closer (XOR) to the target, nearest first; the recovery
  // scan walks the whole membership in XOR order and terminates at the
  // walk's own peer when it is the closest online member (stand-in).
  bool StartLookup(net::PeerId origin, uint64_t key,
                   net::PeerId* responsible) override;
  bool AtDestination(net::PeerId peer, uint64_t key) const override;
  uint32_t LookupHopLimit() const override;
  void NextHops(const RouteState& state, uint64_t key,
                std::vector<RouteCandidate>* out) override;
  bool FallbackHop(const RouteState& state, uint64_t key, uint32_t k,
                   RouteCandidate* out) override;
  bool LenientHopLimit() const override { return true; }
  uint32_t LookupParallelism() const override { return alpha_; }

  /// Maintenance sizing: total contacts of members()[slot].
  size_t MemberTableSize(size_t slot) const override {
    return TableSize(member_list_[slot]);
  }

  /// Rejoin refresh: rebuilds the peer's buckets from current membership.
  /// The over-full bucket shuffle draws from the caller's Rng, so
  /// distinct peers rebuild concurrently without touching the shared
  /// stream.
  void RejoinNode(net::PeerId peer, Rng& rng) override {
    if (nodes_.count(peer) > 0) BuildBuckets(peer, rng);
  }

  /// Order-sensitive hash over every member's buckets (determinism-test
  /// hook).
  uint64_t RoutingFingerprint() const override;

  /// Total contacts of `peer` across buckets (for maintenance sizing).
  size_t TableSize(net::PeerId peer) const;

  /// Flat copy of `peer`'s routing table (bucket order).  Test support
  /// for the proximity-selection behaviour; empty for non-members.
  std::vector<net::PeerId> ContactsOf(net::PeerId peer) const;

  /// Bucket and id-space invariants: ids sorted/unique, every contact a
  /// member filed in the bucket its XOR distance demands, buckets within
  /// capacity.  Empty string when consistent.  Test-support API.
  std::string CheckInvariants() const override;

 private:
  struct NodeState {
    NodeId id = 0;
    /// buckets[b]: up to bucket_size_ contacts first differing at bit b
    /// (b = 63 is the far half of the id space, b = 0 the immediate
    /// sibling).  Empty buckets are kept empty, not erased.
    std::vector<std::vector<net::PeerId>> buckets;
  };

  /// Rebuilds `peer`'s buckets; the over-full shuffle draws from `rng`
  /// (construction passes rng_, RejoinNode the caller's per-peer stream).
  void BuildBuckets(net::PeerId peer, Rng& rng);
  /// Probes random contacts of `peer` and replaces a detected-offline
  /// one with an online member of the same bucket (free, piggybacked);
  /// a stale contact with no live replacement stays unrepaired.  Bucket
  /// sizes never change (repair swaps in place).
  MaintenanceStats ProbeMember(size_t slot, net::PeerId peer,
                               uint32_t probes, Rng& rng) override;
  Rng& MaintenanceRng() override { return rng_; }
  /// Index range [first, last) of member_list_ (and sorted_ids_) holding
  /// the members whose id differs from `id` first at bit `bucket`.
  std::pair<size_t, size_t> BucketRange(NodeId id, int bucket) const;
  /// The member id-closest (XOR) to `target`; kInvalidPeer when empty.
  net::PeerId ClosestMemberTo(NodeId target) const;

  Rng rng_;
  uint32_t bucket_size_;
  uint32_t alpha_;
  std::unordered_map<net::PeerId, NodeState> nodes_;
  std::vector<net::PeerId> member_list_;  // sorted by node id
  std::vector<NodeId> sorted_ids_;        // parallel to member_list_

  /// Per-lookup routing state, one entry per lookup slot (set in
  /// StartLookup; concurrent walks each run under their own
  /// CurrentLookupSlot and only read the shared buckets/member list).
  struct LookupSlot {
    NodeId target = 0;
    net::PeerId owner = net::kInvalidPeer;
    /// Lookup scratch (candidates sorted by XOR distance), reused across
    /// hops so routing never allocates in the steady state.
    std::vector<std::pair<NodeId, net::PeerId>> closer_scratch;
    /// Scratch for the greedy-exhausted fallback (full membership in XOR
    /// order) -- hit on every lookup whose owner is offline.  Built on
    /// the k == 0 FallbackHop call of a stalled hop, then indexed.
    std::vector<std::pair<NodeId, net::PeerId>> by_dist_scratch;
  };
  std::vector<LookupSlot> lookup_slots_{1};
  void ResizeLookupSlots(uint32_t n) override { lookup_slots_.resize(n); }
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_DHT_KADEMLIA_H_
