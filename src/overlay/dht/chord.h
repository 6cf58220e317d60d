// Chord-like structured overlay ("traditional DHT", paper Section 3.2).
//
// A ring of member peers in the 2^64 binary id space with power-of-two
// finger tables: lookups take ~ 1/2 * log2(numActivePeers) hops (Eq. 7),
// which the ablation bench verifies empirically.  Membership is dynamic in
// two senses:
//  * the *member set* is chosen by the PDHT layer (only numActivePeers
//    peers participate in the DHT when the index is small, Section 3.2);
//  * members churn on/off; fingers pointing at offline members are stale
//    until probing maintenance (StructuredOverlay's maintenance round,
//    Eq. 8) repairs them, and lookups pay extra messages to route around
//    them.
//
// Storage is flat and indexed by ring slot (the member's position in id
// order, which is also its members() index).  The ring is two dense
// arrays, ring_ids_ and ring_peers_.  Every member's routing table lives
// in a fixed-stride block of two entry arrays: entry `i` of slot `s` is
// entry_peer_[s * stride_ + i] / entry_id_[s * stride_ + i], fingers
// first, then the successor list.  A finger for offset 2^e points at the
// first member clockwise of (id + 2^e); its exponent e is kept in a byte
// (finger_exp_) so repairs recompute the start.  Per-slot byte counts
// (num_fingers_, num_succ_) give the table size without touching the
// entries.  The stride is min(ceil(log2 n) + 2, 56) + successor list
// size for n members; AddMember/RemoveMember lay the blocks out again.
// Maintenance and rejoin tasks write only their own slot's block and
// counts, so distinct slots can be written concurrently.

#ifndef PDHT_OVERLAY_DHT_CHORD_H_
#define PDHT_OVERLAY_DHT_CHORD_H_

#include <cstdint>
#include <vector>

#include "net/network.h"
#include "overlay/dht/id.h"
#include "overlay/structured_overlay.h"  // LookupResult lives here
#include "util/rng.h"

namespace pdht::overlay {

class ChordOverlay : public StructuredOverlay {
 public:
  /// `network` must outlive the overlay.  `successor_list_size` entries of
  /// redundancy for routing around failures.
  /// Throws std::invalid_argument when `successor_list_size` exceeds
  /// kMaxSuccessors.
  ChordOverlay(net::Network* network, Rng rng,
               uint32_t successor_list_size = 8);

  /// Table counts are bytes: a successor list holds at most this many.
  static constexpr uint32_t kMaxSuccessors = UINT8_MAX;

  /// (Re)builds the ring over the given member peers.  Ids derive from
  /// peer numbers; finger tables are constructed fresh (bootstrap traffic
  /// is not the object of the paper's model, so construction is free; join
  /// messages for *incremental* joins are counted in AddMember).
  void SetMembers(const std::vector<net::PeerId>& members) override;

  /// Incrementally adds a member: builds its table and repairs affected
  /// fingers, counting kJoin traffic (O(log^2 n) messages, as in Chord).
  void AddMember(net::PeerId peer);

  /// Removes a member permanently (not churn -- actual departure).  A
  /// departed peer may stay online, where maintenance probes could never
  /// flag it, so entries naming it are re-pointed here: fingers at the
  /// successor of their start, successor lists close up over the gap.
  /// AddMember and RemoveMember move ring slots, so both restart every
  /// member's fractional maintenance budget, as SetMembers does.
  void RemoveMember(net::PeerId peer);

  bool IsMember(net::PeerId peer) const override;
  size_t num_members() const override { return ring_peers_.size(); }
  /// Members sorted by ring id: slot i is ring_peers_[i].
  const std::vector<net::PeerId>& members() const override {
    return ring_peers_;
  }

  /// The member responsible for `key`: successor(KeyToNodeId(key)).
  net::PeerId ResponsibleMember(uint64_t key) const override;

  /// The `count` members succeeding the responsible one (replica holders).
  std::vector<net::PeerId> ResponsibleReplicas(uint64_t key,
                                               uint32_t count) const;

  // Routing-engine contract (the walk itself lives in RoutingDriver):
  // primary candidates are the table entries strictly preceding the key,
  // closest first; the recovery scan walks ring successors in order, so a
  // lookup whose owner is offline terminates at the owner's first online
  // successor (terminal step at or past the target).
  bool StartLookup(net::PeerId origin, uint64_t key,
                   net::PeerId* responsible) override;
  bool AtDestination(net::PeerId peer, uint64_t key) const override;
  uint32_t LookupHopLimit() const override;
  void NextHops(const RouteState& state, uint64_t key,
                std::vector<RouteCandidate>* out) override;
  /// Blind fast path: the skip-masked closest-preceding walk produces
  /// one candidate per failed probe -- no list, no sort (the candidate
  /// sequence is identical to NextHops' emission order).
  bool PrimaryHop(const RouteState& state, uint64_t key, uint32_t k,
                  RouteCandidate* out) override;
  bool has_incremental_primary() const override { return true; }
  bool FallbackHop(const RouteState& state, uint64_t key, uint32_t k,
                   RouteCandidate* out) override;
  bool LenientHopLimit() const override { return true; }
  /// Weighted route-PNS opt-in: progress is the remaining clockwise
  /// distance in bits and the finger walk strips ~2 bits per hop
  /// (E[hops] = 0.5*log2 n), so a bit is worth (mean one-way delay)/2
  /// milliseconds.  0 without an RTT oracle.
  double ProgressWeightMs() const override;

  /// Maintenance sizing: fingers plus successor list of ring slot `slot`.
  size_t MemberTableSize(size_t slot) const override {
    return size_t{num_fingers_[slot]} + num_succ_[slot];
  }

  /// Rejoin refresh (paper Section 3.3.1).  Table rebuilds draw no
  /// randomness, so this is plain RefreshNode -- safe for distinct peers
  /// in parallel (BuildTable writes only the named member's table).
  void RejoinNode(net::PeerId peer, Rng& rng) override {
    (void)rng;
    RefreshNode(peer);
  }

  /// Order-sensitive hash over the ring: ids, fingers and successor
  /// lists of every member (determinism-test hook).
  uint64_t RoutingFingerprint() const override;

  /// Rebuilds one node's routing state from current membership; called
  /// on rejoin after churn.
  void RefreshNode(net::PeerId peer);

  /// Fraction of finger entries (across online members) pointing at
  /// currently-offline peers: the stale-entry rate maintenance fights.
  double StaleFingerFraction() const;

  /// Verifies the ring and every slot's table: ids strictly sorted and
  /// derived from their peers, ring_index_ consistent, table counts within
  /// the stride, every entry naming a current member under that member's
  /// ring id, finger exponents strictly decreasing, and successor lists
  /// strictly clockwise from their slot within one lap.  Returns an empty
  /// string or a violation message.  Test-support API.
  std::string CheckInvariants() const override;

 private:
  /// Fingers a table built over `n` members holds at most.
  static uint32_t FingersFor(size_t n);
  /// Entry block stride for `n` members: FingersFor(n) + successor list.
  uint32_t StrideFor(size_t n) const {
    return FingersFor(n) + successor_list_size_;
  }

  /// Index into ring_ids_ of successor(id) (the first member with
  /// id >= `id`, wrapping): a binary search of ring_ids_ narrowed to the
  /// id's bucket.
  size_t SuccessorIndex(NodeId id) const;
  /// bucket_start_ index of `id`: its top bucket_bits_ bits.
  size_t BucketOf(NodeId id) const {
    return bucket_bits_ == 0 ? 0
                             : static_cast<size_t>(id >> (64 - bucket_bits_));
  }
  /// Start (id + 2^exponent) of finger `i` of ring slot `slot`.
  NodeId FingerStart(size_t slot, size_t i) const {
    return ring_ids_[slot] +
           (NodeId{1} << finger_exp_[slot * stride_ + i]);  // wrapping add
  }
  /// Rebuilds the table of ring slot `slot` from current membership.
  void BuildTable(size_t slot);
  /// Points entry `i` of ring slot `slot` at ring slot `target`.
  void SetEntry(size_t slot, size_t i, size_t target) {
    entry_peer_[slot * stride_ + i] = ring_peers_[target];
    entry_id_[slot * stride_ + i] = ring_ids_[target];
  }
  /// Moves every table to the slot layout after ring_ids_/ring_peers_
  /// gained a slot at `pos` (inserted) or lost the one at `pos`, growing
  /// the stride to the new ring size's rule.  The stride never shrinks
  /// before the next SetMembers: tables built over a larger ring keep
  /// their finger count.
  void RelayoutTables(size_t pos, bool inserted);
  /// Table index of ring slot `slot`'s entry closest to `target` among
  /// those strictly between the slot's id and `target` (clockwise), ties
  /// to the lower index, skipping indices < 64 whose `skip_mask` bit is
  /// set (already tried and found dead); -1 when none qualifies.
  int ClosestPreceding(size_t slot, NodeId target, uint64_t skip_mask) const;

  /// Recomputes where table entry `idx` (fingers first, then successors)
  /// of ring slot `slot` should point, skipping offline members.
  void RepairEntry(size_t slot, size_t idx);

  /// Probes random fingers/successors of ring slot `slot`; a stale one is
  /// repaired in place (RepairEntry), so stale == repairs.
  MaintenanceStats ProbeMember(size_t slot, net::PeerId peer,
                               uint32_t probes, Rng& rng) override;
  Rng& MaintenanceRng() override { return maint_rng_; }

  Rng maint_rng_;  ///< serial maintenance stream (Chord's only draws)
  uint32_t successor_list_size_;
  /// The ring sorted by id: slot i is peer ring_peers_[i] with id
  /// ring_ids_[i] (the successor search scans 8 bytes per member).
  std::vector<NodeId> ring_ids_;
  std::vector<net::PeerId> ring_peers_;
  /// ring slot of every member, indexed by peer id (kNotMember for
  /// non-members): one load per member lookup on the routing hot path
  /// (maintenance tasks carry their ring slot and skip it).
  static constexpr uint32_t kNotMember = UINT32_MAX;
  std::vector<uint32_t> ring_index_;
  uint32_t RingIndexOf(net::PeerId peer) const {
    return peer < ring_index_.size() ? ring_index_[peer] : kNotMember;
  }
  /// bucket_start_[b] is the first ring_ids_ index whose id has top
  /// bucket_bits_ bits >= b (2^bucket_bits_ + 1 entries), so bucket b's
  /// ids are [bucket_start_[b], bucket_start_[b + 1]).  bucket_bits_ =
  /// ceil(log2 n) leaves about one member per bucket.
  std::vector<uint32_t> bucket_start_;
  int bucket_bits_ = 0;
  /// Rebuilds ring_index_ and bucket_start_ after the ring changed.
  void ReindexRing();

  /// Routing tables, one stride_-entry block per ring slot (layout in
  /// the file comment).  Counts are bytes, never bits: concurrent tasks
  /// write adjacent slots.
  uint32_t stride_ = 0;
  std::vector<net::PeerId> entry_peer_;  ///< member the entry points to
  std::vector<NodeId> entry_id_;         ///< that member's ring id
  std::vector<uint8_t> finger_exp_;      ///< finger offset exponent
  std::vector<uint8_t> num_fingers_;     ///< by slot
  std::vector<uint8_t> num_succ_;        ///< by slot

  /// Mean link RTT sampled over member pairs at SetMembers time (only
  /// with the PeerRtt oracle installed); feeds ProgressWeightMs.
  double mean_rtt_ms_ = 0.0;
  /// NextHops sort scratch: (distance-to-target, table index, peer).
  struct HopEntry {
    NodeId dist;
    uint32_t index;
    net::PeerId peer;
    bool operator<(const HopEntry& o) const {
      return dist != o.dist ? dist < o.dist : index < o.index;
    }
  };
  /// Per-lookup routing state, one entry per lookup slot (set in
  /// StartLookup; concurrent walks each run under their own
  /// CurrentLookupSlot and only read the shared ring/tables).
  struct LookupSlot {
    NodeId target = 0;
    net::PeerId owner = net::kInvalidPeer;
    size_t fallback_base = 0;  ///< ring slot of the stalled hop's peer
    uint32_t primary_cur = 0;  ///< PrimaryHop hop-scoped state: ring slot
    uint64_t primary_skip = 0;  ///< tried-and-dead entry mask
    std::vector<HopEntry> hop_scratch;
  };
  std::vector<LookupSlot> lookup_slots_{1};
  void ResizeLookupSlots(uint32_t n) override { lookup_slots_.resize(n); }
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_DHT_CHORD_H_
