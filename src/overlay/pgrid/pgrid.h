// P-Grid trie-structured overlay [Aber01].
//
// The paper's prototype of the selection algorithm was built on P-Grid
// ("We have been implementing a simulator for partial indexing with P-Grid",
// Section 5.2), so we provide it as a second structured-overlay backend
// next to Chord.  Peers carry binary trie paths; a peer is responsible for
// keys prefixed by its path.  Routing tables hold, per path level l,
// references to peers on the *other* side of the trie at that level
// (paths sharing the first l bits and differing at bit l).  A lookup
// resolves the key bit-by-bit, each hop extending the matched prefix by at
// least one bit, giving O(log n) hops -- the same cSIndx regime as Chord
// (design note: the paper's analysis is "generic enough such that it can
// be adapted to suit most other DHT proposals").
//
// Construction is available in two modes:
//  * Balanced assignment (default): paths are assigned by recursive
//    halving -- deterministic, used by the cost experiments.
//  * Exchange-based (BuildByExchanges): random pairwise meetings split and
//    refine paths as in the P-Grid bootstrap protocol; message cost is
//    counted as kExchange.  A test verifies both converge to tries with
//    complete key-space coverage.

#ifndef PDHT_OVERLAY_PGRID_PGRID_H_
#define PDHT_OVERLAY_PGRID_PGRID_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.h"
#include "overlay/pgrid/path.h"
#include "overlay/structured_overlay.h"
#include "util/rng.h"

namespace pdht::overlay {

struct PGridConfig {
  uint32_t refs_per_level = 4;   ///< redundant references per trie level.
  uint32_t max_leaf_peers = 1;   ///< peers sharing one leaf path (replicas).
};

class PGridOverlay : public StructuredOverlay {
 public:
  PGridOverlay(net::Network* network, Rng rng, PGridConfig config = {});

  /// Balanced path assignment + routing table construction (free, like
  /// ChordOverlay::SetMembers).
  void SetMembers(const std::vector<net::PeerId>& members) override;

  /// Exchange-based construction: starts all members at the empty path and
  /// runs random pairwise exchanges until paths stabilize (or the round
  /// budget is exhausted).  Counts kExchange messages.  Returns the number
  /// of exchanges performed.
  uint64_t BuildByExchanges(const std::vector<net::PeerId>& members,
                            uint64_t max_exchanges);

  bool IsMember(net::PeerId peer) const override;
  size_t num_members() const override { return paths_.size(); }
  const std::vector<net::PeerId>& members() const override {
    return member_list_;
  }

  const TriePath& PathOf(net::PeerId peer) const;

  /// All peers whose path is a prefix of the key id (the responsible leaf
  /// group; size max_leaf_peers under balanced assignment).
  std::vector<net::PeerId> ResponsiblePeers(uint64_t key) const;

  /// StructuredOverlay replica group: the leaf group *is* the structural
  /// replica set (already sized by max_leaf_peers), so `count` only caps
  /// it.
  void ResponsiblePeersInto(uint64_t key, uint32_t count,
                            std::vector<net::PeerId>* out) const override;
  using StructuredOverlay::ResponsiblePeers;  // unhide the (key, count) form

  /// First responsible peer (deterministic representative).
  net::PeerId ResponsibleMember(uint64_t key) const override;

  // Routing-engine contract: the candidates at a hop are the references
  // at the first level whose bit differs from the key -- all of them land
  // one trie level deeper, so they share one progress class (route-time
  // PNS picks the cheapest link among them).  No recovery scan: when
  // every reference at the required level is dead the lookup fails
  // (P-Grid would retry via alternative paths; redundant refs make this
  // rare at our churn levels, and the failure is reported).
  bool StartLookup(net::PeerId origin, uint64_t key,
                   net::PeerId* responsible) override;
  bool AtDestination(net::PeerId peer, uint64_t key) const override;
  uint32_t LookupHopLimit() const override;
  void NextHops(const RouteState& state, uint64_t key,
                std::vector<RouteCandidate>* out) override;

  /// Total routing references of `peer` (for maintenance sizing).
  size_t TableSize(net::PeerId peer) const;

  /// Maintenance sizing: total references of members()[slot].
  size_t MemberTableSize(size_t slot) const override {
    return TableSize(member_list_[slot]);
  }

  /// Order-sensitive hash over paths and per-level reference lists of
  /// every member (determinism-test hook).
  uint64_t RoutingFingerprint() const override;

  /// Rejoin refresh: rebuilds the peer's references from current paths,
  /// shuffling candidates with the caller's Rng.  Writes only that
  /// member's references and reads other members' paths, which never
  /// change after construction, so distinct peers rebuild concurrently.
  void RejoinNode(net::PeerId peer, Rng& rng) override;

  /// Empty string when the trie is well-formed (paths prefix-free and
  /// covering: every key id has >= 1 responsible peer). Test-support API.
  std::string CheckInvariants() const override;

  double StaleReferenceFraction() const;

 private:
  struct LevelRefs {
    std::vector<net::PeerId> refs;
  };
  struct NodeState {
    TriePath path;
    std::vector<LevelRefs> levels;  // levels[l]: refs for level l
  };

  void BuildRoutingTables();
  void BuildRefsFor(NodeState& st, Rng& rng);
  /// Peers whose path starts with prefix (exact prefix match on paths).
  std::vector<net::PeerId> PeersUnder(const TriePath& prefix) const;

  /// Probes random references of `peer` and re-picks a dead one from the
  /// same sibling subtree (free, piggybacked); repair writes only this
  /// member's reference slot, and the candidate scan reads other
  /// members' paths, which never change after construction.
  MaintenanceStats ProbeMember(size_t slot, net::PeerId peer,
                               uint32_t probes, Rng& rng) override;
  Rng& MaintenanceRng() override { return rng_; }

  Rng rng_;
  PGridConfig config_;
  std::unordered_map<net::PeerId, NodeState> paths_;
  std::vector<net::PeerId> member_list_;

  /// Per-lookup routing state, one entry per lookup slot (set in
  /// StartLookup; concurrent walks each run under their own
  /// CurrentLookupSlot and only read the shared trie/reference tables).
  struct LookupSlot {
    uint64_t key_id = 0;
  };
  std::vector<LookupSlot> lookup_slots_{1};
  void ResizeLookupSlots(uint32_t n) override { lookup_slots_.resize(n); }
};

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_PGRID_PGRID_H_
