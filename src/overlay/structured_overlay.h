// Polymorphic seam between the PDHT core and the structured overlays.
//
// The paper's analysis is "generic enough such that it can be adapted to
// suit most other DHT proposals"; this interface is that claim expressed
// in code.  PdhtSystem talks to exactly one StructuredOverlay and never
// names a concrete backend; Chord, P-Grid, CAN and Kademlia implement the
// interface, and a factory registry (MakeOverlay) maps the DhtBackend
// enum -- or its string name -- to a constructed instance.  Adding a new
// overlay is a ~1-file change: implement the interface and register a
// factory; PdhtSystem, the benches, the examples and the parity tests
// enumerate RegisteredBackends() and pick the newcomer up automatically.
//
// Contract notes:
//  * SetMembers is called once per system build with the DHT member
//    subset; construction traffic is free (bootstrap cost is not the
//    object of the paper's model).
//  * Lookup is NOT backend code: backends implement the candidate-
//    generator contract below (StartLookup/AtDestination/NextHops/...)
//    and the shared overlay::RoutingDriver owns the hop-by-hop walk --
//    probe accounting, failed-probe timeout costing and route-time
//    proximity selection live there once, for every backend
//    (routing_driver.h).  Lookup() survives as a thin wrapper so call
//    sites are unchanged.
//  * Every hop attempt is one kDhtLookup on the shared Network (design
//    decision #5: protocols never self-report costs).
//  * Maintenance (Eq. 8) is written once, here: every online member
//    accrues env probes per routing entry per round into a fractional
//    budget that carries across rounds, and spends the whole probes
//    through the backend's ProbeMember hook (see "Maintenance round").
//  * ResponsiblePeers returns the key's replica group, responsible member
//    first.  The default spreads the remaining repl-1 replicas over
//    hash-derived members (successor-consecutive replicas would overflow
//    whole arcs together); overlays with a structural replica group --
//    P-Grid's leaf peers -- override it.
//  * Replica terminals: under RoutingPolicy::replica_route the driver
//    treats EVERY member of the key's replica group as a valid terminal
//    -- a hop that is about to end the walk (a candidate with
//    terminal = true, or the responsible member leading the candidate
//    list) is rerouted to the cheapest live replica, and that advance
//    ends routing exactly like a backend-emitted terminal candidate.
//    Backends therefore must keep ResponsiblePeersInto consistent with
//    storage placement (PdhtSystem replicates inserts to the same
//    group), and must tolerate a walk terminating at a group member
//    other than ResponsibleMember(key).  ResponsiblePeersInto is also
//    called from concurrent lookup slots, so overrides must be
//    read-only over state frozen during parallel phases.
//  * SetPeerRtt (optional, before SetMembers) installs a link-RTT oracle
//    for proximity-aware neighbor selection at *table build* time;
//    route-time proximity selection is a RoutingPolicy knob
//    (SetRoutingPolicy) and needs no backend support.

#ifndef PDHT_OVERLAY_STRUCTURED_OVERLAY_H_
#define PDHT_OVERLAY_STRUCTURED_OVERLAY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/strategy.h"
#include "net/network.h"
#include "overlay/routing_driver.h"
#include "util/rng.h"

namespace pdht::sim {
class ShardPool;
}  // namespace pdht::sim

namespace pdht::overlay {

/// Outcome of one routed lookup.  The accounting contract is uniform
/// across backends (assembled by RoutingDriver, not by backend code):
///
///  * hops          -- successful routing advances: edges of the walk
///                     actually traversed.  Probes that found their
///                     target offline are NOT hops.
///  * failed_probes -- kDhtLookup sends answered by discovering the
///                     target offline (stale-entry cost; these messages
///                     hit the wire and are counted on the Network).
///  * messages      -- every message of this lookup: all probes
///                     (successful and failed) plus the final
///                     kDhtResponse to the originator when the lookup
///                     succeeds away from home.  With sequential routing
///                     (LookupParallelism() == 1, the default)
///                     messages == hops + failed_probes
///                                 + (success && terminus != origin).
///                     An alpha-concurrent walk adds wasted parallel
///                     probes on top, so only >= holds there.
///  * responsible   -- the member owning the key (kInvalidPeer only when
///                     the overlay is empty).
///  * responsible_online -- IsOnline(responsible) at lookup end, on every
///                     path (including dead-end failures).
///  * terminus      -- where routing ended: the owner, its closest online
///                     stand-in, or the peer where the walk died.
///  * success       -- the walk ended at an online peer that can serve
///                     the lookup: the destination, a terminal recovery
///                     step, or (for backends whose walk tolerates
///                     stand-ins) the closest online member.  Candidate
///                     exhaustion is always a failure.
///  * failovers     -- dead replicas skipped by latency-aware replica
///                     failover (RoutingPolicy::replica_route; always 0
///                     without it).  Failover probes are also counted
///                     under failed_probes and messages, so the
///                     sequential messages identity above gains the
///                     replica batches' wasted parallel probes.
///  * hop_rtt_ms    -- per-hop RTT trace: the oracle RTT of the link
///                     each advance traversed, keyed by hop index
///                     (first kMaxHopRtt hops; hop_rtt_n entries are
///                     populated).  Recorded only when the policy has
///                     an RTT oracle installed; empty on blind walks.
struct LookupResult {
  /// Per-hop RTT trace capacity; deeper walks drop the tail.
  static constexpr uint32_t kMaxHopRtt = 8;

  bool success = false;
  net::PeerId responsible = net::kInvalidPeer;  ///< member owning the key.
  net::PeerId terminus = net::kInvalidPeer;     ///< where routing ended.
  bool responsible_online = false;
  uint32_t hops = 0;          ///< successful routing advances.
  uint32_t failed_probes = 0; ///< sends to stale (offline) entries.
  uint64_t messages = 0;      ///< probes + failures + reply.
  uint32_t failovers = 0;     ///< dead replicas skipped (replica_route).
  uint32_t hop_rtt_n = 0;     ///< populated hop_rtt_ms entries.
  float hop_rtt_ms[kMaxHopRtt] = {};  ///< RTT of hop k's link, ms.
};

/// Maintenance counters: probes sent, probes that found their target
/// offline, and stale entries the backend repaired.
struct MaintenanceStats {
  uint64_t probes_sent = 0;
  uint64_t stale_detected = 0;
  uint64_t repairs = 0;
};

class StructuredOverlay {
 public:
  /// `network` must outlive the overlay (shared by every backend).
  explicit StructuredOverlay(net::Network* network);
  virtual ~StructuredOverlay() = default;

  /// (Re)builds the overlay over the given member peers (free, see
  /// contract above).
  virtual void SetMembers(const std::vector<net::PeerId>& members) = 0;

  virtual bool IsMember(net::PeerId peer) const = 0;
  virtual size_t num_members() const = 0;

  /// All members.  Order is backend-defined but stable between
  /// SetMembers calls (Chord: sorted by ring id).
  virtual const std::vector<net::PeerId>& members() const = 0;

  /// The member responsible for `key`, kInvalidPeer when empty.
  virtual net::PeerId ResponsibleMember(uint64_t key) const = 0;

  /// Writes the key's replica group (<= count peers, responsible member
  /// first) into `*out`, replacing its contents.  This is the virtual
  /// customization point; taking the caller's buffer keeps the per-query
  /// replica walk allocation-free (PdhtSystem reuses one scratch vector
  /// for every insert/flood/update).
  virtual void ResponsiblePeersInto(uint64_t key, uint32_t count,
                                    std::vector<net::PeerId>* out) const;

  /// Convenience value-returning form of ResponsiblePeersInto.
  std::vector<net::PeerId> ResponsiblePeers(uint64_t key,
                                            uint32_t count) const {
    std::vector<net::PeerId> out;
    ResponsiblePeersInto(key, count, &out);
    return out;
  }

  /// Routes from `origin` (must be a member) toward `key`'s owner via the
  /// shared RoutingDriver; see the LookupResult contract above.  If the
  /// owner is offline the lookup terminates at its closest online
  /// stand-in with responsible_online = false.
  LookupResult Lookup(net::PeerId origin, uint64_t key);

  // --- Routing-engine contract (implemented by backends) ---------------
  //
  // The driver walks: StartLookup once, then per hop AtDestination ->
  // NextHops (primary candidates, probe order) -> FallbackHop (lazy
  // recovery scan) -> OnAdvance.  Generators may keep per-lookup state
  // set up in StartLookup; the driver is strictly sequential per overlay
  // instance.

  /// Prepares per-lookup routing state and resolves the key's owner into
  /// `*responsible`.  Returns false when the overlay is empty (the lookup
  /// fails with an all-default result).  `origin` must be a member.
  virtual bool StartLookup(net::PeerId origin, uint64_t key,
                           net::PeerId* responsible) = 0;

  /// True when the walk standing at `peer` has reached the key's
  /// destination (owner / containing zone / responsible leaf group).
  virtual bool AtDestination(net::PeerId peer, uint64_t key) const = 0;

  /// Hop budget for one lookup (walks advance every hop; the budget only
  /// bounds churn detours).
  virtual uint32_t LookupHopLimit() const = 0;

  /// Appends, in probe order, the candidates the walk at `state.cur`
  /// should try this hop.  `out` arrives cleared; emit nothing when the
  /// backend has no primary candidates (the driver then consults
  /// FallbackHop).
  virtual void NextHops(const RouteState& state, uint64_t key,
                        std::vector<RouteCandidate>* out) = 0;

  /// Optional incremental form of NextHops for the blind fast path:
  /// produces the k-th primary candidate (k = 0, 1, ... strictly
  /// increasing within one hop; k restarts at 0 on the next hop),
  /// returning false when exhausted.  Backends whose probe order is
  /// naturally computed one candidate at a time (Chord's skip-masked
  /// closest-preceding walk) override this and has_incremental_primary
  /// so blind lookups never materialize and sort a candidate list; the
  /// driver falls back to NextHops whenever a policy needs the full
  /// list (route-time PNS) or probes run in parallel.  Must produce the
  /// same candidates in the same order as NextHops.
  virtual bool PrimaryHop(const RouteState& state, uint64_t key, uint32_t k,
                          RouteCandidate* out) {
    (void)state;
    (void)key;
    (void)k;
    (void)out;
    return false;
  }
  virtual bool has_incremental_primary() const { return false; }

  /// Produces the k-th candidate (k = 0, 1, ... strictly increasing
  /// within one stalled hop) of the backend's recovery scan; returns
  /// false when the scan is exhausted.  Emitting `state.cur` itself ends
  /// routing there without a message (closest-online stand-in).  Default:
  /// no recovery scan -- a stalled hop fails the lookup.
  virtual bool FallbackHop(const RouteState& state, uint64_t key,
                           uint32_t k, RouteCandidate* out) {
    (void)state;
    (void)key;
    (void)k;
    (void)out;
    return false;
  }

  /// Notification that the walk advanced to `peer` (visited-set upkeep;
  /// CAN marks detour targets).
  virtual void OnAdvance(net::PeerId peer) { (void)peer; }

  /// Whether a hop-limit exit may still succeed from wherever the walk
  /// stands (Chord/Kademlia treat it as a stand-in; CAN/P-Grid fail).
  virtual bool LenientHopLimit() const { return false; }

  /// Expected serialized one-way latency, in milliseconds, per unit of
  /// RouteCandidate::progress.  Returning > 0 opts the backend into the
  /// driver's *weighted* route-time PNS: candidates are probed in order
  /// of (one-way RTT + weight * progress), which deviates from the
  /// blind best-progress order only when the link saving exceeds the
  /// expected cost of the extra path (Chord, Kademlia).  0 (default)
  /// keeps the equal-progress-group reorder, right for backends whose
  /// candidates form genuinely interchangeable classes (P-Grid levels).
  /// Consulted only when RoutingPolicy::proximity is on.
  virtual double ProgressWeightMs() const { return 0.0; }

  /// Bounded-parallelism request: probe up to this many primary
  /// candidates per round (Kademlia's alpha-concurrent iterative lookup).
  /// 1 (the default) is the sequential walk every backend reproduces
  /// bit-for-bit.
  virtual uint32_t LookupParallelism() const { return 1; }

  /// Installs the driver's cross-backend routing policies (route-time
  /// PNS, timeout costing).  Call any time; takes effect on the next
  /// Lookup.
  void SetRoutingPolicy(RoutingPolicy policy) {
    driver_.set_policy(std::move(policy));
  }
  const RoutingPolicy& routing_policy() const { return driver_.policy(); }

  /// Provisions `n` lookup slots so up to `n` concurrent Lookup calls --
  /// each on its own thread with a distinct CurrentLookupSlot() -- can
  /// share this overlay instance.  Concurrent lookups must only *read*
  /// routing tables: SetMembers, maintenance and rejoin rebuilds run in
  /// phases of their own (maintenance probes and rejoin rebuilds run in
  /// parallel there, each task writing only its own member's table).
  /// Default is 1 slot; calling mid-lookup is undefined.
  void SetLookupSlots(uint32_t n) {
    driver_.SetSlots(n);
    ResizeLookupSlots(n == 0 ? 1 : n);
    maint_slot_stats_.resize(n == 0 ? 1 : n);
  }
  uint32_t lookup_slots() const { return driver_.num_slots(); }

  /// Picks a uniformly random *online* member, or kInvalidPeer if none.
  /// Non-member peers "know at least one online peer that is
  /// participating in the DHT" (Section 3.2) and use it as entry point.
  /// Default: 64 uniform draws from members(), then a linear fallback.
  virtual net::PeerId RandomOnlineMember(Rng& rng) const;

  // --- Maintenance round (paper Section 3.3.1, Eq. 8) -------------------
  //
  // "One possible strategy is to probe routing entries with a given rate
  // to detect offline peers [MaCa03] ... we need only messages to detect
  // stale routing entries (by probing) but assume no additional messages
  // to repair those routing entries" (piggybacked repair).  Each online
  // member accrues env * (its table size) probes per round into a
  // fractional budget that carries across rounds, so env < 1 is honoured
  // exactly in expectation; whole probes are spent on uniformly random
  // entries of the member's own table, and a probe that finds its target
  // offline lets the backend repair that entry for free.
  //
  // The round is split plan / execute / finish so the round engine can
  // run both the plan and the execute step in parallel:
  //
  //  * PlanMaintenanceRound accrues the budgets and freezes one task per
  //    member with >= 1 whole probe, in members() order; the task list
  //    is a pure function of (budgets, table sizes, online set).  It is
  //    a two-pass counting sort over fixed-size chunks of member slots
  //    -- pass A accrues every member's budget and counts each chunk's
  //    tasks, a serial prefix sum turns the counts into chunk offsets,
  //    pass B writes each chunk's tasks at its offset -- run on `pool`
  //    when one is given and inline otherwise.  The chunk partition
  //    does not depend on the pool, so neither does the task list.
  //    Returns the task count N.
  //  * ExecuteMaintenanceTask (any order, any thread, distinct tasks in
  //    [0, N)) runs the backend's ProbeMember for the task's member slot,
  //    drawing only from the caller's Rng.  ProbeMember writes only that
  //    member's own table and reads shared state (membership, other
  //    members' tables, Network::IsOnline) that the engine freezes for
  //    the phase; probe sends go through the Network (the engine binds a
  //    counter lane around each task).  The task's stats add into the
  //    accumulator of the caller's CurrentLookupSlot(), so concurrent
  //    callers must run under distinct slots (the engine binds one per
  //    worker; inline callers are slot 0).
  //  * FinishMaintenanceRound (serial) folds the lookup_slots()
  //    accumulators into maintenance_stats() and returns the round's
  //    probes.  The stats are integer sums, so neither the task order
  //    nor the slot a task ran under changes them.
  //
  // RunMaintenanceRound is the three steps back to back, planned inline
  // and every task in order on the backend's MaintenanceRng().  Because
  // a member's table is written only by its own probes, planning every
  // member up front draws and sends exactly what probing the members one
  // after another would.

  /// One maintenance round on the backend's serial Rng.  Returns probes
  /// sent.
  uint64_t RunMaintenanceRound(double env);

  uint32_t PlanMaintenanceRound(double env, sim::ShardPool* pool = nullptr);
  void ExecuteMaintenanceTask(uint32_t task, Rng& rng);
  uint64_t FinishMaintenanceRound();

  /// Always true: every backend runs the shared planner.  Kept only
  /// because the benchmark harness (perfbench/src/layer_probes.cc) calls
  /// it, and files under perfbench/ stay frozen so benchmark runs remain
  /// comparable across changes.
  bool has_sharded_maintenance() const { return true; }

  /// Cumulative maintenance counters over all finished rounds.
  const MaintenanceStats& maintenance_stats() const { return maint_stats_; }

  /// Routing-table size of members()[slot]: the entries a maintenance
  /// round probes from (0 = nothing to probe).
  virtual size_t MemberTableSize(size_t slot) const = 0;

  /// A member came back online after churn downtime: rebuild exactly its
  /// routing state from current membership (free, piggybacked; paper
  /// Section 3.3.1).  Draws randomness only from `rng` and reads only
  /// shared state that is frozen during the churn phase, which rebuilds
  /// distinct members concurrently.  Backends with static routing state
  /// (CAN zones) keep the no-op default.
  virtual void RejoinNode(net::PeerId peer, Rng& rng) {
    (void)peer;
    (void)rng;
  }

  /// Order-sensitive hash of every member's routing table (entry order
  /// included), for bit-identity assertions across thread/shard counts
  /// (integration/sharded_determinism_test).  0 for backends without
  /// mutable routing state.
  virtual uint64_t RoutingFingerprint() const { return 0; }

  /// Optional link-RTT oracle (milliseconds, symmetric), e.g. a latency
  /// DeliveryModel's RttMs.  Overlays with freedom in neighbor choice use
  /// it for proximity-aware neighbor selection -- Kademlia prefers
  /// low-RTT contacts among the equal-distance candidates of a k-bucket.
  /// Install *before* SetMembers (routing tables are built there);
  /// backends without selection freedom simply never consult it.  When
  /// unset, neighbor selection is RTT-blind and unchanged.
  using PeerRttFn = std::function<double(net::PeerId, net::PeerId)>;
  void SetPeerRtt(PeerRttFn rtt) { peer_rtt_ = std::move(rtt); }
  bool has_peer_rtt() const { return static_cast<bool>(peer_rtt_); }

  /// Structural self-check; empty string when consistent.  Test support.
  virtual std::string CheckInvariants() const { return ""; }

 protected:
  /// The installed oracle's RTT for a link; only meaningful when
  /// has_peer_rtt().  Not hot-path: overlays call it at table build /
  /// repair time, never per message.
  double PeerRtt(net::PeerId a, net::PeerId b) const {
    return peer_rtt_(a, b);
  }

  /// Backend hook for SetLookupSlots: size the backend's per-lookup state
  /// array to `n` (>= 1) entries.  Default for backends with no
  /// StartLookup-scoped state.
  virtual void ResizeLookupSlots(uint32_t n) { (void)n; }

  /// Maintenance hook: spends `probes` (>= 1) probes from `peer` --
  /// members()[slot], passed both ways so backends that store tables in
  /// members() order skip the peer-to-slot lookup -- on uniformly random
  /// entries of its own table, drawing only from `rng`, and repairs the
  /// stale ones it finds (contract above).
  virtual MaintenanceStats ProbeMember(size_t slot, net::PeerId peer,
                                       uint32_t probes, Rng& rng) = 0;

  /// The backend's serial stream for RunMaintenanceRound.
  virtual Rng& MaintenanceRng() = 0;

  /// Zeroes every fractional probe budget.  Budgets are kept by
  /// members() slot, so every call that changes members() must call it
  /// (SetMembers; Chord's AddMember and RemoveMember).
  void ResetMaintenanceBudgets() { maint_budget_.clear(); }

  /// Sends one kRoutingProbe from `from` to `to` (ProbeMember helper).
  void SendProbe(net::PeerId from, net::PeerId to);

  net::Network* network_;  ///< not owned
  PeerRttFn peer_rtt_;     ///< null = RTT-blind neighbor selection

 private:
  /// One member's share of a planned round: its members() slot and its
  /// whole probes.
  struct MaintTask {
    uint32_t slot = 0;
    uint32_t probes = 0;
  };
  /// One lookup slot's share of the round's stats, padded to a cache
  /// line so concurrent workers never write the same line.
  struct alignas(64) SlotMaintStats {
    MaintenanceStats stats;
  };

  RoutingDriver driver_;
  std::vector<double> maint_budget_;  ///< fractional carry, by slot
  std::vector<MaintTask> maint_tasks_;
  std::vector<SlotMaintStats> maint_slot_stats_{1};  ///< by lookup slot
  std::vector<uint32_t> maint_probes_;  ///< planner buffer: probes by slot
  std::vector<uint32_t> maint_chunk_base_;  ///< planner buffer: task offsets
  MaintenanceStats maint_stats_;
};

/// Construction-time knobs shared by all backends.  Backends read what
/// they need and ignore the rest.  (The maintenance probe rate env is
/// deliberately *not* here: it flows per-call through
/// RunMaintenanceRound so it can be swept at runtime.)
struct OverlayParams {
  /// Replication factor: sizes structural replica groups (P-Grid leaf
  /// population).
  uint64_t repl = 1;
  /// Total peer population (members are a subset); used only to clamp
  /// group sizes.
  uint64_t num_peers = 0;
  /// Kademlia's k (contacts per bucket); ignored by other backends.
  uint32_t kademlia_bucket_size = 8;
  /// Kademlia's alpha: primary candidates probed per hop round by the
  /// routing driver.  1 = the sequential pre-refactor walk (bit-for-bit);
  /// ignored by other backends.
  uint32_t kademlia_alpha = 1;
};

using OverlayFactory = std::unique_ptr<StructuredOverlay> (*)(
    net::Network* network, const OverlayParams& params, Rng rng);

/// Registers a factory for `backend`; returns false (and keeps the
/// existing entry) when the backend is already registered.  The four
/// built-ins are pre-registered; call this to plug in external backends.
bool RegisterOverlay(core::DhtBackend backend, OverlayFactory factory);

bool IsRegisteredBackend(core::DhtBackend backend);

/// All registered backends in enum order -- the benches, examples and
/// parity tests enumerate this instead of hard-coding lists.
std::vector<core::DhtBackend> RegisteredBackends();

/// Constructs the backend, or nullptr when none is registered.
std::unique_ptr<StructuredOverlay> MakeOverlay(core::DhtBackend backend,
                                               net::Network* network,
                                               const OverlayParams& params,
                                               Rng rng);

/// String-keyed variant ("chord", "pgrid", "can", "kademlia"; see
/// core::ParseDhtBackend); nullptr on unknown name.
std::unique_ptr<StructuredOverlay> MakeOverlay(const std::string& name,
                                               net::Network* network,
                                               const OverlayParams& params,
                                               Rng rng);

}  // namespace pdht::overlay

#endif  // PDHT_OVERLAY_STRUCTURED_OVERLAY_H_
