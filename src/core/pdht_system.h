// Whole-system PDHT simulation harness.
//
// Wires every substrate together: churned peers on a Gnutella-like random
// graph with randomly replicated content (articles), a structured overlay
// (any registered StructuredOverlay backend -- Chord, P-Grid, CAN,
// Kademlia, ...) over the active-peer subset, probe-based routing
// maintenance, a replica layer for index entries, a Zipf query workload,
// and one of the four indexing strategies (strategy.h).  Message costs are
// accounted on the shared Network so per-category rates can be compared
// against the analytical model (bench_sim_validation) and the adaptivity
// behaviour of Section 5.2 can be reproduced (bench_sim_adaptivity).
//
// Replica-subnetwork traffic note: per-key replica groups in the *index*
// are costed statistically as round(repl * dup2) messages per flood/push
// (Network::CountOnly), because materializing 40,000 replica-subnetwork
// graphs is pointless when Eq. 9/16 only need their aggregate cost; the
// per-message gossip implementation (overlay/replica) is exercised and
// validated separately by its unit tests and bench_ablation_costs.  All
// other traffic (walks, floods, DHT hops, probes) is counted per actual
// message.

#ifndef PDHT_CORE_PDHT_SYSTEM_H_
#define PDHT_CORE_PDHT_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/pdht_node.h"
#include "core/strategy.h"
#include "core/ttl_autotuner.h"
#include "metadata/trace.h"
#include "metadata/workload.h"
#include "model/cost_model.h"
#include "model/scenario_params.h"
#include "net/delivery_model.h"
#include "net/network.h"
#include "stats/histogram.h"
#include "overlay/structured_overlay.h"
#include "overlay/unstructured/flooding.h"
#include "overlay/unstructured/random_graph.h"
#include "overlay/unstructured/random_walk.h"
#include "overlay/unstructured/replication.h"
#include "sim/churn.h"
#include "sim/round_engine.h"
#include "sim/scenario.h"
#include "sim/shard_pool.h"

namespace pdht::core {

struct SystemConfig {
  model::ScenarioParams params;     ///< scenario (Table 1) parameters.
  Strategy strategy = Strategy::kPartialTtl;
  DhtBackend backend = DhtBackend::kChord;

  /// keyTtl in rounds; 0 derives the paper's choice 1/fMin (times
  /// ttl_scale) from the analytical model.
  double key_ttl = 0.0;
  double ttl_scale = 1.0;

  /// Self-tune keyTtl online from observed traffic instead of using the
  /// static value above (the paper's Section 5.1.1 future-work mechanism,
  /// see core/ttl_autotuner.h).  Only meaningful for kPartialTtl.
  bool autotune_ttl = false;
  AutotunerConfig autotuner;

  /// Unstructured overlay average degree ("a few open connections").
  double overlay_degree = 6.0;
  overlay::RandomWalkConfig walk;  ///< max_steps_per_walker 0 = auto-size.

  sim::ChurnConfig churn;
  uint64_t seed = 42;

  /// Optional recorded query trace.  When set, each round replays the
  /// trace entries whose round matches the current round instead of
  /// sampling the Zipf workload (identical query sequences across
  /// strategies/backends).  Not owned; must outlive the system.
  const metadata::QueryTrace* trace = nullptr;

  /// Number of DHT member peers; 0 derives numActivePeers from the model
  /// for the chosen strategy.
  uint32_t dht_member_target = 0;

  /// Kademlia's k: redundant contacts per k-bucket.  Larger buckets give
  /// more routing redundancy under churn but linearly more maintenance
  /// probes (Eq. 8 charges env per routing entry) -- the bucket-size
  /// sweep in bench_ablation_backends quantifies that trade-off.  Other
  /// backends ignore it.
  uint32_t kademlia_bucket_size = 8;

  /// Kademlia's alpha: bounded lookup parallelism -- the routing driver
  /// probes up to alpha closer contacts per hop round, advancing to the
  /// best online one (deterministic tie-breaks by candidate order).
  /// 1 (the default) is the sequential walk, bit-identical to the
  /// pre-driver era; larger values trade extra lookup messages for
  /// fewer serialized timeout stalls.  Other backends ignore it.
  uint32_t kademlia_alpha = 1;

  /// Message-delivery model (net/delivery_model.h).  kImmediate is the
  /// seed's synchronous semantics (and costs the hot loop nothing);
  /// kLatency assigns every peer a deterministic synthetic coordinate,
  /// defers deliveries through the event queue and opens the latency
  /// measurement axis (lookup RTT quantiles in Snapshot().latency).
  /// The delivery seam itself never changes message counts; to hold the
  /// count series bit-identical to an immediate run, also set
  /// proximity_routing = false (PNS deliberately builds different
  /// routing tables, which changes who talks to whom).
  net::DeliveryModelKind delivery_model = net::DeliveryModelKind::kImmediate;
  /// Seed of the synthetic coordinate space; 0 derives one from `seed`,
  /// so default runs stay reproducible while sweeps can pin the topology
  /// across cells (same coordinates, different workload randomness).
  uint64_t latency_seed = 0;
  /// Link-delay knobs of the kLatency model (ignored by kImmediate).
  net::LatencyConfig latency;
  /// Let overlays consult the delivery model's RTT oracle for
  /// proximity-aware neighbor selection (StructuredOverlay::SetPeerRtt;
  /// Kademlia implements it).  Only meaningful with kLatency; turn off
  /// for an RTT-blind baseline under the same delay model.
  bool proximity_routing = true;
  /// Route-time PNS on top of table-build PNS: the routing driver
  /// prefers the lowest-RTT candidate among equal-progress next hops at
  /// every hop of every backend (overlay::RoutingPolicy::proximity).
  /// Effective only when proximity_routing is also on (it is the same
  /// PNS idea, applied at lookup time) and the delivery model is
  /// non-immediate; off = probe in the backend's blind order.
  bool route_proximity = true;
  /// Timeout-aware failed-probe costing: each failed probe round charges
  /// the delivery model's ProbeTimeoutSeconds (latency.timeout_ms) into
  /// the latency accounting instead of being free.  Message counts are
  /// unchanged -- this prices the *waiting*, not the wire.  Only
  /// meaningful with kLatency.
  bool timeout_costing = false;
  /// Adaptive per-peer RTO (net/rtt_estimator.h): timeout costing charges
  /// a Jacobson-estimated per-link detection timeout -- seeded from the
  /// RTT oracle, updated from observed link delays, clamped to
  /// [latency.rto_min_ms, latency.rto_max_ms or timeout_ms] -- instead of
  /// the fixed latency.timeout_ms.  Effective only with timeout_costing
  /// and proximity_routing (the oracle seeds the estimator) under
  /// kLatency; otherwise nothing is installed and behaviour is
  /// bit-identical to the fixed timeout.
  bool adaptive_rto = false;
  /// Latency-aware replica failover (overlay::RoutingPolicy::
  /// replica_route): terminal hops route to the cheapest live replica of
  /// the key's group and fail over past dead ones instead of failing the
  /// lookup; failovers surface as "net.failover" / lookup.failover.n.
  /// Only meaningful with kLatency (deferred delivery).
  bool replica_route = false;
  /// Correlated-failure scenario script (sim/scenario.h).  kClusterOutage
  /// requires kLatency with transit_stub topology (the cluster is a
  /// transit-stub domain).
  sim::ScenarioConfig scenario;

  /// Worker threads for the parallel phases of the round loop
  /// (maintenance, queries, updates, eviction, churn rejoins, the
  /// boundary drain).  1 runs every phase inline on the caller with no
  /// worker threads.  Results are bit-identical across every
  /// (sim_threads, sim_shards) combination -- parallelism changes
  /// wall-clock only.  See docs/architecture.md, "Round engine".
  uint32_t sim_threads = 1;
  /// Peer shards for the shard-partitioned phases (eviction, boundary
  /// drain).  Shard assignment is a pure function of peer id and shard
  /// count, so results never depend on which thread runs a shard; they
  /// do not depend on the shard count either (shard merges commute).
  /// 0 = 4 * sim_threads.
  uint32_t sim_shards = 0;

  /// Record per-phase wall-clock series round.phase.{churn,maint,plan,
  /// query,publish,update,evict,drain}.ms (sim/round_engine.h; "drain"
  /// is the round-boundary event drain, timed by the engine itself).
  /// Off by default: the values are timing noise, so enabling this
  /// forfeits run-to-run bit-identity of the recorded series (the
  /// determinism and golden suites run with it off).
  bool phase_timing = false;

  /// Determinism-audit knob: publish commutative slices in a deliberately
  /// perturbed order -- lane counter deltas merge last-to-first and the
  /// parallel per-origin stats pass visits its partitions in reversed
  /// order.  Every perturbed operation commutes by construction, so all
  /// results must be bit-identical to the default order; the sharded
  /// determinism suite asserts exactly that.
  bool debug_shuffle_publish = false;

  /// Returns an empty string when the configuration is self-consistent.
  /// PdhtSystem's constructor throws std::invalid_argument carrying this
  /// message when it is not.
  std::string Validate() const;
};

/// End-of-run measurement snapshot: every recorded series reduced to its
/// tail mean, plus the scalar state experiments report.  This is the
/// unit of data the experiment runner (exp/) aggregates across seeds;
/// keeping it a plain value lets cells ship results across threads.
struct RunSnapshot {
  /// Series name -> TailMean(tail) for every series the engine recorded
  /// (msg.rate.*, hit.rate, index.size, online.fraction, ...).
  std::map<std::string, double> series_tail;
  uint64_t index_keys = 0;       ///< IndexedKeyCount() at snapshot time.
  double effective_key_ttl = 0;  ///< EffectiveKeyTtl() at snapshot time.
  uint32_t dht_members = 0;      ///< DhtMemberCount().
  /// Latency metrics, present only under a non-immediate delivery model
  /// (empty maps keep immediate-mode snapshots byte-identical to the
  /// pre-latency era).  Keys are the PdhtSystem::kMetricLookup* names:
  /// lookup RTT mean/p50/p95/p99 (ms), sample count, mean link delay and
  /// the routing stretch (mean lookup RTT / mean direct origin->terminus
  /// RTT).
  std::map<std::string, double> latency;
};

/// Outcome of a single query, for tests and fine-grained experiments.
struct QueryOutcome {
  bool found = false;              ///< the value was located somewhere.
  bool answered_from_index = false;
  bool used_unstructured = false;
  uint64_t index_messages = 0;     ///< DHT + replica traffic this query.
  uint64_t unstructured_messages = 0;
  net::PeerId origin = net::kInvalidPeer;
};

class PdhtSystem {
 public:
  /// Throws std::invalid_argument when config.Validate() reports an
  /// error.
  explicit PdhtSystem(const SystemConfig& config);
  ~PdhtSystem();

  PdhtSystem(const PdhtSystem&) = delete;
  PdhtSystem& operator=(const PdhtSystem&) = delete;

  /// Advances the simulation by `n` rounds (1 round = 1 s).
  void RunRounds(uint64_t n);

  /// Executes one query for `key` from a random online origin immediately
  /// (outside the round loop): the round's query task body and publish
  /// step, run serially on the main stream.
  QueryOutcome ExecuteQuery(uint64_t key);

  /// Workload control for adaptivity experiments.
  void ShiftPopularity();
  void RotatePopularity(uint64_t offset);

  // --- Introspection ---------------------------------------------------

  const SystemConfig& config() const { return config_; }
  sim::RoundEngine& engine() { return engine_; }
  const sim::RoundEngine& engine() const { return engine_; }
  net::Network& network() { return *network_; }

  /// The installed delivery model (never null; ImmediateDelivery when
  /// config().delivery_model == kImmediate).
  const net::DeliveryModel& delivery_model() const { return *delivery_; }

  /// Per-lookup end-to-end RTT samples (ms): entry forward + routing
  /// hops + response, bracketed over Network::total_latency_s().  Only
  /// populated under a non-immediate delivery model.
  const Histogram& lookup_rtt_ms() const { return lookup_rtt_ms_; }

  /// Routing hops per bracketed lookup (same population rules).
  const Histogram& lookup_hops() const { return lookup_hops_; }

  /// Distinct keys currently resident in >= 1 index shard.
  uint64_t IndexedKeyCount() const;

  /// The keyTtl actually in force this instant: the static (config or
  /// model-derived) value, or the autotuner's current recommendation.
  double EffectiveKeyTtl() const;

  /// The online estimator (valid regardless of autotune_ttl; it always
  /// observes, it only *drives* the TTL when the flag is set).
  const KeyTtlAutotuner& autotuner() const { return autotuner_; }

  /// Oracle index size used by kPartialIdeal (the model's maxRank).
  uint64_t OracleMaxRank() const { return oracle_max_rank_; }

  /// DHT membership actually provisioned.
  uint32_t DhtMemberCount() const;

  /// The structured overlay backing the index; nullptr when the strategy
  /// runs without a DHT (kNoIndex).
  const overlay::StructuredOverlay* dht_overlay() const {
    return overlay_.get();
  }

  /// Measures the run so far into a plain value (see RunSnapshot).
  RunSnapshot Snapshot(size_t tail) const;

  /// Mean total messages per round over the last `tail` rounds.
  double TailMessageRate(size_t tail) const;

  /// Mean index hit rate over the last `tail` rounds.
  double TailHitRate(size_t tail) const;

  metadata::QueryWorkload& workload() { return *workload_; }

  PdhtNode& NodeOf(net::PeerId peer) { return nodes_[peer]; }

  /// Standard series names recorded every round.
  static constexpr const char* kSeriesMsgTotal = "msg.rate.total";
  static constexpr const char* kSeriesMsgDht = "msg.rate.dht";
  static constexpr const char* kSeriesMsgUnstructured =
      "msg.rate.unstructured";
  static constexpr const char* kSeriesMsgReplica = "msg.rate.replica";
  static constexpr const char* kSeriesMsgMaint = "msg.rate.maint";
  static constexpr const char* kSeriesHitRate = "hit.rate";
  static constexpr const char* kSeriesIndexSize = "index.size";
  static constexpr const char* kSeriesOnlineFraction = "online.fraction";
  /// Deferred deliveries per round; recorded only under a non-immediate
  /// delivery model (immediate runs keep the seed-era series set).
  static constexpr const char* kSeriesDeferredRate = "net.rate.deferred";
  /// Probe timeouts charged per round; recorded only when
  /// timeout_costing is active (so existing latency runs keep their
  /// series set).
  static constexpr const char* kSeriesTimeoutRate = "net.rate.timeout";

  /// RunSnapshot::latency keys (and exp:: metric names once RunCell
  /// merges them): per-lookup RTT distribution in milliseconds, sample
  /// count, mean per-message link delay, and routing stretch.
  static constexpr const char* kMetricLookupRttMean = "lookup.rtt.mean";
  static constexpr const char* kMetricLookupRttP50 = "lookup.rtt.p50";
  static constexpr const char* kMetricLookupRttP95 = "lookup.rtt.p95";
  static constexpr const char* kMetricLookupRttP99 = "lookup.rtt.p99";
  static constexpr const char* kMetricLookupRttCount = "lookup.rtt.n";
  static constexpr const char* kMetricLinkDelayMean = "link.delay.mean";
  static constexpr const char* kMetricLookupStretch = "lookup.stretch";
  /// Per-lookup routing-hop breakdown (driver-level instrumentation) and
  /// total probe timeouts charged, same latency-only presence rules.
  static constexpr const char* kMetricLookupHopsMean = "lookup.hops.mean";
  static constexpr const char* kMetricLookupHopsP95 = "lookup.hops.p95";
  static constexpr const char* kMetricLookupTimeouts = "lookup.timeout.n";
  /// Total replica failovers (present only when replica_route is on).
  static constexpr const char* kMetricLookupFailovers = "lookup.failover.n";
  /// Per-hop RTT histogram means, keyed by hop index: the metric
  /// "lookup.hop.rtt.mean.<k>" is emitted for every hop bucket k that
  /// collected samples (needs the driver's RTT oracle -- route_proximity
  /// or replica_route).
  static constexpr const char* kMetricLookupHopRttPrefix =
      "lookup.hop.rtt.mean.";
  /// Replica failovers per round; recorded only when replica_route is on.
  static constexpr const char* kSeriesFailoverRate = "net.rate.failover";

  /// Per-hop-index RTT samples (hop k of every bracketed lookup), for
  /// tests; Snapshot() surfaces the means.
  const Histogram& lookup_hop_rtt_ms(size_t k) const {
    return hop_rtt_ms_[k];
  }

  /// The installed adaptive-RTO estimator; null unless adaptive_rto is
  /// effective (see SystemConfig::adaptive_rto).
  const net::PeerRtoEstimator* rto_estimator() const { return rto_.get(); }

 private:
  void DeriveSettings();
  void BuildSubstrates();
  void SelectDhtMembers();
  void PreloadIndex();
  void RegisterActors();
  /// Worker pool, per-worker lanes and scratch, eviction shards and the
  /// partitioned boundary drain.
  void SetupWorkers();

  /// The key's index replica group, written into a reused scratch buffer
  /// (valid until the next IndexReplicasOf call; callers iterate it
  /// immediately).  Keeps the per-insert/per-flood replica walk
  /// allocation-free.
  const std::vector<net::PeerId>& IndexReplicasOf(uint64_t key) const {
    return IndexReplicasInto(key, &replica_scratch_);
  }
  /// Same, into a caller-chosen buffer (parallel tasks use per-worker
  /// scratch so they never share replica_scratch_).
  const std::vector<net::PeerId>& IndexReplicasInto(
      uint64_t key, std::vector<net::PeerId>* out) const;
  /// Puts `key` at every online replica of its group (offline replicas
  /// pull later), keeping residency_ in step.
  void PutAtReplicas(uint64_t key, double now, double ttl);
  uint64_t StatisticalReplicaFloodCost(Rng& rng);
  net::PeerId RandomOnlinePeer();
  net::PeerId DhtEntryPoint(Rng& rng, net::PeerId origin);
  void OnChurnFlip(net::PeerId peer, bool online);
  static void ChurnTrampoline(void* ctx, uint32_t peer, bool online,
                              double when);
  /// Applies the scenario script's forced-outage/heal transitions due at
  /// `round` (serial, before the round's churn flips drain).
  void ApplyScenarioTransitions(uint64_t round);
  void RunChurnActor(sim::RoundContext& ctx);
  void RunMaintenanceActor(sim::RoundContext& ctx);
  void RunQueryActor(sim::RoundContext& ctx);
  void RunUpdateActor(sim::RoundContext& ctx);
  void RunEvictionActor(sim::RoundContext& ctx);
  void IncResidency(uint64_t key);
  void DecResidency(uint64_t key);

  // --- Round engine (see docs/architecture.md) --------------------------

  /// One planned query of the round: everything the serial planning pass
  /// decided before the parallel phase starts, so the task body is a
  /// pure function of (task, round snapshot, derived task Rng).
  struct QueryTask {
    uint64_t key = 0;
    net::PeerId origin = net::kInvalidPeer;
    bool index_first = false;    ///< strategy dispatch, decided at planning
    bool ttl_semantics = false;  ///< kPartialTtl touch/insert semantics
  };

  /// Buffered effects of one query task, applied serially in global task
  /// order by PublishQueryResult -- the order-sensitive complement of the
  /// order-free counter-delta merge.
  struct QueryTaskResult {
    bool found = false;
    bool answered_from_index = false;
    bool used_unstructured = false;  ///< a walk ran (miss or no index)
    bool has_touch = false;   ///< hit under TTL semantics: Touch at publish
    bool has_insert = false;  ///< miss-then-found: replica Puts at publish
    bool has_rtt = false;     ///< bracketed RTT samples below are valid
    net::PeerId touch_holder = net::kInvalidPeer;
    uint64_t index_messages = 0;  ///< DHT + replica traffic, insert included
    uint64_t unstructured_messages = 0;  ///< the walk's traffic
    double index_obs = -1.0;  ///< ObserveIndexSearch arg; < 0 = none
    double rtt_ms = 0.0;
    double direct_ms = 0.0;
    double hops = 0.0;
    uint32_t hop_rtt_n = 0;  ///< per-hop RTT trace (replayed at publish)
    float hop_rtt_ms[overlay::LookupResult::kMaxHopRtt] = {};
  };

  /// Lane-local effect slice of one chunk of a lane phase's tasks: which
  /// worker lane the chunk recorded into and its half-open slice of that
  /// lane's deferred log, replayed serially in chunk (= task) order.
  struct PhaseSlice {
    uint32_t lane = 0;
    uint32_t def_begin = 0;
    uint32_t def_end = 0;
  };

  /// EXECUTE step shared by every task phase: runs body(worker, task) for
  /// each task in [0, num_tasks) on the pool, in contiguous chunks, with
  /// the worker's lane and lookup slot bound once per chunk.
  template <typename Body>
  void RunLanePhase(uint32_t num_tasks, const Body& body);
  /// Order-free and ordered halves of a lane phase's publish: merges the
  /// lane counter deltas, then replays the deferred network effects in
  /// global task order.
  void CommitLanePhase();
  /// Merges every lane's counter delta into the shared registry (order-
  /// free integer adds; debug_shuffle_publish reverses the lane order to
  /// prove it).  Shared by CommitLanePhase and the partitioned boundary
  /// drain.
  void MergeLaneCounters();

  void PlanQueryTasks(sim::RoundContext& ctx);
  /// Strategy dispatch for one planned query (pure function of config +
  /// the workload permutation; safe from parallel planning passes).
  QueryTask MakeQueryTask(uint64_t key, net::PeerId origin) const;
  void AppendQueryTask(uint64_t key);
  /// The query task body: every draw comes from `rng`, walks run on
  /// `walk`, replica groups land in `replicas`, and every state mutation
  /// is buffered into `r` for PublishQueryResult.
  void RunQueryTask(const QueryTask& t, Rng& rng,
                    overlay::RandomWalkSearch& walk,
                    std::vector<net::PeerId>* replicas, QueryTaskResult* r);
  void IndexFirstQuery(const QueryTask& t, Rng& rng,
                       overlay::RandomWalkSearch& walk,
                       std::vector<net::PeerId>* replicas,
                       QueryTaskResult* r);
  void UnstructuredQuery(const QueryTask& t, Rng& rng,
                         overlay::RandomWalkSearch& walk,
                         QueryTaskResult* r);
  /// Per-task publish step: autotuner observations, index mutations and
  /// latency samples of one query, against live state.
  void PublishQueryResult(const QueryTask& t, const QueryTaskResult& r,
                          double now);
  void PublishQueryResults();

  SystemConfig config_;
  // Derived settings.
  double key_ttl_ = 0.0;
  uint64_t oracle_max_rank_ = 0;
  uint32_t dht_member_target_ = 0;

  Rng rng_;
  sim::RoundEngine engine_;
  std::unique_ptr<net::Network> network_;
  /// The delivery model backing network_ (never null).  Latency models
  /// are pure hash functions of (latency_seed, peer ids): installing one
  /// consumes no Rng stream, so immediate-mode runs are bit-identical to
  /// the pre-delivery-model era.
  std::unique_ptr<net::DeliveryModel> delivery_;
  std::unique_ptr<sim::ChurnModel> churn_;
  std::unique_ptr<overlay::RandomGraph> graph_;
  std::unique_ptr<overlay::ReplicaPlacement> content_;
  std::unique_ptr<overlay::RandomWalkSearch> walk_;
  /// The one structured overlay backing the index (null iff the strategy
  /// runs without a DHT); every backend dispatch goes through it.
  std::unique_ptr<overlay::StructuredOverlay> overlay_;
  std::unique_ptr<metadata::QueryWorkload> workload_;
  /// Backing store for every node's TtlIndex; declared before nodes_ so
  /// it outlives them.
  SlabArena index_arena_;
  std::vector<PdhtNode> nodes_;
  std::vector<net::PeerId> dht_members_;
  std::unordered_map<uint64_t, uint32_t> residency_;  // key -> #shards
  mutable std::vector<net::PeerId> replica_scratch_;  // IndexReplicasOf buf

  /// Interned id of "msg.maint.probe" for the per-round autotuner delta.
  CounterId probe_counter_id_ = 0;

  /// Route-time PNS active (proximity_routing && route_proximity under a
  /// non-immediate delivery model): the routing driver reorders
  /// equal-progress candidates by RTT and DhtEntryPoint picks the
  /// cheapest origin->entry link among a sample.
  bool route_pns_ = false;

  // Per-round query accounting for the hit-rate metric.
  uint64_t round_queries_ = 0;
  uint64_t round_hits_ = 0;
  double update_carry_ = 0.0;  // fractional proactive updates per round

  KeyTtlAutotuner autotuner_;
  uint64_t last_probe_count_ = 0;  // for per-round maintenance deltas

  /// Lookup-latency accounting (deferred delivery only): the measured
  /// serialized RTT of each index lookup, and the direct origin->terminus
  /// RTT of the same lookup -- their mean ratio is the routing stretch.
  Histogram lookup_rtt_ms_;
  Histogram lookup_direct_ms_;
  /// Routing hops per bracketed lookup (driver walk length), same
  /// deferred-delivery-only population rules.
  Histogram lookup_hops_;
  /// Per-hop-index RTT samples: hop_rtt_ms_[k] collects the oracle RTT
  /// of hop k's link across bracketed lookups (mean-only; populated only
  /// when the routing policy has an RTT oracle).
  std::array<Histogram, overlay::LookupResult::kMaxHopRtt> hop_rtt_ms_;

  /// Adaptive per-peer RTO estimator (config_.adaptive_rto): consulted by
  /// the latency model's ProbeTimeoutSeconds, fed by the network's
  /// deferred-delivery observer.  Null = fixed timeout_ms.
  std::unique_ptr<net::PeerRtoEstimator> rto_;

  /// Correlated-failure scenario state: the scripted cluster's peers and
  /// whether the outage window is currently in force.
  std::vector<net::PeerId> outage_peers_;
  bool outage_active_ = false;

  // Round-engine state.  Lanes, walk searchers and replica scratch are
  // per *worker* (disjoint while a phase runs); shard member lists and
  // eviction buffers are per *shard* (each shard claimed by exactly one
  // task).
  uint32_t num_shards_ = 0;
  /// Mix64(HashCombine(seed, round)), set by the round's first actor;
  /// every phase's per-task streams hang off it.
  uint64_t round_seed_ = 0;
  std::unique_ptr<sim::ShardPool> pool_;
  std::vector<net::ShardLane> lanes_;
  std::vector<std::unique_ptr<overlay::RandomWalkSearch>> walk_slots_;
  std::vector<std::vector<net::PeerId>> replica_slots_;
  std::vector<std::vector<net::PeerId>> shard_members_;
  std::vector<std::vector<uint64_t>> evict_buffers_;
  /// Chunk slices of the current lane phase (RunLanePhase).
  std::vector<PhaseSlice> phase_slices_;
  std::vector<QueryTask> query_tasks_;
  std::vector<QueryTaskResult> query_results_;
  /// Counting-sort planner scratch (PlanQueryTasks): per-online-peer
  /// query counts, per-chunk task-offset bases (exclusive prefix sums of
  /// chunk totals), and per-partition tallies of the parallel publish's
  /// per-origin stats pass.
  std::vector<uint32_t> plan_counts_;
  std::vector<uint64_t> plan_chunk_bases_;
  std::vector<uint64_t> publish_queries_;
  std::vector<uint64_t> publish_hits_;
  /// Proactive-update round state: planned keys in draw order, and
  /// whether each task found an entry point (replica Puts at publish).
  std::vector<uint64_t> update_tasks_;
  std::vector<uint8_t> update_inserted_;
  /// Churn-phase rejoins: OnChurnFlip queues rejoining members here; the
  /// churn actor dedupes and rebuilds them in parallel.
  std::vector<net::PeerId> rejoin_queue_;

  /// Phase indices for EnablePhaseTiming/AddPhaseMs; must match the name
  /// list RegisterActors passes to EnablePhaseTiming.
  enum SimPhase : size_t {
    kPhaseChurn = 0,
    kPhaseMaint,
    kPhasePlan,
    kPhaseQuery,
    kPhasePublish,
    kPhaseUpdate,
    kPhaseEvict,
    kPhaseDrain,  ///< timed by RoundEngine itself (runs after the actors)
    kNumPhases,
  };
};

}  // namespace pdht::core

#endif  // PDHT_CORE_PDHT_SYSTEM_H_
