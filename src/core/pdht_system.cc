#include "core/pdht_system.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "model/selection_model.h"
#include "net/rtt_estimator.h"
#include "util/hash.h"
#include "util/logging.h"

namespace pdht::core {

namespace {

/// Phase wall-clock scope for the opt-in round.phase.* series: measures
/// into RoundEngine::AddPhaseMs when phase timing is enabled, costs two
/// branches when it is not (the common case).
class ScopedPhaseMs {
 public:
  ScopedPhaseMs(sim::RoundEngine* engine, size_t phase)
      : engine_(engine->phase_timing() ? engine : nullptr), phase_(phase) {
    if (engine_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedPhaseMs() {
    if (engine_) {
      engine_->AddPhaseMs(phase_,
                          std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start_)
                              .count());
    }
  }
  ScopedPhaseMs(const ScopedPhaseMs&) = delete;
  ScopedPhaseMs& operator=(const ScopedPhaseMs&) = delete;

 private:
  sim::RoundEngine* engine_;
  size_t phase_;
  std::chrono::steady_clock::time_point start_;
};

/// Replica Puts of proactively maintained entries never expire.
constexpr double kForever = 1e15;

}  // namespace

std::string SystemConfig::Validate() const {
  std::string err = params.Validate();
  if (!err.empty()) return err;
  if (strategy != Strategy::kNoIndex &&
      !overlay::IsRegisteredBackend(backend)) {
    return "no overlay factory registered for backend '" +
           std::string(DhtBackendName(backend)) + "'";
  }
  if (ttl_scale <= 0.0) return "ttl_scale must be positive";
  if (key_ttl < 0.0) return "key_ttl must be non-negative";
  if (overlay_degree < 2.0) return "overlay_degree must be >= 2";
  if (walk.num_walkers == 0) return "walk.num_walkers must be >= 1";
  if (kademlia_bucket_size == 0) return "kademlia_bucket_size must be >= 1";
  if (kademlia_alpha == 0) return "kademlia_alpha must be >= 1";
  if (churn.enabled) {
    std::string churn_err = churn.Validate();
    if (!churn_err.empty()) return churn_err;
  }
  if (delivery_model == net::DeliveryModelKind::kLatency) {
    std::string lat_err = latency.Validate();
    if (!lat_err.empty()) return lat_err;
  }
  std::string sc_err = scenario.Validate();
  if (!sc_err.empty()) return sc_err;
  if (scenario.kind == sim::ScenarioKind::kClusterOutage &&
      (delivery_model != net::DeliveryModelKind::kLatency ||
       latency.topology != net::LatencyTopology::kTransitStub)) {
    return "scenario cluster_outage requires the latency delivery model "
           "with transit_stub topology (the cluster is a stub domain)";
  }
  if (sim_threads > 256) return "sim_threads must be <= 256";
  if (sim_shards > (1u << 20)) return "sim_shards must be <= 2^20";
  return "";
}

PdhtSystem::PdhtSystem(const SystemConfig& config)
    : config_(config), rng_(config.seed), engine_(1.0),
      autotuner_(config.autotuner) {
  if (std::string err = config_.Validate(); !err.empty()) {
    throw std::invalid_argument(err);
  }
  // One sample per query: unbounded at paper scale, so retain nothing --
  // P² sketches track exactly the probabilities Snapshot() surfaces in
  // O(1) memory (moments stay exact), which is what keeps per-lookup
  // latency accounting flat at the 100k-1M peer scenarios.
  lookup_rtt_ms_.TrackStreamingQuantiles({0.5, 0.95, 0.99});
  lookup_direct_ms_.TrackStreamingQuantiles({});  // mean-only (stretch)
  lookup_hops_.TrackStreamingQuantiles({0.95});
  for (Histogram& h : hop_rtt_ms_) {
    h.TrackStreamingQuantiles({});  // mean-only, O(1) memory per hop bucket
  }
  DeriveSettings();
  BuildSubstrates();
  SelectDhtMembers();
  PreloadIndex();
  RegisterActors();
  SetupWorkers();
}

PdhtSystem::~PdhtSystem() = default;

void PdhtSystem::DeriveSettings() {
  const auto& p = config_.params;
  model::CostModel cost(p);
  oracle_max_rank_ = cost.SolveMaxRank(p.f_qry);

  if (config_.key_ttl > 0.0) {
    key_ttl_ = config_.key_ttl * config_.ttl_scale;
  } else {
    model::SelectionModel sel(p);
    key_ttl_ = sel.IdealKeyTtl(p.f_qry) * config_.ttl_scale;
  }

  if (config_.dht_member_target > 0) {
    dht_member_target_ = config_.dht_member_target;
  } else {
    switch (config_.strategy) {
      case Strategy::kNoIndex:
        dht_member_target_ = 0;
        break;
      case Strategy::kIndexAll:
        dht_member_target_ =
            static_cast<uint32_t>(cost.NumActivePeers(p.keys));
        break;
      case Strategy::kPartialIdeal:
        dht_member_target_ = static_cast<uint32_t>(
            cost.NumActivePeers(std::max<uint64_t>(oracle_max_rank_, 1)));
        break;
      case Strategy::kPartialTtl: {
        model::SelectionModel sel(p);
        double expected = sel.ExpectedKeysInIndex(p.f_qry, key_ttl_);
        uint64_t whole =
            static_cast<uint64_t>(std::ceil(std::max(expected, 1.0)));
        dht_member_target_ =
            static_cast<uint32_t>(cost.NumActivePeers(whole));
        break;
      }
    }
  }
  // A functioning ring needs a handful of members.
  if (config_.strategy != Strategy::kNoIndex) {
    dht_member_target_ = std::max<uint32_t>(dht_member_target_, 4);
    dht_member_target_ = std::min<uint32_t>(
        dht_member_target_, static_cast<uint32_t>(p.num_peers));
  }

  if (config_.walk.max_steps_per_walker == 0) {
    // Budget ~8x the expected steps-to-hit, split across walkers.
    uint64_t expected_total =
        8 * p.num_peers / std::max<uint64_t>(1, p.repl);
    config_.walk.max_steps_per_walker = static_cast<uint32_t>(
        std::max<uint64_t>(64, expected_total / config_.walk.num_walkers));
  }
}

void PdhtSystem::BuildSubstrates() {
  const auto& p = config_.params;
  network_ = std::make_unique<net::Network>(&engine_.counters());
  if (config_.delivery_model == net::DeliveryModelKind::kLatency) {
    // Hash-derived topology seed: latency_seed pins the coordinate space
    // across sweep cells; 0 ties it to the run seed.  No Rng fork -- the
    // model is a pure hash function, so the main stream (and with it
    // every immediate-mode golden series) is untouched.
    const uint64_t topo_seed =
        config_.latency_seed != 0
            ? config_.latency_seed
            : Mix64(HashCombine(config_.seed, 0x64656c6179ULL));  // "delay"
    delivery_ = std::make_unique<net::LatencyDelivery>(config_.latency,
                                                       topo_seed);
  } else {
    delivery_ = std::make_unique<net::ImmediateDelivery>();
  }
  network_->SetDeliveryModel(delivery_.get(), &engine_.events());
  if (config_.adaptive_rto && config_.timeout_costing &&
      config_.proximity_routing &&
      config_.delivery_model == net::DeliveryModelKind::kLatency) {
    // Adaptive per-peer RTO: the latency model consults the estimator in
    // ProbeTimeoutSeconds, the network feeds it observed link delays.
    // Gated on proximity_routing because the RTT oracle seeds unsampled
    // destinations; with any leg of the condition off, nothing is
    // installed and timeout costing stays the fixed timeout_ms, bit for
    // bit.  Construction consumes no Rng stream.
    auto* lat = static_cast<net::LatencyDelivery*>(delivery_.get());
    net::RtoConfig rc;
    rc.min_ms = config_.latency.rto_min_ms;
    rc.max_ms = config_.latency.rto_max_ms > 0.0
                    ? config_.latency.rto_max_ms
                    : config_.latency.timeout_ms;
    rc.fallback_ms = config_.latency.timeout_ms;
    rto_ = std::make_unique<net::PeerRtoEstimator>(
        rc, [lat](net::PeerId a, net::PeerId b) { return lat->RttMs(a, b); });
    lat->SetRtoEstimator(rto_.get());
    network_->SetRttObserver(rto_.get());
  }
  nodes_.resize(p.num_peers);
  for (uint32_t i = 0; i < p.num_peers; ++i) {
    nodes_[i] = PdhtNode(i, p.stor, &index_arena_);
    network_->SetOnline(i, true);
  }

  Rng churn_rng = rng_.Fork();
  churn_ = std::make_unique<sim::ChurnModel>(
      static_cast<uint32_t>(p.num_peers), config_.churn, churn_rng);
  churn_->AddObserver(&PdhtSystem::ChurnTrampoline, this);
  // Align network state with the churn model's initial draw.
  for (uint32_t i = 0; i < p.num_peers; ++i) {
    network_->SetOnline(i, churn_->IsOnline(i));
  }

  if (config_.scenario.kind == sim::ScenarioKind::kClusterOutage) {
    // Resolve the scripted cluster's membership once (Validate() vetted
    // kLatency + transit_stub, so the cast holds).  Pure hash reads: no
    // Rng stream is consumed, so enabling a scenario never perturbs the
    // baseline's draws.
    const auto* lat =
        static_cast<const net::LatencyDelivery*>(delivery_.get());
    uint32_t cluster = config_.scenario.cluster;
    if (cluster == sim::ScenarioConfig::kLargestCluster) {
      std::vector<uint32_t> population(config_.latency.num_clusters, 0);
      for (uint32_t i = 0; i < p.num_peers; ++i) {
        ++population[lat->ClusterOf(i)];
      }
      cluster = 0;
      for (uint32_t c = 1; c < population.size(); ++c) {
        if (population[c] > population[cluster]) cluster = c;
      }
    }
    outage_peers_.clear();
    for (uint32_t i = 0; i < p.num_peers; ++i) {
      if (lat->ClusterOf(i) == cluster) outage_peers_.push_back(i);
    }
  }

  Rng graph_rng = rng_.Fork();
  graph_ = std::make_unique<overlay::RandomGraph>(
      static_cast<uint32_t>(p.num_peers), config_.overlay_degree,
      &graph_rng);

  content_ = std::make_unique<overlay::ReplicaPlacement>(
      static_cast<uint32_t>(p.num_peers), static_cast<uint32_t>(p.repl),
      rng_.Fork());
  content_->PlaceKeys(p.keys);

  auto oracle = [this](net::PeerId peer, uint64_t key) {
    return content_->PeerHoldsKey(peer, key);
  };
  walk_ = std::make_unique<overlay::RandomWalkSearch>(
      graph_.get(), network_.get(), oracle, config_.walk, rng_.Fork());

  workload_ = std::make_unique<metadata::QueryWorkload>(
      p.keys, p.alpha, rng_.Fork());
}

void PdhtSystem::SelectDhtMembers() {
  const auto& p = config_.params;
  dht_members_.clear();
  if (config_.strategy == Strategy::kNoIndex || dht_member_target_ == 0) {
    return;
  }
  // Random member sample without replacement.
  std::vector<net::PeerId> all(p.num_peers);
  for (uint32_t i = 0; i < p.num_peers; ++i) all[i] = i;
  rng_.Shuffle(all.data(), all.size());
  dht_members_.assign(all.begin(), all.begin() + dht_member_target_);
  for (net::PeerId m : dht_members_) nodes_[m].set_dht_member(true);

  overlay::OverlayParams op;
  op.repl = p.repl;
  op.num_peers = p.num_peers;
  op.kademlia_bucket_size = config_.kademlia_bucket_size;
  op.kademlia_alpha = config_.kademlia_alpha;
  overlay_ = overlay::MakeOverlay(config_.backend, network_.get(), op,
                                  rng_.Fork());
  // Validate() already vetted the backend; exactly one overlay is live
  // from here on.
  assert(overlay_ != nullptr);
  const bool deferred = network_->deferred_delivery();
  const net::DeliveryModel* model = delivery_.get();
  if (config_.proximity_routing && deferred) {
    // Hand the overlay the delivery model's RTT oracle *before* the
    // routing tables are built so proximity-aware backends (Kademlia)
    // can prefer cheap links among equivalent candidates.
    overlay_->SetPeerRtt([model](net::PeerId a, net::PeerId b) {
      return model->RttMs(a, b);
    });
  }
  // Lookup-time policies of the shared routing driver.  Blind defaults
  // (both off) keep every walk bit-identical to the monolithic era.
  overlay::RoutingPolicy rp;
  rp.proximity =
      config_.proximity_routing && config_.route_proximity && deferred;
  route_pns_ = rp.proximity;
  rp.timeout_costing = config_.timeout_costing && deferred;
  rp.replica_route = config_.replica_route && deferred;
  if (rp.replica_route) {
    rp.replica_count = static_cast<uint32_t>(std::min<uint64_t>(
        p.repl, std::numeric_limits<uint32_t>::max()));
  }
  if (rp.proximity || rp.replica_route) {
    // The oracle serves route-PNS ordering, cheapest-replica selection
    // and the per-hop RTT trace.
    rp.rtt = [model](net::PeerId a, net::PeerId b) {
      return model->RttMs(a, b);
    };
  }
  overlay_->SetRoutingPolicy(std::move(rp));
  overlay_->SetMembers(dht_members_);
}

const std::vector<net::PeerId>& PdhtSystem::IndexReplicasInto(
    uint64_t key, std::vector<net::PeerId>* out) const {
  // "Index and content are replicated with the same factor" (Section 4);
  // replica-group composition is the backend's business (hash-spread by
  // default, structural leaf groups for P-Grid).
  out->clear();
  if (overlay_) {
    overlay_->ResponsiblePeersInto(
        key,
        static_cast<uint32_t>(std::min<uint64_t>(
            config_.params.repl, std::numeric_limits<uint32_t>::max())),
        out);
  }
  return *out;
}

void PdhtSystem::IncResidency(uint64_t key) { ++residency_[key]; }

void PdhtSystem::DecResidency(uint64_t key) {
  auto it = residency_.find(key);
  if (it == residency_.end()) return;
  if (--it->second == 0) residency_.erase(it);
}

void PdhtSystem::PreloadIndex() {
  const auto& p = config_.params;
  uint64_t preload = 0;
  switch (config_.strategy) {
    case Strategy::kIndexAll:
      preload = p.keys;
      break;
    case Strategy::kPartialIdeal:
      preload = oracle_max_rank_;
      break;
    default:
      return;  // TTL strategy starts empty; noIndex has no index.
  }
  for (uint64_t r = 1; r <= preload; ++r) {
    uint64_t key = config_.strategy == Strategy::kIndexAll
                       ? r - 1
                       : workload_->KeyAtRank(r);
    for (net::PeerId rep : IndexReplicasOf(key)) {
      uint64_t displaced = nodes_[rep].index().Put(key, 0.0, kForever);
      if (displaced != TtlIndex::kNoKey) DecResidency(displaced);
      IncResidency(key);
    }
  }
}

void PdhtSystem::RegisterActors() {
  if (config_.phase_timing) {
    // List order must match the SimPhase enum (pdht_system.h).
    engine_.EnablePhaseTiming({"churn", "maint", "plan", "query", "publish",
                               "update", "evict", "drain"});
  }
  engine_.AddActor("churn", [this](sim::RoundContext& ctx) {
    RunChurnActor(ctx);
  });
  // Network's constructor interned every message-type counter; resolve
  // the probe counter to its id once instead of a string lookup per round.
  probe_counter_id_ =
      network_->CounterIdOf(net::MessageType::kRoutingProbe);
  engine_.AddActor("maintenance", [this](sim::RoundContext& ctx) {
    RunMaintenanceActor(ctx);
  });
  engine_.AddActor("queries", [this](sim::RoundContext& ctx) {
    RunQueryActor(ctx);
  });
  engine_.AddActor("updates", [this](sim::RoundContext& ctx) {
    RunUpdateActor(ctx);
  });
  engine_.AddActor("eviction", [this](sim::RoundContext& ctx) {
    RunEvictionActor(ctx);
  });

  engine_.AddCounterRateMetric(kSeriesMsgTotal, "msg.total");
  engine_.AddCounterRateMetric(kSeriesMsgDht, "msg.dht.");
  engine_.AddCounterRateMetric(kSeriesMsgUnstructured, "msg.unstructured.");
  engine_.AddCounterRateMetric(kSeriesMsgReplica, "msg.replica.");
  engine_.AddCounterRateMetric(kSeriesMsgMaint, "msg.maint.");
  if (network_->deferred_delivery()) {
    // In-flight observability for latency runs only: immediate-mode runs
    // keep the seed-era series set (snapshots stay byte-identical).
    engine_.AddCounterRateMetric(kSeriesDeferredRate,
                                 "net.delivery.deferred");
    if (config_.timeout_costing) {
      // Per-round probe-timeout counts; registered only when timeout
      // costing is on so existing latency runs keep their series set.
      engine_.AddCounterRateMetric(kSeriesTimeoutRate,
                                   network_->timeout_counter_id());
    }
    if (config_.replica_route) {
      // Per-round replica-failover counts, same presence rules.
      engine_.AddCounterRateMetric(kSeriesFailoverRate,
                                   network_->failover_counter_id());
    }
  }
  engine_.AddMetric(kSeriesHitRate, [this](const sim::RoundContext&) {
    return round_queries_ == 0
               ? 0.0
               : static_cast<double>(round_hits_) /
                     static_cast<double>(round_queries_);
  });
  engine_.AddMetric(kSeriesIndexSize, [this](const sim::RoundContext&) {
    return static_cast<double>(residency_.size());
  });
  engine_.AddMetric(kSeriesOnlineFraction,
                    [this](const sim::RoundContext&) {
                      return churn_->OnlineFraction();
                    });
}

void PdhtSystem::RunRounds(uint64_t n) { engine_.Run(n); }

net::PeerId PdhtSystem::RandomOnlinePeer() {
  // One draw from the network's dense online index: exactly uniform over
  // online peers (the old rejection loop was only asymptotically so) and
  // O(1) regardless of availability.  Consumes one Rng value per call
  // where the rejection loop consumed a variable number.
  const uint32_t online = network_->online_count();
  if (online == 0) return net::kInvalidPeer;
  return network_->OnlinePeerAt(
      static_cast<uint32_t>(rng_.UniformU64(online)));
}

net::PeerId PdhtSystem::DhtEntryPoint(Rng& rng, net::PeerId origin) {
  if (origin != net::kInvalidPeer && nodes_[origin].is_dht_member() &&
      network_->IsOnline(origin)) {
    return origin;
  }
  net::PeerId entry =
      overlay_ ? overlay_->RandomOnlineMember(rng) : net::kInvalidPeer;
  if (route_pns_ && entry != net::kInvalidPeer &&
      origin != net::kInvalidPeer) {
    // Proximity entry selection (route-time PNS, hop 0): any online
    // member is an equal-progress entry into the DHT -- the key is
    // equidistant from a random member either way -- so take the
    // cheapest origin->entry link among a small sample.  This leg is a
    // full random link under blind routing (~a third of the mean lookup
    // RTT at the 1/14 scenario), making it the single largest
    // latency-aware routing win.
    double best = delivery_->RttMs(origin, entry);
    for (int i = 1; i < 8; ++i) {
      net::PeerId cand = overlay_->RandomOnlineMember(rng);
      if (cand == net::kInvalidPeer) break;
      if (cand == entry) continue;
      const double rtt = delivery_->RttMs(origin, cand);
      if (rtt < best) {
        best = rtt;
        entry = cand;
      }
    }
  }
  if (entry != net::kInvalidPeer && origin != net::kInvalidPeer) {
    // Forwarding the query from the non-member origin into the DHT is one
    // message ("it is sufficient to know at least one online peer that is
    // participating in the DHT", Section 3.2).
    net::Message m;
    m.type = net::MessageType::kDhtLookup;
    m.from = origin;
    m.to = entry;
    network_->Send(m);
  }
  return entry;
}

uint64_t PdhtSystem::StatisticalReplicaFloodCost(Rng& rng) {
  // Flooding the replica subnetwork costs ~ repl * dup2 messages (Eq. 16);
  // the fractional part is realized probabilistically so the expectation
  // is exact.
  double cost = static_cast<double>(config_.params.repl) *
                config_.params.dup2;
  uint64_t whole = static_cast<uint64_t>(cost);
  double frac = cost - static_cast<double>(whole);
  return whole + (rng.Bernoulli(frac) ? 1 : 0);
}

void PdhtSystem::PutAtReplicas(uint64_t key, double now, double ttl) {
  for (net::PeerId rep : IndexReplicasOf(key)) {
    if (!network_->IsOnline(rep)) continue;  // offline replicas pull later
    uint64_t displaced = nodes_[rep].index().Put(key, now, ttl);
    if (displaced != TtlIndex::kNoKey) DecResidency(displaced);
    IncResidency(key);
  }
}

QueryOutcome PdhtSystem::ExecuteQuery(uint64_t key) {
  QueryOutcome out;
  out.origin = RandomOnlinePeer();
  if (out.origin == net::kInvalidPeer) return out;
  // One planned task run inline on the main stream and the serial
  // walker; no lane is bound, so its traffic and deferred deliveries hit
  // the shared network directly.
  const QueryTask t = MakeQueryTask(key, out.origin);
  QueryTaskResult r;
  overlay::SetCurrentLookupSlot(0);
  RunQueryTask(t, rng_, *walk_, &replica_scratch_, &r);
  PublishQueryResult(t, r, engine_.now());
  nodes_[t.origin].RecordQuery(r.answered_from_index);
  out.found = r.found;
  out.answered_from_index = r.answered_from_index;
  out.used_unstructured = r.used_unstructured;
  out.index_messages = r.index_messages;
  out.unstructured_messages = r.unstructured_messages;
  return out;
}

// --- Round engine -----------------------------------------------------------
//
// Every task phase (maintenance, queries, updates) runs in three steps
// (docs/architecture.md):
//  1. PLAN: decide the round's task list -- the same sequence no matter
//     how many threads or shards run the phase.  The query and
//     maintenance plans are counting sorts over fixed chunks on the
//     pool; the update plan draws off the main stream serially.
//  2. EXECUTE (parallel, inline at one thread): the worker pool claims
//     chunks of tasks; each task draws from its own Rng derived from the
//     round seed and the task index, counts messages into its worker's
//     lane, and buffers every state mutation.
//  3. PUBLISH (serial): lane counter deltas merge (order-free), then
//     order-sensitive effects replay in global task order -- deferred
//     deliveries, autotuner observations, Touch/insert Puts, RTT
//     samples -- so the result is a pure function of the task list,
//     independent of worker assignment.

void PdhtSystem::SetupWorkers() {
  const uint32_t threads = std::max<uint32_t>(1, config_.sim_threads);
  num_shards_ = config_.sim_shards > 0 ? config_.sim_shards : 4 * threads;
  pool_ = std::make_unique<sim::ShardPool>(threads);
  lanes_.resize(threads);
  replica_slots_.resize(threads);
  if (overlay_) overlay_->SetLookupSlots(threads);
  auto oracle = [this](net::PeerId peer, uint64_t key) {
    return content_->PeerHoldsKey(peer, key);
  };
  walk_slots_.reserve(threads);
  for (uint32_t w = 0; w < threads; ++w) {
    // One searcher per worker so walk scratch never crosses threads.  The
    // searcher's own stream is never used -- tasks always pass their
    // derived task Rng -- and seeding it from a hash (not a rng_.Fork())
    // keeps the main stream independent of the thread count.
    walk_slots_.push_back(std::make_unique<overlay::RandomWalkSearch>(
        graph_.get(), network_.get(), oracle, config_.walk,
        Rng(Mix64(HashCombine(config_.seed, 0x77616c6bULL + w)))));
  }
  // Eviction partition: shard of a peer is a pure function of its id, so
  // the partition (and with it every shard-buffered result) is identical
  // for every thread count.
  shard_members_.assign(num_shards_, {});
  for (net::PeerId m : dht_members_) {
    shard_members_[Mix64(m) % num_shards_].push_back(m);
  }
  evict_buffers_.assign(num_shards_, {});
  // Partitioned boundary drain: deferred-delivery arrivals are tagged
  // with their destination (PDHT peers are handler-free, so an arrival's
  // only effect is the commutative drop tally), letting the drain hand
  // per-destination-shard batches to the pool.  Workers bind lanes so
  // the tallies accumulate race-free and merge after -- commutative, so
  // the result is bit-identical to the serial drain, which the queue
  // falls back to whenever any batch event is order-sensitive.
  engine_.SetBoundaryDrainer([this](double until) {
    return engine_.events().DrainBoundaryPartitioned(
        until, num_shards_,
        [this](uint32_t shards, const sim::EventQueue::ShardRunFn& run) {
          const size_t num_counters = engine_.counters().NumCounters();
          for (net::ShardLane& lane : lanes_) lane.Prepare(num_counters);
          pool_->Run(shards, [this, &run](uint32_t w, uint32_t shard) {
            network_->BeginLane(&lanes_[w]);
            run(shard);
            network_->EndLane();
          });
          MergeLaneCounters();
        });
  });
}

template <typename Body>
void PdhtSystem::RunLanePhase(uint32_t num_tasks, const Body& body) {
  const size_t num_counters = engine_.counters().NumCounters();
  for (net::ShardLane& lane : lanes_) lane.Prepare(num_counters);
  // Contiguous chunks amortize the lane bind and slice bookkeeping over
  // many tasks.  A chunk's deferred log is its tasks' effects in task
  // order, so replaying chunks in order is replaying tasks in order: the
  // chunk size changes scheduling only, never results.
  const uint32_t threads = pool_->num_threads();
  const uint32_t chunk =
      std::clamp<uint32_t>(num_tasks / (threads * 16), 1, 256);
  const uint32_t num_chunks = (num_tasks + chunk - 1) / chunk;
  phase_slices_.resize(num_chunks);
  pool_->Run(num_chunks, [&](uint32_t w, uint32_t c) {
    net::ShardLane& lane = lanes_[w];
    PhaseSlice& s = phase_slices_[c];
    s.lane = w;
    s.def_begin = static_cast<uint32_t>(lane.deferred.size());
    overlay::SetCurrentLookupSlot(w);
    network_->BeginLane(&lane);
    const uint32_t end = std::min(num_tasks, (c + 1) * chunk);
    for (uint32_t task = c * chunk; task < end; ++task) {
      // Zero the bracket accumulator so a task's latency deltas are
      // computed from a task-invariant base: (frozen_global + x) -
      // frozen_global rounds the same way no matter which tasks this
      // worker ran before.  The charged latency itself replays from the
      // deferred log at commit.
      lane.latency_s = 0.0;
      body(w, task);
    }
    network_->EndLane();
    s.def_end = static_cast<uint32_t>(lane.deferred.size());
  });
}

void PdhtSystem::CommitLanePhase() {
  MergeLaneCounters();
  // Deferred network effects (fp latency sums, capped histograms, event
  // scheduling, RTO samples) touch no state the per-task publish steps
  // read or write, so replaying them ahead of those steps -- still in
  // global task order -- is the same as interleaving them.
  for (const PhaseSlice& s : phase_slices_) {
    const std::vector<net::ShardLane::Deferred>& log = lanes_[s.lane].deferred;
    for (uint32_t i = s.def_begin; i < s.def_end; ++i) {
      network_->CommitDeferred(log[i]);
    }
  }
}

void PdhtSystem::MergeLaneCounters() {
  // Integer adds commute, so lane-major merge order is immaterial (and
  // cheap -- one flat vector add per lane).  The audit knob merges in
  // reverse to prove the claim stays true (the determinism suite pins
  // shuffled-vs-default snapshots bit for bit).
  if (config_.debug_shuffle_publish) {
    for (auto it = lanes_.rbegin(); it != lanes_.rend(); ++it) {
      engine_.counters().MergeDelta(it->counter_delta);
    }
    return;
  }
  for (const net::ShardLane& lane : lanes_) {
    engine_.counters().MergeDelta(lane.counter_delta);
  }
}

PdhtSystem::QueryTask PdhtSystem::MakeQueryTask(uint64_t key,
                                                net::PeerId origin) const {
  QueryTask t;
  t.key = key;
  t.origin = origin;
  switch (config_.strategy) {
    case Strategy::kNoIndex:
      break;
    case Strategy::kIndexAll:
      t.index_first = true;
      break;
    case Strategy::kPartialIdeal:
      // Oracle: every peer knows whether the key is worth indexing.
      t.index_first = workload_->RankOf(key) <= oracle_max_rank_;
      break;
    case Strategy::kPartialTtl:
      t.index_first = true;
      t.ttl_semantics = true;
      break;
  }
  return t;
}

void PdhtSystem::AppendQueryTask(uint64_t key) {
  // Trace-replay planning: origin off the main stream, in entry order.
  query_tasks_.push_back(MakeQueryTask(key, RandomOnlinePeer()));
}

/// Counting-sort planner chunk: fixed size so the chunk partition -- and
/// with it every task offset -- is a pure function of the online count,
/// never of the thread count.
constexpr uint32_t kPlanChunk = 8192;

void PdhtSystem::PlanQueryTasks(sim::RoundContext& ctx) {
  const auto& p = config_.params;
  query_tasks_.clear();
  if (config_.trace != nullptr) {
    auto [begin, end] = config_.trace->RoundRange(ctx.round);
    for (size_t i = begin; i < end; ++i) {
      uint64_t key = config_.trace->entries()[i].key;
      if (key >= p.keys) continue;  // foreign trace entries are skipped
      AppendQueryTask(key);
    }
    return;
  }
  // Counting-sort plan over the dense online index, two parallel passes:
  // A counts each online peer's queries this round, B materializes tasks
  // at exact offsets.  Each peer's draws come from its own streams --
  // pure functions of (seed, round, peer) -- so the plan consumes ZERO
  // main-stream values and is bit-identical at every thread/shard count
  // (a main-stream origin draw per query would be a serial floor at
  // 100k+ queries/round).  Each online peer issues floor(rate) +
  // Bernoulli(frac) queries where rate spreads the round's expected
  // total (num_peers * f_qry) over the online population, and the peer
  // itself is the query's origin -- the aggregate mean of a binomial
  // count with uniformly drawn origins, realized per-peer.
  const uint32_t online = network_->online_count();
  if (online == 0) return;  // nothing can originate a query
  const double rate =
      static_cast<double>(p.num_peers) * p.f_qry / static_cast<double>(online);
  const uint32_t whole = static_cast<uint32_t>(rate);
  const double frac = rate - static_cast<double>(whole);
  const uint64_t count_seed =
      Mix64(HashCombine(round_seed_, 0x706c636eULL));  // "plcn"
  const uint64_t key_seed =
      Mix64(HashCombine(round_seed_, 0x706c6b79ULL));  // "plky"
  const uint32_t num_chunks = (online + kPlanChunk - 1) / kPlanChunk;
  plan_counts_.resize(online);
  plan_chunk_bases_.assign(num_chunks, 0);
  // Pass A (parallel): per-peer query counts and per-chunk totals.
  pool_->Run(num_chunks, [this, online, whole, frac,
                          count_seed](uint32_t /*w*/, uint32_t chunk) {
    const uint32_t begin = chunk * kPlanChunk;
    const uint32_t end = std::min(online, begin + kPlanChunk);
    uint64_t total = 0;
    for (uint32_t i = begin; i < end; ++i) {
      Rng rng(Mix64(HashCombine(count_seed, network_->OnlinePeerAt(i))));
      const uint32_t c = whole + (rng.Bernoulli(frac) ? 1 : 0);
      plan_counts_[i] = c;
      total += c;
    }
    plan_chunk_bases_[chunk] = total;
  });
  // Serial seam: exclusive prefix sum of the chunk totals = each chunk's
  // base task offset.
  uint64_t total = 0;
  for (uint32_t c = 0; c < num_chunks; ++c) {
    const uint64_t chunk_total = plan_chunk_bases_[c];
    plan_chunk_bases_[c] = total;
    total += chunk_total;
  }
  query_tasks_.resize(total);
  if (total == 0) return;
  // Pass B (parallel): materialize each peer's tasks at its exact slot
  // range; keys come from the peer's key stream, in issue order.
  pool_->Run(num_chunks,
             [this, online, key_seed](uint32_t /*w*/, uint32_t chunk) {
               const uint32_t begin = chunk * kPlanChunk;
               const uint32_t end = std::min(online, begin + kPlanChunk);
               uint64_t slot = plan_chunk_bases_[chunk];
               for (uint32_t i = begin; i < end; ++i) {
                 const uint32_t c = plan_counts_[i];
                 if (c == 0) continue;
                 const net::PeerId peer = network_->OnlinePeerAt(i);
                 Rng rng(Mix64(HashCombine(key_seed, peer)));
                 for (uint32_t q = 0; q < c; ++q) {
                   query_tasks_[slot++] =
                       MakeQueryTask(workload_->SampleKey(rng), peer);
                 }
               }
             });
}

void PdhtSystem::RunQueryActor(sim::RoundContext& ctx) {
  {
    ScopedPhaseMs timer(&engine_, kPhasePlan);
    PlanQueryTasks(ctx);
  }
  round_queries_ = 0;
  round_hits_ = 0;
  if (query_tasks_.empty()) return;
  query_results_.resize(query_tasks_.size());
  {
    ScopedPhaseMs timer(&engine_, kPhaseQuery);
    RunLanePhase(static_cast<uint32_t>(query_tasks_.size()),
                 [this](uint32_t w, uint32_t q) {
                   const QueryTask& t = query_tasks_[q];
                   QueryTaskResult& r = query_results_[q];
                   r = QueryTaskResult{};
                   if (t.origin == net::kInvalidPeer) return;  // none online
                   // The task's whole random behaviour hangs off this one
                   // derived stream: any worker running it draws the same
                   // values.
                   Rng rng(Mix64(HashCombine(round_seed_, q)));
                   RunQueryTask(t, rng, *walk_slots_[w], &replica_slots_[w],
                                &r);
                 });
  }
  ScopedPhaseMs timer(&engine_, kPhasePublish);
  PublishQueryResults();
}

void PdhtSystem::RunQueryTask(const QueryTask& t, Rng& rng,
                              overlay::RandomWalkSearch& walk,
                              std::vector<net::PeerId>* replicas,
                              QueryTaskResult* r) {
  if (t.index_first) {
    IndexFirstQuery(t, rng, walk, replicas, r);
  } else {
    UnstructuredQuery(t, rng, walk, r);
  }
}

void PdhtSystem::UnstructuredQuery(const QueryTask& t, Rng& rng,
                                   overlay::RandomWalkSearch& walk,
                                   QueryTaskResult* r) {
  overlay::WalkResult wr = walk.Search(t.origin, t.key, rng);
  r->used_unstructured = true;
  r->found = wr.found;
  r->unstructured_messages = wr.messages;
}

void PdhtSystem::IndexFirstQuery(const QueryTask& t, Rng& rng,
                                 overlay::RandomWalkSearch& walk,
                                 std::vector<net::PeerId>* replicas,
                                 QueryTaskResult* r) {
  const double now = engine_.now();
  // Observed brackets: inside a lane phase the shared counters are
  // frozen, so the before/after deltas are this task's own traffic and
  // latency; outside one (ExecuteQuery) they are the plain totals.
  const uint64_t before = network_->ObservedTotalMessages();
  const double lat_before = network_->ObservedLatencyS();

  net::PeerId entry = DhtEntryPoint(rng, t.origin);
  if (entry == net::kInvalidPeer) {
    // DHT unreachable (everything offline): degrade to broadcast.
    UnstructuredQuery(t, rng, walk, r);
    return;
  }

  overlay::LookupResult route = overlay_->Lookup(entry, t.key);
  if (network_->deferred_delivery() &&
      route.terminus != net::kInvalidPeer) {
    // Paired samples: measured serialized RTT of this lookup vs the
    // direct origin->terminus round trip -- their mean ratio is the
    // routing stretch bench_latency reports.  Timeout costing folds
    // failed-probe waits into the same latency sum, so the RTT bracket
    // prices them automatically.
    r->has_rtt = true;
    r->rtt_ms = (network_->ObservedLatencyS() - lat_before) * 1e3;
    r->direct_ms = delivery_->RttMs(t.origin, route.terminus);
    r->hops = static_cast<double>(route.hops);
    r->hop_rtt_n = route.hop_rtt_n;
    for (uint32_t k = 0; k < route.hop_rtt_n; ++k) {
      r->hop_rtt_ms[k] = route.hop_rtt_ms[k];
    }
  }
  net::PeerId holder = net::kInvalidPeer;
  if (route.success && route.terminus != net::kInvalidPeer &&
      nodes_[route.terminus].index().Contains(t.key, now)) {
    holder = route.terminus;
  }
  if (holder == net::kInvalidPeer) {
    // Terminus cannot answer: flood the replica subnetwork (Section 5.1;
    // purging leaves replicas unsynchronized, so siblings may still hold
    // the key).
    network_->CountOnly(net::MessageType::kReplicaFlood,
                        StatisticalReplicaFloodCost(rng));
    for (net::PeerId rep : IndexReplicasInto(t.key, replicas)) {
      if (!network_->IsOnline(rep)) continue;
      if (nodes_[rep].index().Contains(t.key, now)) {
        holder = rep;
        break;
      }
    }
  }
  r->index_messages = network_->ObservedTotalMessages() - before;
  r->index_obs = static_cast<double>(r->index_messages);

  if (holder != net::kInvalidPeer) {
    if (t.ttl_semantics) {
      // Touch applies at publish (in task order, against live state).
      r->has_touch = true;
      r->touch_holder = holder;
    }
    r->found = true;
    r->answered_from_index = true;
    return;
  }

  // Miss: broadcast search, then (TTL algorithm only) insert the result.
  UnstructuredQuery(t, rng, walk, r);
  if (t.ttl_semantics && r->found) {
    // Re-insertion: route to the responsible region (cSIndx) and flood
    // the replica subnetwork now (the wire cost belongs to this task);
    // the replica Puts wait for publish.
    const uint64_t before_insert = network_->ObservedTotalMessages();
    net::PeerId insert_entry = DhtEntryPoint(rng, net::kInvalidPeer);
    if (insert_entry != net::kInvalidPeer) {
      overlay_->Lookup(insert_entry, t.key);
      network_->CountOnly(net::MessageType::kReplicaPush,
                          StatisticalReplicaFloodCost(rng));
      r->has_insert = true;
    }
    r->index_messages += network_->ObservedTotalMessages() - before_insert;
  }
}

void PdhtSystem::PublishQueryResult(const QueryTask& t,
                                    const QueryTaskResult& r, double now) {
  // (1) Autotuner observations, index before unstructured (the per-query
  //     order).
  if (r.index_obs >= 0.0) autotuner_.ObserveIndexSearch(r.index_obs);
  if (r.used_unstructured && r.found) {
    autotuner_.ObserveUnstructuredSearch(
        static_cast<double>(r.unstructured_messages));
  }
  // (2) Index mutations, with the TTL in force at this publish point (the
  //     autotuner may have just moved it).
  if (r.has_touch) {
    nodes_[r.touch_holder].index().Touch(t.key, now, EffectiveKeyTtl());
  }
  if (r.has_insert) PutAtReplicas(t.key, now, EffectiveKeyTtl());
  // (3) Latency samples (capped histograms subsample deterministically in
  //     arrival order).
  if (r.has_rtt) {
    lookup_rtt_ms_.Add(r.rtt_ms);
    lookup_direct_ms_.Add(r.direct_ms);
    lookup_hops_.Add(r.hops);
    for (uint32_t k = 0; k < r.hop_rtt_n; ++k) {
      hop_rtt_ms_[k].Add(r.hop_rtt_ms[k]);
    }
  }
}

void PdhtSystem::PublishQueryResults() {
  const double now = engine_.now();
  CommitLanePhase();
  // Ordered slice: autotuner EWMAs and the Touch/Put index mutations see
  // state the previous task may have moved, so they apply serially in
  // global task order.
  for (size_t q = 0; q < query_tasks_.size(); ++q) {
    PublishQueryResult(query_tasks_[q], query_results_[q], now);
  }
  // Commutative slice (parallel): per-origin stats and the round's
  // hit-rate tally.  RecordQuery is integer increments on the origin's
  // node, so partitioning tasks by origin -- a pure function of the
  // origin id -- gives every partition a disjoint node set, and the
  // per-partition query/hit partials sum serially after the barrier.
  // One partition per worker: each partition scans the whole task list,
  // so more partitions than workers would only repeat the scan.
  const uint32_t parts = pool_->num_threads();
  publish_queries_.assign(parts, 0);
  publish_hits_.assign(parts, 0);
  const bool shuffle = config_.debug_shuffle_publish;
  pool_->Run(parts, [this, parts, shuffle](uint32_t /*w*/, uint32_t p) {
    // Audit knob: visit partitions in reversed order (task p processes
    // partition parts-1-p).  The partition itself is unchanged, so
    // results must be bit-identical.
    const uint32_t part = shuffle ? parts - 1 - p : p;
    uint64_t queries = 0;
    uint64_t hits = 0;
    for (size_t q = 0; q < query_tasks_.size(); ++q) {
      const net::PeerId origin = query_tasks_[q].origin;
      const uint32_t home =
          origin == net::kInvalidPeer
              ? 0
              : static_cast<uint32_t>(Mix64(origin) % parts);
      if (home != part) continue;
      const bool hit = query_results_[q].answered_from_index;
      if (origin != net::kInvalidPeer) {
        nodes_[origin].RecordQuery(hit);
      }
      ++queries;
      if (hit) ++hits;
    }
    publish_queries_[part] = queries;
    publish_hits_[part] = hits;
  });
  for (uint32_t p = 0; p < parts; ++p) {
    round_queries_ += publish_queries_[p];
    round_hits_ += publish_hits_[p];
  }
}

void PdhtSystem::RunMaintenanceActor(sim::RoundContext& /*ctx*/) {
  if (config_.strategy == Strategy::kNoIndex || !overlay_) return;
  ScopedPhaseMs timer(&engine_, kPhaseMaint);
  // PLAN (parallel, fixed chunks of member slots): the overlay accrues
  // its fractional budgets and freezes the round's task list in
  // canonical member order -- the same list at any thread count.
  // EXECUTE: each task probes/repairs exactly one member's own routing
  // table against the frozen membership snapshot.  PUBLISH: lane merge
  // and deferred replay, then the overlay folds its per-task repair
  // stats.
  const uint32_t num_tasks =
      overlay_->PlanMaintenanceRound(config_.params.env, pool_.get());
  if (num_tasks > 0) {
    const uint64_t maint_seed =
        Mix64(HashCombine(round_seed_, 0x6d61696e74ULL));  // "maint"
    RunLanePhase(num_tasks, [this, maint_seed](uint32_t, uint32_t task) {
      Rng rng(Mix64(HashCombine(maint_seed, task)));
      overlay_->ExecuteMaintenanceTask(task, rng);
    });
    CommitLanePhase();
    overlay_->FinishMaintenanceRound();
  }
  // Feed the TTL autotuner the round's maintenance traffic: probes per
  // round per currently indexed key approximate cRtn (Eq. 8).
  uint64_t probes = engine_.counters().Value(probe_counter_id_);
  uint64_t delta = probes - last_probe_count_;
  last_probe_count_ = probes;
  autotuner_.ObserveMaintenanceRound(
      static_cast<double>(delta), static_cast<double>(residency_.size()));
}

void PdhtSystem::RunUpdateActor(sim::RoundContext& /*ctx*/) {
  // Proactive updates exist only while the index is proactively maintained
  // (Section 5.1 removes cUpd: the TTL algorithm refreshes values on
  // miss-triggered re-insertion).
  if (config_.strategy != Strategy::kIndexAll &&
      config_.strategy != Strategy::kPartialIdeal) {
    return;
  }
  const auto& p = config_.params;
  uint64_t indexed_keys = config_.strategy == Strategy::kIndexAll
                              ? p.keys
                              : oracle_max_rank_;
  if (indexed_keys == 0) return;
  ScopedPhaseMs timer(&engine_, kPhaseUpdate);
  update_carry_ += static_cast<double>(indexed_keys) * p.f_upd;
  // PLAN (serial): rank draws come off the main stream in carry order,
  // one draw per update.
  update_tasks_.clear();
  while (update_carry_ >= 1.0) {
    update_carry_ -= 1.0;
    uint64_t rank = 1 + rng_.UniformU64(indexed_keys);
    update_tasks_.push_back(config_.strategy == Strategy::kIndexAll
                                ? rank - 1
                                : workload_->KeyAtRank(rank));
  }
  if (update_tasks_.empty()) return;
  const uint64_t upd_seed =
      Mix64(HashCombine(round_seed_, 0x75706474ULL));  // "updt"
  update_inserted_.resize(update_tasks_.size());
  // EXECUTE: insert at one responsible peer (cSIndx) + the statistical
  // replica-flood costing (repl * dup2) -- exactly Eq. 9's per-update
  // cost, charged to the task; index mutations wait for publish.
  RunLanePhase(static_cast<uint32_t>(update_tasks_.size()),
               [this, upd_seed](uint32_t, uint32_t task) {
                 Rng rng(Mix64(HashCombine(upd_seed, task)));
                 net::PeerId entry = DhtEntryPoint(rng, net::kInvalidPeer);
                 update_inserted_[task] = entry != net::kInvalidPeer;
                 if (entry == net::kInvalidPeer) return;
                 overlay_->Lookup(entry, update_tasks_[task]);
                 network_->CountOnly(net::MessageType::kReplicaPush,
                                     StatisticalReplicaFloodCost(rng));
               });
  // PUBLISH: lane merge and deferred replay, then the replica Puts in
  // global task order.
  CommitLanePhase();
  const double now = engine_.now();
  for (size_t task = 0; task < update_tasks_.size(); ++task) {
    if (update_inserted_[task]) {
      PutAtReplicas(update_tasks_[task], now, kForever);
    }
  }
}

void PdhtSystem::RunEvictionActor(sim::RoundContext& ctx) {
  if (config_.strategy != Strategy::kPartialTtl) return;
  ScopedPhaseMs timer(&engine_, kPhaseEvict);
  // Shard-parallel sweep: each shard owns a disjoint member set (pure
  // function of peer id), evicted keys land in per-shard buffers, and
  // residency decrements -- commutative integer ops over an unordered
  // map nothing iterates -- replay serially in shard order.
  const double now = ctx.time;
  pool_->Run(num_shards_, [this, now](uint32_t /*worker*/, uint32_t shard) {
    std::vector<uint64_t>& evicted = evict_buffers_[shard];
    evicted.clear();
    for (net::PeerId m : shard_members_[shard]) {
      nodes_[m].index().EvictExpired(
          now, [&evicted](uint64_t key) { evicted.push_back(key); });
    }
  });
  for (const std::vector<uint64_t>& evicted : evict_buffers_) {
    for (uint64_t key : evicted) DecResidency(key);
  }
}

void PdhtSystem::ApplyScenarioTransitions(uint64_t round) {
  if (config_.scenario.kind != sim::ScenarioKind::kClusterOutage) return;
  const sim::ScenarioConfig& sc = config_.scenario;
  if (!outage_active_ && round >= sc.outage_start_round &&
      round < sc.outage_end_round) {
    outage_active_ = true;
    // Ascending-peer-id order: the flips (and their observer effects on
    // the dense online index) are a fixed sequence, so scenario runs are
    // bit-identical at any thread/shard count.  Force/Heal consume no
    // randomness (see sim/churn.h).
    for (net::PeerId peer : outage_peers_) churn_->ForceOffline(peer);
  } else if (outage_active_ && round >= sc.outage_end_round) {
    outage_active_ = false;
    for (net::PeerId peer : outage_peers_) churn_->Heal(peer);
  }
}

void PdhtSystem::RunChurnActor(sim::RoundContext& ctx) {
  ScopedPhaseMs timer(&engine_, kPhaseChurn);
  // The round's first actor: every later phase's streams hang off this.
  round_seed_ = Mix64(HashCombine(config_.seed, ctx.round));
  // Flip events apply serially in event order (the dense online index
  // and the replica-pull accounting are order-sensitive); the expensive
  // part -- rebuilding a rejoined member's routing table -- is queued
  // by OnChurnFlip, deduped, and rebuilt in parallel below, one task per
  // distinct member writing only its own table.  Rebuilds are pure
  // functions of (membership, rng) -- they never read online state -- so
  // running them after the round's remaining flips changes nothing.
  // Scenario heals queue their members the same way.
  rejoin_queue_.clear();
  ApplyScenarioTransitions(ctx.round);
  churn_->AdvanceTo(ctx.time);
  if (rejoin_queue_.empty()) return;
  // Dedup is mandatory, not an optimization: a member that flipped
  // online twice in one round must rebuild exactly once (two tasks would
  // race on its table).  Sort first so the task list is a pure function
  // of the flip *set*.
  std::sort(rejoin_queue_.begin(), rejoin_queue_.end());
  rejoin_queue_.erase(
      std::unique(rejoin_queue_.begin(), rejoin_queue_.end()),
      rejoin_queue_.end());
  const uint64_t churn_seed =
      Mix64(HashCombine(round_seed_, 0x6368726eULL));  // "chrn"
  // No lanes: table rebuilds send no messages and touch no counters.
  pool_->Run(static_cast<uint32_t>(rejoin_queue_.size()),
             [this, churn_seed](uint32_t /*worker*/, uint32_t task) {
               const net::PeerId peer = rejoin_queue_[task];
               // Streams key off the peer id, not the task index, so a
               // member's rebuild draws are independent of how many
               // other members rejoined the same round.
               Rng rng(Mix64(HashCombine(churn_seed, peer)));
               overlay_->RejoinNode(peer, rng);
             });
}

void PdhtSystem::OnChurnFlip(net::PeerId peer, bool online) {
  network_->SetOnline(peer, online);
  if (!online) return;
  if (!nodes_[peer].is_dht_member()) return;
  // Rejoin: refresh routing state (piggybacked, free) and pull missed
  // replica updates (one pull + one response).
  if (overlay_) rejoin_queue_.push_back(peer);
  network_->CountOnly(net::MessageType::kReplicaPull, 2);
}

void PdhtSystem::ChurnTrampoline(void* ctx, uint32_t peer, bool online,
                                 double /*when*/) {
  static_cast<PdhtSystem*>(ctx)->OnChurnFlip(peer, online);
}

void PdhtSystem::ShiftPopularity() { workload_->ShufflePopularity(); }

void PdhtSystem::RotatePopularity(uint64_t offset) {
  workload_->RotatePopularity(offset);
}

double PdhtSystem::EffectiveKeyTtl() const {
  if (config_.autotune_ttl && autotuner_.HasEnoughData()) {
    return autotuner_.RecommendedTtl();
  }
  return key_ttl_;
}

uint64_t PdhtSystem::IndexedKeyCount() const { return residency_.size(); }

uint32_t PdhtSystem::DhtMemberCount() const {
  return static_cast<uint32_t>(dht_members_.size());
}

double PdhtSystem::TailMessageRate(size_t tail) const {
  return engine_.Series(kSeriesMsgTotal).TailMean(tail);
}

double PdhtSystem::TailHitRate(size_t tail) const {
  return engine_.Series(kSeriesHitRate).TailMean(tail);
}

RunSnapshot PdhtSystem::Snapshot(size_t tail) const {
  RunSnapshot snap;
  for (const std::string& name : engine_.SeriesNames()) {
    snap.series_tail[name] = engine_.Series(name).TailMean(tail);
  }
  snap.index_keys = IndexedKeyCount();
  snap.effective_key_ttl = EffectiveKeyTtl();
  snap.dht_members = DhtMemberCount();
  if (network_->deferred_delivery()) {
    snap.latency[kMetricLookupRttMean] = lookup_rtt_ms_.mean();
    snap.latency[kMetricLookupRttP50] = lookup_rtt_ms_.Quantile(0.5);
    snap.latency[kMetricLookupRttP95] = lookup_rtt_ms_.Quantile(0.95);
    snap.latency[kMetricLookupRttP99] = lookup_rtt_ms_.Quantile(0.99);
    snap.latency[kMetricLookupRttCount] =
        static_cast<double>(lookup_rtt_ms_.count());
    const uint64_t deferred = network_->DeferredCount();
    snap.latency[kMetricLinkDelayMean] =
        deferred == 0 ? 0.0
                      : network_->total_latency_s() * 1e3 /
                            static_cast<double>(deferred);
    snap.latency[kMetricLookupStretch] =
        lookup_direct_ms_.mean() > 0.0
            ? lookup_rtt_ms_.mean() / lookup_direct_ms_.mean()
            : 0.0;
    snap.latency[kMetricLookupHopsMean] = lookup_hops_.mean();
    snap.latency[kMetricLookupHopsP95] = lookup_hops_.Quantile(0.95);
    snap.latency[kMetricLookupTimeouts] =
        static_cast<double>(network_->TimeoutCount());
    if (config_.replica_route) {
      snap.latency[kMetricLookupFailovers] =
          static_cast<double>(network_->FailoverCount());
    }
    // Per-hop RTT means, keyed by hop index; only buckets that collected
    // samples emit a metric (blind runs emit none, keeping their
    // snapshots unchanged).
    for (size_t k = 0; k < hop_rtt_ms_.size(); ++k) {
      if (hop_rtt_ms_[k].count() == 0) continue;
      snap.latency[std::string(kMetricLookupHopRttPrefix) +
                   std::to_string(k)] = hop_rtt_ms_[k].mean();
    }
  }
  return snap;
}

}  // namespace pdht::core
