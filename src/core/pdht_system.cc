#include "core/pdht_system.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

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

/// sim_threads_auto work floor: below this expected per-round work (every
/// peer is swept by churn/eviction, plus one task per expected query) the
/// sharded engine's pool wake/barrier overhead outweighs the parallelism,
/// so auto picks the serial engine.  Compared against a pure function of
/// the configuration -- never the machine -- so the engine choice (and
/// with it the random stream) is reproducible across hosts.
constexpr double kAutoShardedWorkFloor = 16384.0;

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
  assert(config_.Validate().empty());
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
  SetupShardedEngine();
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
  constexpr double kForever = 1e15;
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

overlay::LookupResult PdhtSystem::DhtLookup(net::PeerId origin,
                                            uint64_t key) {
  assert(overlay_ != nullptr);
  return overlay_->Lookup(origin, key);
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

void PdhtSystem::InsertIntoIndex(uint64_t key, double now, double ttl) {
  // Route the insert to the responsible region (cSIndx) ...
  net::PeerId entry = DhtEntryPoint(rng_, net::kInvalidPeer);
  if (entry == net::kInvalidPeer) return;
  overlay::LookupResult route = DhtLookup(entry, key);
  (void)route;
  // ... then flood the replica subnetwork with the new value (repl * dup2).
  network_->CountOnly(net::MessageType::kReplicaPush,
                      StatisticalReplicaFloodCost(rng_));
  for (net::PeerId rep : IndexReplicasOf(key)) {
    if (!network_->IsOnline(rep)) continue;  // offline replicas pull later
    uint64_t displaced = nodes_[rep].index().Put(key, now, ttl);
    if (displaced != TtlIndex::kNoKey) DecResidency(displaced);
    IncResidency(key);
  }
}

QueryOutcome PdhtSystem::RunUnstructuredQuery(net::PeerId origin,
                                              uint64_t key) {
  QueryOutcome out;
  out.origin = origin;
  out.used_unstructured = true;
  overlay::WalkResult wr = walk_->Search(origin, key);
  out.found = wr.found;
  out.unstructured_messages = wr.messages;
  if (wr.found) {
    autotuner_.ObserveUnstructuredSearch(
        static_cast<double>(wr.messages));
  }
  return out;
}

QueryOutcome PdhtSystem::RunIndexFirstQuery(net::PeerId origin, uint64_t key,
                                            bool ttl_semantics) {
  QueryOutcome out;
  out.origin = origin;
  const double now = engine_.now();
  uint64_t before = network_->TotalMessages();
  // Lookup-RTT bracket: the index phase's messages are sequential hops,
  // so its serialized latency is the delta of the network's running
  // link-delay sum (0 under immediate delivery).
  const double lat_before = network_->total_latency_s();

  net::PeerId entry = DhtEntryPoint(rng_, origin);
  if (entry == net::kInvalidPeer) {
    // DHT unreachable (everything offline): degrade to broadcast.
    QueryOutcome fallback = RunUnstructuredQuery(origin, key);
    fallback.index_messages = network_->TotalMessages() - before -
                              fallback.unstructured_messages;
    return fallback;
  }

  overlay::LookupResult route = DhtLookup(entry, key);
  if (network_->deferred_delivery() &&
      route.terminus != net::kInvalidPeer) {
    // Paired samples: measured serialized RTT of this lookup vs the
    // direct origin->terminus round trip -- their mean ratio is the
    // routing stretch bench_latency reports.  Timeout costing folds
    // failed-probe waits into the same latency sum, so the RTT bracket
    // prices them automatically.
    lookup_rtt_ms_.Add((network_->total_latency_s() - lat_before) * 1e3);
    lookup_direct_ms_.Add(delivery_->RttMs(origin, route.terminus));
    lookup_hops_.Add(static_cast<double>(route.hops));
    for (uint32_t k = 0; k < route.hop_rtt_n; ++k) {
      hop_rtt_ms_[k].Add(route.hop_rtt_ms[k]);
    }
  }
  net::PeerId holder = net::kInvalidPeer;
  if (route.success && route.terminus != net::kInvalidPeer &&
      nodes_[route.terminus].index().Contains(key, now)) {
    holder = route.terminus;
  }
  if (holder == net::kInvalidPeer) {
    // Terminus cannot answer: flood the replica subnetwork (Section 5.1;
    // purging leaves replicas unsynchronized, so siblings may still hold
    // the key).
    network_->CountOnly(net::MessageType::kReplicaFlood,
                        StatisticalReplicaFloodCost(rng_));
    for (net::PeerId rep : IndexReplicasOf(key)) {
      if (!network_->IsOnline(rep)) continue;
      if (nodes_[rep].index().Contains(key, now)) {
        holder = rep;
        break;
      }
    }
  }

  if (holder != net::kInvalidPeer) {
    if (ttl_semantics) {
      nodes_[holder].index().Touch(key, now, EffectiveKeyTtl());
    }
    out.found = true;
    out.answered_from_index = true;
    out.index_messages = network_->TotalMessages() - before;
    autotuner_.ObserveIndexSearch(
        static_cast<double>(out.index_messages));
    return out;
  }

  out.index_messages = network_->TotalMessages() - before;
  autotuner_.ObserveIndexSearch(static_cast<double>(out.index_messages));
  // Miss: broadcast search, then (TTL algorithm only) insert the result.
  QueryOutcome walk_out = RunUnstructuredQuery(origin, key);
  out.used_unstructured = true;
  out.found = walk_out.found;
  out.unstructured_messages = walk_out.unstructured_messages;
  if (ttl_semantics && out.found) {
    uint64_t before_insert = network_->TotalMessages();
    InsertIntoIndex(key, now, EffectiveKeyTtl());
    out.index_messages += network_->TotalMessages() - before_insert;
  }
  return out;
}

QueryOutcome PdhtSystem::ExecuteQuery(uint64_t key) {
  net::PeerId origin = RandomOnlinePeer();
  QueryOutcome out;
  if (origin == net::kInvalidPeer) return out;

  switch (config_.strategy) {
    case Strategy::kNoIndex:
      out = RunUnstructuredQuery(origin, key);
      break;
    case Strategy::kIndexAll:
      out = RunIndexFirstQuery(origin, key, /*ttl_semantics=*/false);
      break;
    case Strategy::kPartialIdeal: {
      // Oracle: every peer knows whether the key is worth indexing.
      bool indexed = workload_->RankOf(key) <= oracle_max_rank_;
      out = indexed ? RunIndexFirstQuery(origin, key, false)
                    : RunUnstructuredQuery(origin, key);
      break;
    }
    case Strategy::kPartialTtl:
      out = RunIndexFirstQuery(origin, key, /*ttl_semantics=*/true);
      break;
  }
  nodes_[origin].RecordQuery(out.answered_from_index);
  return out;
}

void PdhtSystem::RunQueryActor(sim::RoundContext& ctx) {
  if (sharded_) {
    RunShardedQueryActor(ctx);
    return;
  }
  ScopedPhaseMs timer(&engine_, kPhaseQuery);
  const auto& p = config_.params;
  round_queries_ = 0;
  round_hits_ = 0;
  if (config_.trace != nullptr) {
    // Trace replay: every entry tagged with this round, verbatim.
    auto [begin, end] = config_.trace->RoundRange(ctx.round);
    for (size_t i = begin; i < end; ++i) {
      uint64_t key = config_.trace->entries()[i].key;
      if (key >= p.keys) continue;  // foreign trace entries are skipped
      QueryOutcome out = ExecuteQuery(key);
      ++round_queries_;
      if (out.answered_from_index) ++round_hits_;
    }
    return;
  }
  uint64_t count = workload_->SampleQueryCount(p.num_peers, p.f_qry);
  for (uint64_t q = 0; q < count; ++q) {
    uint64_t key = workload_->SampleKey();
    QueryOutcome out = ExecuteQuery(key);
    ++round_queries_;
    if (out.answered_from_index) ++round_hits_;
  }
}

// --- Sharded round engine -------------------------------------------------
//
// The parallel query phase runs in three steps (docs/architecture.md):
//  1. PLAN (serial): draw the round's query count, keys and origins from
//     the main workload/Rng streams -- one deterministic sequence no
//     matter how many threads or shards run the phase.
//  2. EXECUTE (parallel): the worker pool claims tasks; each task routes
//     against the round-start snapshot of the index/overlay state, draws
//     from its own Rng(Mix64(HashCombine(round_seed, task))), counts
//     messages into its worker's lane, and buffers every state mutation.
//  3. PUBLISH (serial): lane counter deltas merge (order-free), then each
//     task's order-sensitive effects replay in global task order --
//     deferred deliveries, autotuner observations, Touch/insert Puts,
//     RTT samples, per-origin RecordQuery -- so the result is a pure
//     function of the task list, independent of worker assignment.

void PdhtSystem::SetupShardedEngine() {
  uint32_t threads = std::max<uint32_t>(1, config_.sim_threads);
  if (config_.sim_threads_auto) {
    // Auto engine selection.  The serial/sharded decision compares the
    // configuration's expected per-round work against a fixed floor --
    // never the machine -- because the two engines are distinct random
    // streams.  The *thread count* is hardware-derived (capped so a
    // many-core host doesn't spin up workers the phase sizes can't
    // feed): sharded results are bit-identical at any thread count, so
    // this affects wall-clock only.
    const auto& p = config_.params;
    const double work =
        static_cast<double>(p.num_peers) * (1.0 + p.f_qry);
    if (work < kAutoShardedWorkFloor) {
      sharded_ = false;
      return;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    threads = std::clamp<uint32_t>(hw == 0 ? 1 : hw, 1, 8);
    sharded_ = true;
  } else {
    sharded_ = config_.sim_threads > 1 || config_.sim_shards > 0;
    if (!sharded_) return;
  }
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
    // searcher's own stream is never used -- sharded tasks always pass
    // their derived task Rng -- and seeding it from a hash (not a
    // rng_.Fork()) keeps the main stream independent of the thread count.
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
  // (the legacy planner burned one main-stream draw per query on the
  // origin alone, a serial floor at 100k+ queries/round).  Semantics
  // shift with the stream: each online peer issues floor(rate) +
  // Bernoulli(frac) queries where rate spreads the round's expected
  // total (num_peers * f_qry) over the online population, and the peer
  // itself is the query's origin -- the same aggregate mean as the old
  // binomial count with uniformly drawn origins, realized per-peer.
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

void PdhtSystem::RunShardedQueryActor(sim::RoundContext& ctx) {
  // The planner's per-peer streams derive from the round seed, so set it
  // before planning (task streams hang off it too, as before).
  round_seed_ = Mix64(HashCombine(config_.seed, ctx.round));
  {
    ScopedPhaseMs timer(&engine_, kPhasePlan);
    PlanQueryTasks(ctx);
  }
  round_queries_ = 0;
  round_hits_ = 0;
  if (query_tasks_.empty()) return;
  // Warm lazily-built shared read state serially (e.g. Chord's mutable
  // members cache) so the parallel phase only ever reads it.
  if (overlay_) overlay_->members();
  const size_t num_counters = engine_.counters().NumCounters();
  for (net::ShardLane& lane : lanes_) lane.Prepare(num_counters);
  query_results_.resize(query_tasks_.size());
  {
    ScopedPhaseMs timer(&engine_, kPhaseQuery);
    pool_->Run(static_cast<uint32_t>(query_tasks_.size()),
               [this](uint32_t w, uint32_t q) { RunQueryTask(w, q); });
  }
  ScopedPhaseMs timer(&engine_, kPhasePublish);
  PublishQueryResults();
}

void PdhtSystem::RunQueryTask(uint32_t worker, uint32_t task_index) {
  const QueryTask& t = query_tasks_[task_index];
  QueryTaskResult& r = query_results_[task_index];
  r = QueryTaskResult{};
  r.lane = worker;
  if (t.origin == net::kInvalidPeer) return;  // nothing online at planning
  overlay::SetCurrentLookupSlot(worker);
  net::ShardLane& lane = lanes_[worker];
  // Reset the bracket accumulator so latency deltas are computed from a
  // task-invariant base: (frozen_global + x) - frozen_global rounds the
  // same way no matter which worker ran the previous tasks.  The charged
  // latency itself is not lost -- CommitDeferred replays it from the
  // deferred log at publish.
  lane.latency_s = 0.0;
  network_->BeginLane(&lane);
  r.def_begin = static_cast<uint32_t>(lane.deferred.size());
  // The task's whole random behaviour hangs off this one derived stream:
  // any worker running this task draws the same values.
  Rng rng(Mix64(HashCombine(round_seed_, task_index)));
  if (t.index_first) {
    ShardIndexFirstQuery(rng, worker, t.origin, t.key, t.ttl_semantics, &r);
  } else {
    ShardUnstructuredQuery(rng, worker, t.origin, t.key, &r);
  }
  r.def_end = static_cast<uint32_t>(lane.deferred.size());
  network_->EndLane();
}

void PdhtSystem::ShardUnstructuredQuery(Rng& rng, uint32_t worker,
                                        net::PeerId origin, uint64_t key,
                                        QueryTaskResult* r) {
  overlay::WalkResult wr = walk_slots_[worker]->Search(origin, key, rng);
  r->found = wr.found;
  if (wr.found) r->unstructured_obs = static_cast<double>(wr.messages);
}

void PdhtSystem::ShardIndexFirstQuery(Rng& rng, uint32_t worker,
                                      net::PeerId origin, uint64_t key,
                                      bool ttl_semantics,
                                      QueryTaskResult* r) {
  const double now = engine_.now();
  // Lane-relative brackets: the shared counters are frozen during the
  // phase, so the observed before/after deltas are this task's own
  // traffic/latency -- same semantics as the serial brackets.
  const uint64_t before = network_->ObservedTotalMessages();
  const double lat_before = network_->ObservedLatencyS();

  net::PeerId entry = DhtEntryPoint(rng, origin);
  if (entry == net::kInvalidPeer) {
    // DHT unreachable (everything offline): degrade to broadcast.
    ShardUnstructuredQuery(rng, worker, origin, key, r);
    return;
  }

  overlay::LookupResult route = DhtLookup(entry, key);
  if (network_->deferred_delivery() &&
      route.terminus != net::kInvalidPeer) {
    r->has_rtt = true;
    r->rtt_ms = (network_->ObservedLatencyS() - lat_before) * 1e3;
    r->direct_ms = delivery_->RttMs(origin, route.terminus);
    r->hops = static_cast<double>(route.hops);
    r->hop_rtt_n = route.hop_rtt_n;
    for (uint32_t k = 0; k < route.hop_rtt_n; ++k) {
      r->hop_rtt_ms[k] = route.hop_rtt_ms[k];
    }
  }
  net::PeerId holder = net::kInvalidPeer;
  if (route.success && route.terminus != net::kInvalidPeer &&
      nodes_[route.terminus].index().Contains(key, now)) {
    holder = route.terminus;
  }
  if (holder == net::kInvalidPeer) {
    network_->CountOnly(net::MessageType::kReplicaFlood,
                        StatisticalReplicaFloodCost(rng));
    for (net::PeerId rep :
         IndexReplicasInto(key, &replica_slots_[worker])) {
      if (!network_->IsOnline(rep)) continue;
      if (nodes_[rep].index().Contains(key, now)) {
        holder = rep;
        break;
      }
    }
  }

  if (holder != net::kInvalidPeer) {
    if (ttl_semantics) {
      // Touch applies at publish (in task order, against live state).
      r->has_touch = true;
      r->touch_holder = holder;
    }
    r->found = true;
    r->answered_from_index = true;
    r->index_obs =
        static_cast<double>(network_->ObservedTotalMessages() - before);
    return;
  }

  r->index_obs =
      static_cast<double>(network_->ObservedTotalMessages() - before);
  ShardUnstructuredQuery(rng, worker, origin, key, r);
  if (ttl_semantics && r->found) {
    // Miss-then-found re-insertion: route + statistical flood now (wire
    // cost belongs to this task), replica Puts at publish.
    net::PeerId insert_entry = DhtEntryPoint(rng, net::kInvalidPeer);
    if (insert_entry != net::kInvalidPeer) {
      DhtLookup(insert_entry, key);
      network_->CountOnly(net::MessageType::kReplicaPush,
                          StatisticalReplicaFloodCost(rng));
      r->has_insert = true;
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

void PdhtSystem::PublishQueryResults() {
  const double now = engine_.now();
  // Commutative slice 1: lane counter deltas (order-free).
  MergeLaneCounters();
  // Ordered slice: everything below is genuinely order-sensitive under
  // the bit-identity contract -- CommitDeferred feeds floating-point
  // latency sums, capped/P^2 histograms and event scheduling; the
  // autotuner EWMAs and the Touch/Put index mutations see state the
  // previous task may have moved -- so it replays serially in global
  // task order, exactly as a serial engine would interleave it.
  for (size_t q = 0; q < query_tasks_.size(); ++q) {
    const QueryTask& t = query_tasks_[q];
    const QueryTaskResult& r = query_results_[q];
    // (1) Order-sensitive network effects (fp latency sums, capped
    //     histograms, event scheduling) replay in task order.
    for (uint32_t i = r.def_begin; i < r.def_end; ++i) {
      network_->CommitDeferred(lanes_[r.lane].deferred[i]);
    }
    // (2) Autotuner observations, index before unstructured (the serial
    //     per-query order).
    if (r.index_obs >= 0.0) autotuner_.ObserveIndexSearch(r.index_obs);
    if (r.unstructured_obs >= 0.0) {
      autotuner_.ObserveUnstructuredSearch(r.unstructured_obs);
    }
    // (3) Index mutations, with the TTL in force at this publish point
    //     (the autotuner may have just moved it).
    if (r.has_touch) {
      nodes_[r.touch_holder].index().Touch(t.key, now, EffectiveKeyTtl());
    }
    if (r.has_insert) {
      const double ttl = EffectiveKeyTtl();
      for (net::PeerId rep : IndexReplicasOf(t.key)) {
        if (!network_->IsOnline(rep)) continue;
        uint64_t displaced = nodes_[rep].index().Put(t.key, now, ttl);
        if (displaced != TtlIndex::kNoKey) DecResidency(displaced);
        IncResidency(t.key);
      }
    }
    // (4) Latency samples (capped histograms subsample deterministically
    //     in arrival order).
    if (r.has_rtt) {
      lookup_rtt_ms_.Add(r.rtt_ms);
      lookup_direct_ms_.Add(r.direct_ms);
      lookup_hops_.Add(r.hops);
      for (uint32_t k = 0; k < r.hop_rtt_n; ++k) {
        hop_rtt_ms_[k].Add(r.hop_rtt_ms[k]);
      }
    }
  }
  // Commutative slice 2 (parallel): per-origin stats and the round's
  // hit-rate tally.  RecordQuery is integer increments on the origin's
  // node, so partitioning tasks by origin shard -- a pure function of
  // the origin id -- gives every shard task a disjoint node set, and the
  // per-shard query/hit partials sum serially after the barrier.  Scan
  // order within a shard is task order, though nothing here needs it.
  publish_queries_.assign(num_shards_, 0);
  publish_hits_.assign(num_shards_, 0);
  const bool shuffle = config_.debug_shuffle_publish;
  pool_->Run(num_shards_, [this, shuffle](uint32_t /*w*/, uint32_t s) {
    // Audit knob: visit shards in reversed index order (shard s processes
    // partition num_shards-1-s).  The partition itself is unchanged, so
    // results must be bit-identical.
    const uint32_t shard = shuffle ? num_shards_ - 1 - s : s;
    uint64_t queries = 0;
    uint64_t hits = 0;
    for (size_t q = 0; q < query_tasks_.size(); ++q) {
      const net::PeerId origin = query_tasks_[q].origin;
      const uint32_t home =
          origin == net::kInvalidPeer
              ? 0
              : static_cast<uint32_t>(Mix64(origin) % num_shards_);
      if (home != shard) continue;
      const bool hit = query_results_[q].answered_from_index;
      if (origin != net::kInvalidPeer) {
        nodes_[origin].RecordQuery(hit);
      }
      ++queries;
      if (hit) ++hits;
    }
    publish_queries_[shard] = queries;
    publish_hits_[shard] = hits;
  });
  for (uint32_t s = 0; s < num_shards_; ++s) {
    round_queries_ += publish_queries_[s];
    round_hits_ += publish_hits_[s];
  }
}

void PdhtSystem::RunMaintenanceActor(sim::RoundContext& ctx) {
  if (config_.strategy == Strategy::kNoIndex || !overlay_) return;
  ScopedPhaseMs timer(&engine_, kPhaseMaint);
  if (sharded_) {
    RunShardedMaintenance(ctx);
  } else {
    overlay_->RunMaintenanceRound(config_.params.env);
  }
  // Feed the TTL autotuner the round's maintenance traffic: probes per
  // round per currently indexed key approximate cRtn (Eq. 8).
  uint64_t probes = engine_.counters().Value(probe_counter_id_);
  uint64_t delta = probes - last_probe_count_;
  last_probe_count_ = probes;
  autotuner_.ObserveMaintenanceRound(
      static_cast<double>(delta), static_cast<double>(residency_.size()));
}

void PdhtSystem::RunShardedMaintenance(sim::RoundContext& ctx) {
  // PLAN (serial): the overlay consumes its fractional budgets in
  // canonical member order and freezes the round's task list -- one
  // deterministic (member, probe-count) sequence no matter how many
  // threads run the phase.
  const uint32_t num_tasks =
      overlay_->PlanMaintenanceRound(config_.params.env);
  if (num_tasks == 0) return;
  round_seed_ = Mix64(HashCombine(config_.seed, ctx.round));
  const uint64_t maint_seed =
      Mix64(HashCombine(round_seed_, 0x6d61696e74ULL));  // "maint"
  const size_t num_counters = engine_.counters().NumCounters();
  for (net::ShardLane& lane : lanes_) lane.Prepare(num_counters);
  maint_slices_.resize(num_tasks);
  // EXECUTE (parallel): each task probes/repairs exactly one member's
  // own routing table against the frozen membership snapshot, counts
  // into its worker's lane, and draws from its own derived stream.
  pool_->Run(num_tasks, [this, maint_seed](uint32_t w, uint32_t task) {
    net::ShardLane& lane = lanes_[w];
    lane.latency_s = 0.0;
    network_->BeginLane(&lane);
    PhaseSlice& s = maint_slices_[task];
    s.lane = w;
    s.def_begin = static_cast<uint32_t>(lane.deferred.size());
    Rng rng(Mix64(HashCombine(maint_seed, task)));
    overlay_->ExecuteMaintenanceTask(task, rng);
    s.def_end = static_cast<uint32_t>(lane.deferred.size());
    network_->EndLane();
  });
  // PUBLISH (serial): lane counter deltas merge (order-free integer
  // adds), deferred network effects replay in global task order, then
  // the overlay folds its per-task repair stats.
  MergeLaneCounters();
  for (const PhaseSlice& s : maint_slices_) {
    for (uint32_t i = s.def_begin; i < s.def_end; ++i) {
      network_->CommitDeferred(lanes_[s.lane].deferred[i]);
    }
  }
  overlay_->FinishMaintenanceRound();
}

void PdhtSystem::RunUpdateActor(sim::RoundContext& ctx) {
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
  if (sharded_) {
    RunShardedUpdateActor(ctx, indexed_keys);
    return;
  }
  constexpr double kForever = 1e15;
  while (update_carry_ >= 1.0) {
    update_carry_ -= 1.0;
    uint64_t rank = 1 + rng_.UniformU64(indexed_keys);
    uint64_t key = config_.strategy == Strategy::kIndexAll
                       ? rank - 1
                       : workload_->KeyAtRank(rank);
    // Insert at one responsible peer (cSIndx) + gossip to replicas
    // (repl * dup2): exactly Eq. 9's per-update cost.
    net::PeerId entry = DhtEntryPoint(rng_, net::kInvalidPeer);
    if (entry == net::kInvalidPeer) continue;
    DhtLookup(entry, key);
    network_->CountOnly(net::MessageType::kReplicaPush,
                        StatisticalReplicaFloodCost(rng_));
    for (net::PeerId rep : IndexReplicasOf(key)) {
      if (!network_->IsOnline(rep)) continue;
      uint64_t displaced =
          nodes_[rep].index().Put(key, engine_.now(), kForever);
      if (displaced != TtlIndex::kNoKey) DecResidency(displaced);
      IncResidency(key);
    }
  }
}

void PdhtSystem::RunShardedUpdateActor(sim::RoundContext& ctx,
                                       uint64_t indexed_keys) {
  // PLAN (serial): rank draws come off the main stream in carry order --
  // the same one-draw-per-update sequence the serial loop consumes.
  update_tasks_.clear();
  while (update_carry_ >= 1.0) {
    update_carry_ -= 1.0;
    uint64_t rank = 1 + rng_.UniformU64(indexed_keys);
    update_tasks_.push_back(config_.strategy == Strategy::kIndexAll
                                ? rank - 1
                                : workload_->KeyAtRank(rank));
  }
  if (update_tasks_.empty()) return;
  if (overlay_) overlay_->members();  // warm shared read caches serially
  round_seed_ = Mix64(HashCombine(config_.seed, ctx.round));
  const uint64_t upd_seed =
      Mix64(HashCombine(round_seed_, 0x75706474ULL));  // "updt"
  const size_t num_counters = engine_.counters().NumCounters();
  for (net::ShardLane& lane : lanes_) lane.Prepare(num_counters);
  update_results_.resize(update_tasks_.size());
  // EXECUTE (parallel): entry-point selection, insert routing and the
  // statistical replica-flood costing per task (wire cost belongs to the
  // task); index mutations wait for publish.
  pool_->Run(
      static_cast<uint32_t>(update_tasks_.size()),
      [this, upd_seed](uint32_t w, uint32_t task) {
        UpdateTaskResult& r = update_results_[task];
        r = UpdateTaskResult{};
        r.slice.lane = w;
        overlay::SetCurrentLookupSlot(w);
        net::ShardLane& lane = lanes_[w];
        lane.latency_s = 0.0;
        network_->BeginLane(&lane);
        r.slice.def_begin = static_cast<uint32_t>(lane.deferred.size());
        Rng rng(Mix64(HashCombine(upd_seed, task)));
        net::PeerId entry = DhtEntryPoint(rng, net::kInvalidPeer);
        if (entry != net::kInvalidPeer) {
          DhtLookup(entry, update_tasks_[task]);
          network_->CountOnly(net::MessageType::kReplicaPush,
                              StatisticalReplicaFloodCost(rng));
          r.inserted = true;
        }
        r.slice.def_end = static_cast<uint32_t>(lane.deferred.size());
        network_->EndLane();
      });
  // PUBLISH (serial): merge lane counter deltas, then replay each task's
  // deferred effects and apply its replica Puts in global task order.
  MergeLaneCounters();
  constexpr double kForever = 1e15;
  const double now = engine_.now();
  for (size_t task = 0; task < update_tasks_.size(); ++task) {
    const UpdateTaskResult& r = update_results_[task];
    for (uint32_t i = r.slice.def_begin; i < r.slice.def_end; ++i) {
      network_->CommitDeferred(lanes_[r.slice.lane].deferred[i]);
    }
    if (!r.inserted) continue;
    const uint64_t key = update_tasks_[task];
    for (net::PeerId rep : IndexReplicasOf(key)) {
      if (!network_->IsOnline(rep)) continue;
      uint64_t displaced = nodes_[rep].index().Put(key, now, kForever);
      if (displaced != TtlIndex::kNoKey) DecResidency(displaced);
      IncResidency(key);
    }
  }
}

void PdhtSystem::RunEvictionActor(sim::RoundContext& ctx) {
  if (config_.strategy != Strategy::kPartialTtl) return;
  ScopedPhaseMs timer(&engine_, kPhaseEvict);
  if (!sharded_) {
    for (net::PeerId m : dht_members_) {
      nodes_[m].index().EvictExpired(
          ctx.time, [this](uint64_t key) { DecResidency(key); });
    }
    return;
  }
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
  if (!sharded_ || !overlay_ || !overlay_->has_sharded_rejoin()) {
    ApplyScenarioTransitions(ctx.round);
    churn_->AdvanceTo(ctx.time);
    return;
  }
  // Flip events apply serially in event order (the dense online index
  // and the replica-pull accounting are order-sensitive); the expensive
  // part -- rebuilding a rejoined member's routing table -- is deferred
  // by OnChurnFlip, deduped, and rebuilt in parallel below, one task per
  // distinct member writing only its own table.  Rebuilds are pure
  // functions of (membership, rng) -- they never read online state -- so
  // running them after the round's remaining flips changes nothing.
  rejoin_queue_.clear();
  defer_rejoins_ = true;
  // Scenario heals fire the rejoin observers inside the deferral window
  // so a healed cluster's members rebuild through the same deduped
  // parallel path as ordinary rejoins.
  ApplyScenarioTransitions(ctx.round);
  churn_->AdvanceTo(ctx.time);
  defer_rejoins_ = false;
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
      Mix64(HashCombine(Mix64(HashCombine(config_.seed, ctx.round)),
                        0x6368726eULL));  // "chrn"
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
  if (overlay_) {
    if (defer_rejoins_) {
      rejoin_queue_.push_back(peer);
    } else {
      overlay_->OnPeerRejoin(peer);
    }
  }
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
