#include "workloads.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

using pdht::core::SystemConfig;

/// The p90 round time needs at least ten rounds beyond it.
constexpr uint64_t kMinWindowRounds = 100;

/// Timed rounds for `seconds` at `rounds_per_s` window rounds per second
/// of --seconds.  The traced run times half as many: its numbers carry no
/// bound, and it runs the workload twice.
uint64_t WindowFor(double seconds, double rounds_per_s, bool traced) {
  const double rounds = std::ceil(seconds * rounds_per_s);
  const uint64_t window =
      std::max<uint64_t>(kMinWindowRounds, static_cast<uint64_t>(rounds));
  return traced ? window / 2 : window;
}

// The paper's Table 1 at 1/14 scale on the legacy serial engine: the
// query path, TtlIndex and per-round bookkeeping dominate a sub-ms round.
Workload Table1Serial(double seconds, bool smoke, bool traced) {
  Workload w;
  w.name = "table1_serial";
  SystemConfig& c = w.config;
  c.seed = 0x7461626c6531ULL;
  c.params.num_peers = 1428;
  c.params.keys = 2857;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 10.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.strategy = pdht::core::Strategy::kPartialTtl;
  c.backend = pdht::core::DhtBackend::kChord;
  c.churn.enabled = true;
  c.sim_threads = 1;
  // Construction takes milliseconds here, so more of them steady the
  // median.
  w.setup_reps = 21;
  w.prefix_rounds = smoke ? 10 : 100;
  w.warmup_rounds = smoke ? 10 : 300;
  w.window_rounds = smoke ? 20 : WindowFor(seconds, 1400.0, traced);
  w.prefix_probes = smoke ? 20 : 500;
  w.window_probes = smoke ? 50 : 4000;
  w.lookup_probes = smoke ? 50 : 4000;
  return w;
}

// 1M peers: overlay maintenance and its serial plan dominate each round;
// bounded walks keep the (light) query path affordable at this scale.
Workload Churn1M(double seconds, bool smoke, bool traced) {
  Workload w;
  w.name = "churn_1m";
  SystemConfig& c = w.config;
  c.seed = 0x636875726e31ULL;
  c.params.num_peers = smoke ? 20000 : 1000000;
  c.params.keys = 2 * c.params.num_peers;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 1000.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.strategy = pdht::core::Strategy::kPartialTtl;
  c.backend = pdht::core::DhtBackend::kChord;
  c.churn.enabled = true;
  c.walk.num_walkers = 16;
  c.walk.max_steps_per_walker = 128;
  c.walk.flood_fallback = false;
  c.sim_threads = 4;
  c.sim_shards = 16;
  w.pinned_shards = true;
  // Each construction takes ~10 s and ~1.6 GB: the two that the re-run
  // check needs anyway are the set-up samples.
  w.setup_reps = 2;
  w.prefix_rounds = 1;
  w.warmup_rounds = smoke ? 2 : 4;
  w.window_rounds = smoke ? 10 : WindowFor(seconds, 3.3, traced);
  w.prefix_probes = smoke ? 20 : 200;
  w.window_probes = smoke ? 50 : 4000;
  w.maint_rounds = smoke ? 2 : 3;
  w.lookup_probes = smoke ? 50 : 4000;
  return w;
}

// Kademlia under latency delivery with a cluster outage over the middle
// third of the window, indexAll with raised f_upd: the net layer, the
// RoutingDriver's failover path and the update (write) path.
Workload LatencyOutage(double seconds, bool smoke, bool traced) {
  Workload w;
  w.name = "latency_outage";
  SystemConfig& c = w.config;
  c.seed = 0x6c6174656e63ULL;
  c.params.num_peers = smoke ? 1000 : 5000;
  c.params.keys = 2 * c.params.num_peers;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 10.0;
  c.params.f_upd = 1.0 / 60.0;
  c.strategy = pdht::core::Strategy::kIndexAll;
  c.backend = pdht::core::DhtBackend::kKademlia;
  c.kademlia_alpha = 3;
  c.churn.enabled = true;
  c.delivery_model = pdht::net::DeliveryModelKind::kLatency;
  c.latency.topology = pdht::net::LatencyTopology::kTransitStub;
  c.proximity_routing = true;
  c.route_proximity = true;
  c.timeout_costing = true;
  c.adaptive_rto = true;
  c.replica_route = true;
  c.sim_threads = 2;
  c.sim_shards = 8;
  w.pinned_shards = true;
  w.prefix_rounds = smoke ? 2 : 5;
  w.warmup_rounds = smoke ? 2 : 20;
  w.window_rounds = smoke ? 12 : WindowFor(seconds, 45.0, traced);
  w.prefix_probes = smoke ? 20 : 500;
  w.window_probes = smoke ? 50 : 4000;
  w.lookup_probes = smoke ? 50 : 4000;
  const uint64_t start = w.prefix_rounds + w.warmup_rounds;
  c.scenario.kind = pdht::sim::ScenarioKind::kClusterOutage;
  c.scenario.outage_start_round = start + w.window_rounds / 3;
  c.scenario.outage_end_round = start + 2 * w.window_rounds / 3;
  return w;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     double seconds, bool smoke,
                                     bool traced) {
  Workload w;
  if (name == "table1_serial") {
    w = Table1Serial(seconds, smoke, traced);
  } else if (name == "churn_1m") {
    w = Churn1M(seconds, smoke, traced);
  } else if (name == "latency_outage") {
    w = LatencyOutage(seconds, smoke, traced);
  } else {
    return std::nullopt;
  }
  w.input_seed = seed;
  return w;
}

}  // namespace perfbench
