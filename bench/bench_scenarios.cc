// Correlated-failure recovery under the cluster-outage scenario
// (sim/scenario.h): one whole transit-stub cluster is forced offline
// mid-run and healed later, per registered backend at two policy rungs:
//
//   baseline   -- the +timeout rung of bench_latency (proximity routing,
//                 route-time PNS, fixed-ceiling timeout costing),
//   resilient  -- + adaptive per-peer RTO and replica-route failover
//                 (this PR's fault-tolerance layer).
//
// Each cell is ONE simulation run (no experiment-runner aggregation):
// recovery is judged from the per-round hit-rate series via
// ComputeRecoveryMetrics, which needs the series, not its tail mean.
//
// Shape checks:
//   1. The outage engages and disrupts lookups: the online fraction
//      drops during the outage window in every cell, and the per-round
//      probe-timeout rate rises in every baseline cell.  (The hit rate
//      itself barely moves: the query-driven partial index reassigns
//      responsibility to live peers and repopulates on the first miss,
//      so at repl=25 no key loses all its replicas -- the worst-window
//      hit rate is reported as the depth-of-dip measurement, not
//      asserted as a dip.)
//   2. Recovery: after the heal the hit rate is within 5% of the
//      pre-outage steady state (ComputeRecoveryMetrics at threshold
//      0.95) in every cell.
//   3. Resilience pays: the resilient rung's mean lookup RTT stays below
//      the baseline rung's for every backend (dead cluster members stop
//      costing full fixed-timeout ladders).
//   4. Determinism: the kademlia/resilient cell re-run at sim_threads=4
//      reproduces the sim_threads=1 snapshot and hit-rate series bit for
//      bit (the acceptance gate for the new metrics).
//
// Emits BENCH_scenarios.json (--json=<path>; smoke budgets default to
// BENCH_scenarios_smoke.json so they cannot clobber the committed
// baseline).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pdht_system.h"
#include "net/delivery_model.h"
#include "overlay/structured_overlay.h"
#include "sim/round_engine.h"
#include "sim/scenario.h"
#include "stats/table_writer.h"

namespace {

using pdht::TableWriter;
using pdht::core::PdhtSystem;
using pdht::core::SystemConfig;

constexpr uint64_t kSeed = 20260731;
constexpr uint64_t kDefaultRounds = 360;
constexpr double kRecoveryThreshold = 0.95;

/// The bench_latency 1/14 scenario moved onto the transit-stub topology
/// (the outage needs clusters to take down).
SystemConfig ScenarioConfigFor(pdht::core::DhtBackend backend,
                               uint64_t rounds, bool resilient) {
  SystemConfig c;
  c.params.num_peers = 1428;
  c.params.keys = 2857;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 10.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.strategy = pdht::core::Strategy::kPartialTtl;
  c.backend = backend;
  c.churn.enabled = true;
  c.seed = kSeed;
  c.sim_threads = 1;
  c.delivery_model = pdht::net::DeliveryModelKind::kLatency;
  c.latency.topology = pdht::net::LatencyTopology::kTransitStub;
  c.proximity_routing = true;
  c.route_proximity = true;
  c.timeout_costing = true;
  c.adaptive_rto = resilient;
  c.replica_route = resilient;
  c.scenario.kind = pdht::sim::ScenarioKind::kClusterOutage;
  c.scenario.outage_start_round = rounds / 3;
  c.scenario.outage_end_round = 2 * rounds / 3;
  return c;
}

struct CellResult {
  std::string label;
  pdht::sim::RecoveryMetrics recovery;
  std::vector<double> hit_series;
  std::vector<double> online_series;
  std::vector<double> timeout_series;
  std::vector<double> msg_series;
  pdht::core::RunSnapshot snap;
};

CellResult RunCell(const std::string& label, const SystemConfig& config,
                   uint64_t rounds, size_t tail) {
  PdhtSystem sys(config);
  sys.RunRounds(rounds);
  CellResult r;
  r.label = label;
  r.hit_series = sys.engine().Series(PdhtSystem::kSeriesHitRate).values();
  r.online_series =
      sys.engine().Series(PdhtSystem::kSeriesOnlineFraction).values();
  r.timeout_series =
      sys.engine().Series(PdhtSystem::kSeriesTimeoutRate).values();
  r.msg_series = sys.engine().Series(PdhtSystem::kSeriesMsgTotal).values();
  r.snap = sys.Snapshot(tail);
  return r;
}

/// Mean over series[first, last) clamped to the series; 0 when empty.
double WindowMean(const std::vector<double>& s, size_t first, size_t last) {
  first = std::min(first, s.size());
  last = std::min(last, s.size());
  if (first >= last) return 0.0;
  double sum = 0.0;
  for (size_t i = first; i < last; ++i) sum += s[i];
  return sum / static_cast<double>(last - first);
}

double LatencyMetric(const CellResult& r, const char* key) {
  auto it = r.snap.latency.find(key);
  return it == r.snap.latency.end() ? std::nan("") : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  pdht::bench::BenchFlags flags = pdht::bench::ParseBenchFlags(argc, argv);
  const uint64_t rounds = flags.RoundsOrDefault(kDefaultRounds);
  const uint64_t outage_start = rounds / 3;
  const uint64_t heal = 2 * rounds / 3;
  const size_t window = std::max<uint64_t>(5, rounds / 24);
  const size_t tail = std::max<uint64_t>(1, rounds - heal);

  pdht::bench::PrintHeader(
      "bench_scenarios -- correlated cluster outage and recovery per "
      "backend (1/14 scale, transit-stub topology, churn on)",
      "time-to-recover and worst-window hit rate; baseline artifact "
      "BENCH_scenarios.json");
  std::printf("outage rounds [%llu, %llu), recovery window %zu rounds, "
              "threshold %.2f\n",
              static_cast<unsigned long long>(outage_start),
              static_cast<unsigned long long>(heal), window,
              kRecoveryThreshold);

  std::vector<CellResult> cells;
  for (pdht::core::DhtBackend backend : pdht::overlay::RegisteredBackends()) {
    for (bool resilient : {false, true}) {
      std::string label = std::string(pdht::core::DhtBackendName(backend)) +
                          (resilient ? "/resilient" : "/baseline");
      SystemConfig c = ScenarioConfigFor(backend, rounds, resilient);
      cells.push_back(RunCell(label, c, rounds, tail));
      CellResult& r = cells.back();
      r.recovery = pdht::sim::ComputeRecoveryMetrics(
          r.hit_series, outage_start, heal, window, kRecoveryThreshold);
      std::printf("measured %-20s: pre %.4f, worst %.4f, %s\n",
                  r.label.c_str(), r.recovery.pre_outage_mean,
                  r.recovery.worst_window,
                  r.recovery.recovered
                      ? (std::string("recovered +") +
                         std::to_string(r.recovery.recovery_rounds) +
                         " rounds after heal")
                            .c_str()
                      : "NOT recovered");
    }
  }

  TableWriter table({"cell", "pre-outage hit", "worst window", "dip",
                     "recovery [rounds]", "rtt mean [ms]", "failovers"});
  for (const CellResult& r : cells) {
    const double rtt = LatencyMetric(r, PdhtSystem::kMetricLookupRttMean);
    const double failovers =
        LatencyMetric(r, PdhtSystem::kMetricLookupFailovers);
    char pre[32], worst[32], dip[32], rec[32], rtt_s[32], fo[32];
    std::snprintf(pre, sizeof pre, "%.4f", r.recovery.pre_outage_mean);
    std::snprintf(worst, sizeof worst, "%.4f", r.recovery.worst_window);
    std::snprintf(dip, sizeof dip, "%.1f%%",
                  r.recovery.pre_outage_mean > 0.0
                      ? 100.0 * (1.0 - r.recovery.worst_window /
                                           r.recovery.pre_outage_mean)
                      : 0.0);
    std::snprintf(rec, sizeof rec, "%s",
                  r.recovery.recovered
                      ? std::to_string(r.recovery.recovery_rounds).c_str()
                      : "never");
    std::snprintf(rtt_s, sizeof rtt_s, "%.2f", rtt);
    if (std::isnan(failovers)) {
      std::snprintf(fo, sizeof fo, "-");
    } else {
      std::snprintf(fo, sizeof fo, "%.0f", failovers);
    }
    table.AddRow({r.label, pre, worst, dip, rec, rtt_s, fo});
  }
  pdht::bench::EmitTable(table, flags.csv);

  // --- Shape checks ----------------------------------------------------
  bool pass = true;

  // 1. The outage engages: online fraction drops during the outage
  //    window in every cell, and the probe-timeout rate rises in every
  //    baseline cell (lookups actually run into the dead cluster).
  bool dip_visible = true;
  for (const CellResult& r : cells) {
    const double online_pre =
        WindowMean(r.online_series, outage_start - window, outage_start);
    const double online_out =
        WindowMean(r.online_series, outage_start, heal);
    if (!(online_out < 0.95 * online_pre)) {
      dip_visible = false;
      std::printf("  no online-fraction drop in cell %s (%.4f -> %.4f)\n",
                  r.label.c_str(), online_pre, online_out);
    }
    const bool baseline = r.label.find("/baseline") != std::string::npos;
    if (baseline) {
      // Per-message, not per-round: the outage also removes ~a cluster's
      // worth of query origins, so the raw per-round timeout count can
      // fall even while the timeout *probability* rises.
      const double msg_pre =
          WindowMean(r.msg_series, outage_start - window, outage_start);
      const double msg_out = WindowMean(r.msg_series, outage_start, heal);
      const double to_pre =
          WindowMean(r.timeout_series, outage_start - window, outage_start) /
          std::max(msg_pre, 1.0);
      const double to_out =
          WindowMean(r.timeout_series, outage_start, heal) /
          std::max(msg_out, 1.0);
      if (!(to_out > to_pre)) {
        dip_visible = false;
        std::printf("  no timeout-per-message rise in cell %s "
                    "(%.4f -> %.4f)\n",
                    r.label.c_str(), to_pre, to_out);
      }
    }
  }
  std::printf("shape check: the cluster outage drops the online fraction "
              "and raises the baseline probe-timeout rate: %s\n",
              dip_visible ? "PASS" : "FAIL");
  pass &= dip_visible;

  // 2. Every cell recovers to within 5% of steady state after the heal.
  bool recovered = true;
  for (const CellResult& r : cells) {
    if (!r.recovery.recovered) {
      recovered = false;
      std::printf("  cell %s never recovered\n", r.label.c_str());
    }
  }
  std::printf("shape check: hit rate recovers to within %.0f%% of the "
              "pre-outage steady state after the heal in every cell: %s\n",
              100.0 * (1.0 - kRecoveryThreshold),
              recovered ? "PASS" : "FAIL");
  pass &= recovered;

  // 3. The resilient rung's mean lookup RTT beats baseline per backend.
  bool resilient_wins = true;
  for (size_t i = 0; i + 1 < cells.size(); i += 2) {
    const double base =
        LatencyMetric(cells[i], PdhtSystem::kMetricLookupRttMean);
    const double res =
        LatencyMetric(cells[i + 1], PdhtSystem::kMetricLookupRttMean);
    const bool ok = res > 0.0 && res < base;
    std::printf("info: %-10s baseline %.2f ms -> resilient %.2f ms "
                "(%+.1f%%): %s\n",
                cells[i].label.c_str(), base, res,
                base > 0.0 ? 100.0 * (res / base - 1.0) : 0.0,
                ok ? "ok" : "WORSE");
    resilient_wins &= ok;
  }
  std::printf("shape check: adaptive RTO + replica failover reduce mean "
              "lookup RTT vs the fixed-timeout baseline for every "
              "backend: %s\n", resilient_wins ? "PASS" : "FAIL");
  pass &= resilient_wins;

  // 4. Thread-count determinism: the kademlia/resilient cell re-run at
  //    sim_threads=4 must reproduce the snapshot and the
  //    full hit-rate series bit for bit.
  {
    SystemConfig c =
        ScenarioConfigFor(pdht::core::DhtBackend::kKademlia, rounds, true);
    c.sim_threads = 4;
    CellResult rerun = RunCell("kademlia/resilient@t4", c, rounds, tail);
    const CellResult* t1 = nullptr;
    for (const CellResult& r : cells) {
      if (r.label == "kademlia/resilient") t1 = &r;
    }
    bool identical = t1 != nullptr && rerun.hit_series == t1->hit_series &&
                     rerun.snap.series_tail == t1->snap.series_tail &&
                     rerun.snap.latency == t1->snap.latency &&
                     rerun.snap.index_keys == t1->snap.index_keys;
    std::printf("shape check: scenario metrics are bit-identical at "
                "sim_threads 1 vs 4: %s\n", identical ? "PASS" : "FAIL");
    pass &= identical;
  }

  std::string json_path = flags.json;
  if (json_path.empty()) {
    json_path =
        flags.smoke ? "BENCH_scenarios_smoke.json" : "BENCH_scenarios.json";
  }
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("FAILED to write json baseline to %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"scenarios\",\n");
  std::fprintf(f, "  \"scenario\": \"cluster_outage\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"rounds\": %llu,\n",
               static_cast<unsigned long long>(rounds));
  std::fprintf(f, "  \"outage_start\": %llu,\n",
               static_cast<unsigned long long>(outage_start));
  std::fprintf(f, "  \"heal\": %llu,\n",
               static_cast<unsigned long long>(heal));
  std::fprintf(f, "  \"window\": %zu,\n", window);
  std::fprintf(f, "  \"threshold\": %.2f,\n", kRecoveryThreshold);
  std::fprintf(f, "  \"smoke\": %s,\n", flags.smoke ? "true" : "false");
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellResult& r = cells[i];
    const double rtt = LatencyMetric(r, PdhtSystem::kMetricLookupRttMean);
    const double failovers =
        LatencyMetric(r, PdhtSystem::kMetricLookupFailovers);
    std::fprintf(f,
                 "    {\"cell\": \"%s\", \"pre_outage_hit\": %.6f, "
                 "\"worst_window_hit\": %.6f, \"recovered\": %s, "
                 "\"recovery_rounds\": %llu, \"lookup_rtt_mean_ms\": ",
                 r.label.c_str(), r.recovery.pre_outage_mean,
                 r.recovery.worst_window,
                 r.recovery.recovered ? "true" : "false",
                 static_cast<unsigned long long>(r.recovery.recovery_rounds));
    if (std::isnan(rtt)) {
      std::fprintf(f, "null");
    } else {
      std::fprintf(f, "%.3f", rtt);
    }
    std::fprintf(f, ", \"failovers\": ");
    if (std::isnan(failovers)) {
      std::fprintf(f, "null");
    } else {
      std::fprintf(f, "%.0f", failovers);
    }
    std::fprintf(f, "}%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("json baseline written to %s\n", json_path.c_str());

  return pdht::bench::ShapeCheckExit(flags, pass);
}
