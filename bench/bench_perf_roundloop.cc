// Round-loop throughput: rounds/sec of the inner simulation loop, the
// quantity every sweep, bench and the paper-scale --full run multiply.
// PR 2 parallelized *across* cells; this bench pins the cost of one cell
// so hot-path regressions (message accounting, replica-group allocation,
// metric probes) are caught as a number, not a feeling.  The
// --sim-threads axis (comma list, e.g. --sim-threads=1,4) measures the
// round engine's worker pool: 1 runs every phase inline, >1 runs the
// phases in parallel; results are bit-identical at any thread count
// (tests/integration/sharded_determinism_test.cc).
//
// Scenarios are the paper's Table 1 at 1/14 and 1/50 scale (peers and keys
// divided, per-peer storage and replication reduced proportionally), run
// under churn so the probe/repair path is part of the measured loop, plus
// the 100k- and 1M-peer scale-up scenarios the worker pool exists for.
// Each scenario is measured for the strategies whose round loops differ
// most: partialTtl (index-first queries, TTL eviction) and indexAll
// (proactive updates, no eviction); the 1M scenario runs partialTtl only
// to keep construction cost and CI memory bounded.
//
// Besides the stdout table, the bench emits a machine-readable JSON
// baseline (--json=<path>; defaults to BENCH_roundloop.json for
// full-budget runs and BENCH_roundloop_smoke.json for reduced-budget
// ones, so smoke runs can't clobber the committed baseline) so the
// rounds/sec trajectory accumulates across PRs; CI runs this binary in
// Release (-O2) smoke mode at --sim-threads=1 and --sim-threads=4 and
// uploads both JSONs so the scaling ratio is tracked per commit.
//
// Reading the --sim-threads axis: speedup only appears when the host
// actually has the cores (the committed baseline was recorded on a
// single-CPU container, where 4 threads measuring ~parity with 1 is the
// expected result -- it shows the pool adds no synchronization pathology
// when oversubscribed, not that sharding is free).  Compare thread
// counts from the same host; CI's two smoke JSONs give that per commit.
//
// Flags: the shared set (bench_common.h; --rounds=<n> below a scenario's
// default budget = smoke mode for it -- an explicit --rounds is capped at
// each scenario's default so a small-scenario budget cannot explode the
// 1M-peer run -- --full adds the paper-scale scenario, --json=<path>
// overrides the baseline output path).  --phase-times enables the
// opt-in round.phase.*.ms series and prints a per-phase wall-clock
// breakdown plus a serial_fraction column ((plan + publish + drain) /
// total, the engine's Amdahl floor) -- the tool for spotting which
// serial remainder dominates at a given scale.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/pdht_system.h"
#include "stats/table_writer.h"

namespace {

using pdht::TableWriter;
using pdht::bench::BenchFlags;
using pdht::core::Strategy;
using pdht::core::SystemConfig;

constexpr uint64_t kSeed = 12345;

struct Scenario {
  std::string name;
  SystemConfig config;     ///< strategy is patched per measurement.
  uint64_t default_rounds; ///< timed rounds at the full budget.
  std::vector<Strategy> strategies = {Strategy::kPartialTtl,
                                      Strategy::kIndexAll};
  uint64_t min_warmup = 10;  ///< lowered for the scale-up scenarios,
                             ///< where construction dominates anyway.
};

// Table 1 at 1/14 scale: 20000/14 peers, 40000/14 keys; stor and repl
// halved from the paper values so capacity pressure per peer matches the
// scaled key population.  Churn on: stale routing entries and rejoin pulls
// belong to the hot path being measured.
SystemConfig Scale14Config() {
  SystemConfig c;
  c.params.num_peers = 1428;
  c.params.keys = 2857;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 10.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.churn.enabled = true;
  c.seed = kSeed;
  return c;
}

SystemConfig Scale50Config() {
  SystemConfig c = pdht::bench::ScaledBaseConfig();
  c.churn.enabled = true;
  c.seed = kSeed;
  return c;
}

SystemConfig FullScaleConfig() {
  SystemConfig c;  // paper defaults: 20000 peers / 40000 keys
  c.params.f_qry = 1.0 / 30.0;
  c.churn.enabled = true;
  c.seed = kSeed;
  return c;
}

// At 100k+ peers the paper's unstructured-search settings are unusable
// for a throughput bench: a miss floods the whole graph (O(peers)
// messages), so one cold-index round costs minutes.  The scale-up
// scenarios bound the walk budget and disable the flood fallback --
// they measure the round loop's mechanics at scale, not the paper's
// search-cost economics (that is bench_fig*/bench_table1 territory).
void BoundUnstructuredSearch(SystemConfig& c) {
  c.walk.num_walkers = 16;
  c.walk.max_steps_per_walker = 128;
  c.walk.flood_fallback = false;
}

// 5x the paper's peer population with the paper's 2-keys-per-peer ratio;
// per-peer storage/replication at the 1/14-scale values.  This is the
// first rung of the ROADMAP's millions-of-peers ladder and the scale at
// which the sharded engine's SoA/arena layout starts to matter.
SystemConfig Scale100kConfig() {
  SystemConfig c;
  c.params.num_peers = 100000;
  c.params.keys = 200000;
  c.params.stor = 50;
  c.params.repl = 25;
  c.params.f_qry = 1.0 / 100.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.churn.enabled = true;
  c.seed = kSeed;
  BoundUnstructuredSearch(c);
  return c;
}

// The 1M-peer target scenario: ~1.5 GB resident (index arenas, content
// tables, ~915k DHT members' routing state), ~8 s construction, well
// under a CI runner's memory.  Query rate is per-peer, so 1/1000 still
// drives 1000 queries through the engine every round; storage and
// replication are kept moderate to bound the arena footprint.
SystemConfig Scale1MConfig() {
  SystemConfig c;
  c.params.num_peers = 1000000;
  c.params.keys = 2000000;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 1000.0;
  c.params.f_upd = 1.0 / 3600.0;
  c.churn.enabled = true;
  c.seed = kSeed;
  BoundUnstructuredSearch(c);
  return c;
}

/// The round loop's instrumented phases, in actor order (must match the
/// EnablePhaseTiming list in core/pdht_system.cc).
constexpr const char* kPhaseNames[] = {"churn",  "maint",   "plan",
                                       "query",  "publish", "update",
                                       "evict",  "drain"};
constexpr size_t kNumPhases = sizeof(kPhaseNames) / sizeof(kPhaseNames[0]);

/// Phases that still hold serial work in the round engine.  plan and
/// publish keep a serial remainder (prefix sum, the order-sensitive
/// publish slice) and drain falls back to serial whenever a batch holds
/// an unkeyed or cancelled event, so their combined share of the round is
/// the engine's Amdahl floor.  Computed from the same round.phase.*.ms
/// means the breakdown table shows.
constexpr const char* kSerialPhases[] = {"plan", "publish", "drain"};

double SerialFraction(const double (&phase_ms)[kNumPhases]) {
  double total = 0.0;
  double serial = 0.0;
  for (size_t p = 0; p < kNumPhases; ++p) {
    total += phase_ms[p];
    for (const char* name : kSerialPhases) {
      if (std::string(kPhaseNames[p]) == name) serial += phase_ms[p];
    }
  }
  return total > 0.0 ? serial / total : 0.0;
}

struct Measurement {
  std::string scenario;
  std::string strategy;
  uint64_t peers = 0;
  uint32_t sim_threads = 1;
  uint64_t warmup = 0;
  uint64_t rounds = 0;
  double seconds = 0.0;
  double rounds_per_sec = 0.0;
  double msgs_per_round = 0.0;
  /// Mean ms/round per phase over the timed window (--phase-times only).
  bool has_phases = false;
  double phase_ms[kNumPhases] = {};
  /// (plan + publish + drain) / total phase time: the serial share of the
  /// round.  0 when phases were not recorded.
  double serial_fraction = 0.0;
  /// Scenarios have different default budgets, so smoke (reduced budget,
  /// shape checks informational) is tracked per measurement, not in the
  /// shared flags.
  bool smoke = false;
};

Measurement MeasureOne(const Scenario& sc, Strategy strategy,
                       uint32_t sim_threads, uint64_t rounds,
                       bool phase_times) {
  SystemConfig config = sc.config;
  config.strategy = strategy;
  config.sim_threads = sim_threads;
  config.phase_timing = phase_times;
  pdht::core::PdhtSystem system(config);

  Measurement m;
  m.scenario = sc.name;
  m.strategy = pdht::core::StrategyName(strategy);
  m.peers = config.params.num_peers;
  m.sim_threads = sim_threads;
  // Warm up past the transient (partialTtl index fill, churn mixing) so
  // the timed window measures the steady-state loop.
  m.warmup = std::max<uint64_t>(sc.min_warmup, rounds / 5);
  m.rounds = rounds;
  system.RunRounds(m.warmup);

  uint64_t msgs_before = system.network().TotalMessages();
  auto t0 = std::chrono::steady_clock::now();
  system.RunRounds(rounds);
  auto t1 = std::chrono::steady_clock::now();
  uint64_t msgs_after = system.network().TotalMessages();

  m.seconds = std::chrono::duration<double>(t1 - t0).count();
  m.rounds_per_sec =
      m.seconds > 0.0 ? static_cast<double>(rounds) / m.seconds : 0.0;
  m.msgs_per_round = static_cast<double>(msgs_after - msgs_before) /
                     static_cast<double>(rounds);
  if (phase_times) {
    m.has_phases = true;
    for (size_t p = 0; p < kNumPhases; ++p) {
      const std::string name =
          pdht::sim::RoundEngine::PhaseSeriesName(kPhaseNames[p]);
      // Tail over the timed window only: warmup rounds are in the series
      // too, but the steady-state mean is what the breakdown should show.
      m.phase_ms[p] = system.engine().Series(name).TailMean(rounds);
    }
    m.serial_fraction = SerialFraction(m.phase_ms);
  }
  return m;
}

bool WriteJson(const std::string& path,
               const std::vector<Measurement>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
#ifdef NDEBUG
  const char* build = "optimized";
#else
  const char* build = "debug";
#endif
  std::fprintf(f, "{\n  \"bench\": \"roundloop\",\n");
  std::fprintf(f, "  \"build\": \"%s\",\n", build);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(kSeed));
  std::fprintf(f, "  \"scenarios\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const Measurement& m = results[i];
    std::fprintf(f,
                 "    {\"scenario\": \"%s\", \"strategy\": \"%s\", "
                 "\"peers\": %llu, \"sim_threads\": \"%u\", "
                 "\"warmup_rounds\": %llu, "
                 "\"timed_rounds\": %llu, \"smoke\": %s, "
                 "\"seconds\": %.6f, "
                 "\"rounds_per_sec\": %.2f, \"msgs_per_round\": %.2f, "
                 "\"serial_fraction\": %.4f}%s\n",
                 m.scenario.c_str(), m.strategy.c_str(),
                 static_cast<unsigned long long>(m.peers),
                 m.sim_threads,
                 static_cast<unsigned long long>(m.warmup),
                 static_cast<unsigned long long>(m.rounds),
                 m.smoke ? "true" : "false", m.seconds,
                 m.rounds_per_sec, m.msgs_per_round, m.serial_fraction,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = pdht::bench::ParseBenchFlags(argc, argv);

  pdht::bench::PrintHeader(
      "round-loop throughput: rounds/sec over a --sim-threads axis "
      "(scaled Table 1 + 100k/1M scale-up scenarios, churn on)",
      "hot-path baseline; perf trajectory artifact BENCH_roundloop.json");

  std::vector<Scenario> scenarios = {
      {"scale_1_14", Scale14Config(), 400},
      {"scale_1_50", Scale50Config(), 1000},
      // Scale-up rungs: fewer timed rounds (a 1M round costs ~0.4 s
      // even with bounded walks), tiny warmup, partialTtl only at 1M.
      {"scale_100k", Scale100kConfig(), 60,
       {Strategy::kPartialTtl, Strategy::kIndexAll}, 10},
      {"scale_1m", Scale1MConfig(), 10, {Strategy::kPartialTtl}, 2},
  };
  if (flags.full) {
    scenarios.push_back({"full_scale", FullScaleConfig(), 50});
  }

  std::vector<Measurement> results;
  for (const Scenario& sc : scenarios) {
    for (Strategy strategy : sc.strategies) {
      // Cap an explicit --rounds at the scenario default so one smoke
      // budget fits every scale (100 timed rounds at 1M peers would run
      // for hours); below-default budgets mark the measurement smoke.
      uint64_t rounds = flags.rounds == 0
                            ? sc.default_rounds
                            : std::min(flags.rounds, sc.default_rounds);
      for (uint32_t sim_threads : flags.sim_threads) {
        results.push_back(MeasureOne(sc, strategy, sim_threads, rounds,
                                     flags.phase_times));
        results.back().smoke = rounds < sc.default_rounds;
        std::printf("measured %s/%s @%u threads: %.1f rounds/s\n",
                    results.back().scenario.c_str(),
                    results.back().strategy.c_str(),
                    results.back().sim_threads,
                    results.back().rounds_per_sec);
      }
    }
  }

  TableWriter table({"scenario", "strategy", "peers", "sim threads",
                     "timed rounds", "seconds", "rounds/sec",
                     "msgs/round"});
  for (const Measurement& m : results) {
    table.AddRow({m.scenario, m.strategy, std::to_string(m.peers),
                  std::to_string(m.sim_threads), std::to_string(m.rounds),
                  TableWriter::FormatDouble(m.seconds, 4),
                  TableWriter::FormatDouble(m.rounds_per_sec, 5),
                  TableWriter::FormatDouble(m.msgs_per_round, 5)});
  }
  pdht::bench::EmitTable(table, flags.csv);

  if (flags.phase_times) {
    // Per-phase wall-clock breakdown (mean ms/round over the timed
    // window).  plan, publish and drain carry the engine's serial
    // remainders (prefix sum, the order-sensitive publish slice, the
    // serial-fallback drain path); serial_frac = their combined share of
    // the row, i.e. the Amdahl floor of the parallel phases.
    std::vector<std::string> cols = {"scenario", "strategy", "sim threads"};
    for (size_t p = 0; p < kNumPhases; ++p) {
      cols.push_back(std::string(kPhaseNames[p]) + " ms");
    }
    cols.push_back("serial_frac");
    TableWriter phases(cols);
    for (const Measurement& m : results) {
      if (!m.has_phases) continue;
      std::vector<std::string> row = {m.scenario, m.strategy,
                                      std::to_string(m.sim_threads)};
      for (size_t p = 0; p < kNumPhases; ++p) {
        row.push_back(TableWriter::FormatDouble(m.phase_ms[p], 4));
      }
      row.push_back(TableWriter::FormatDouble(m.serial_fraction, 4));
      phases.AddRow(row);
    }
    std::printf("per-phase wall clock (mean ms/round, timed window):\n");
    std::printf("%s\n", phases.ToText().c_str());
  }

  // Default output path: full-budget runs refresh the committed baseline
  // name; reduced-budget runs get their own file so a casual smoke run
  // from the repo root cannot clobber the recorded full-budget numbers.
  std::string json_path = flags.json;
  if (json_path.empty()) {
    bool any_smoke = false;
    for (const Measurement& m : results) any_smoke |= m.smoke;
    json_path =
        any_smoke ? "BENCH_roundloop_smoke.json" : "BENCH_roundloop.json";
  }
  if (WriteJson(json_path, results)) {
    std::printf("json baseline written to %s\n", json_path.c_str());
  } else {
    std::printf("FAILED to write json baseline to %s\n", json_path.c_str());
    return 1;
  }

  // Shape check: every measured configuration actually simulated traffic.
  // Failures are fatal only for measurements that ran at their scenario's
  // full budget (per-measurement smoke semantics).
  bool full_budget_pass = true;
  for (const Measurement& m : results) {
    if (!(m.msgs_per_round > 0.0) || !(m.rounds_per_sec > 0.0)) {
      std::printf("SHAPE FAIL%s: %s/%s produced no traffic or no progress\n",
                  m.smoke ? " (smoke, informational)" : "",
                  m.scenario.c_str(), m.strategy.c_str());
      if (!m.smoke) full_budget_pass = false;
    }
  }
  return full_budget_pass ? 0 : 1;
}
