// Determinism contract of the round engine: every recorded series and
// every snapshot metric is a pure function of (config, seed) -- the
// thread count and the shard count only choose how the same work is
// scheduled.
//
// The engine earns this by splitting parallel phases into serial PLAN
// (all main-stream Rng draws), parallel EXECUTE (per-task derived Rng
// streams, per-worker counter lanes, buffered mutations) and serial
// PUBLISH (order-sensitive effects replayed in global task order); see
// docs/architecture.md "Round engine".  These tests run the same
// configuration at several --sim-threads / --sim-shards settings and
// require bit-identical results, under both delivery models.  The
// golden-series recordings (golden_series_test.cc) pin the stream itself.
//
// The engine replaced a per-query serial loop that drew a different
// stream.  Its recorded tail aggregates are kept below as constants, and
// the engine is held to them within sanity bands: it must still simulate
// the same system.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/pdht_system.h"

namespace pdht::core {
namespace {

constexpr uint64_t kRounds = 24;
constexpr size_t kTail = 8;

SystemConfig BaseConfig(Strategy strategy) {
  SystemConfig c;
  c.params.num_peers = 200;
  c.params.keys = 400;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 5.0;
  c.params.f_upd = 1.0 / 20.0;
  c.strategy = strategy;
  c.churn.enabled = true;  // exercise rejoins + probe failures in-phase
  c.churn.mean_online_s = 600.0;
  c.churn.mean_offline_s = 120.0;
  c.seed = 987654321;
  return c;
}

/// Every per-round series plus the end-of-run snapshot, as plain values.
struct RunRecord {
  std::map<std::string, std::vector<double>> series;
  RunSnapshot snap;
  /// Order-sensitive hash over every member's routing table at the end
  /// of the run (0 when the backend doesn't implement it, and for
  /// kNoIndex).  The series above can't see a table whose *contents*
  /// differ but whose message counts happen to agree; this can.
  uint64_t fingerprint = 0;
};

RunRecord RunOnce(const SystemConfig& config) {
  PdhtSystem system(config);
  system.RunRounds(kRounds);
  RunRecord rec;
  for (const std::string& name : system.engine().SeriesNames()) {
    const auto& ts = system.engine().Series(name);
    std::vector<double>& out = rec.series[name];
    out.reserve(ts.size());
    for (size_t i = 0; i < ts.size(); ++i) out.push_back(ts.at(i));
  }
  rec.snap = system.Snapshot(kTail);
  if (system.dht_overlay() != nullptr) {
    rec.fingerprint = system.dht_overlay()->RoutingFingerprint();
  }
  return rec;
}

void ExpectIdentical(const RunRecord& a, const RunRecord& b,
                     const std::string& label) {
  ASSERT_EQ(a.series.size(), b.series.size()) << label;
  for (const auto& [name, values] : a.series) {
    auto it = b.series.find(name);
    ASSERT_NE(it, b.series.end()) << label << ": missing series " << name;
    ASSERT_EQ(values.size(), it->second.size()) << label << ": " << name;
    for (size_t i = 0; i < values.size(); ++i) {
      // Exact equality on purpose: bit-identical is the claim under test.
      EXPECT_EQ(values[i], it->second[i])
          << label << ": series " << name << " diverged at round " << i;
    }
  }
  EXPECT_EQ(a.snap.series_tail, b.snap.series_tail) << label;
  EXPECT_EQ(a.snap.index_keys, b.snap.index_keys) << label;
  EXPECT_EQ(a.snap.effective_key_ttl, b.snap.effective_key_ttl) << label;
  EXPECT_EQ(a.snap.dht_members, b.snap.dht_members) << label;
  EXPECT_EQ(a.snap.latency, b.snap.latency) << label;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << label << ": routing tables";
}

SystemConfig Sharded(SystemConfig c, uint32_t threads, uint32_t shards) {
  c.sim_threads = threads;
  c.sim_shards = shards;
  return c;
}

TEST(ShardedDeterminismTest, ImmediateThreadCountsAreBitIdentical) {
  // sim_shards pinned so the eviction partition is fixed; only the
  // worker count varies.
  const SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  RunRecord one = RunOnce(Sharded(base, 1, 4));
  RunRecord two = RunOnce(Sharded(base, 2, 4));
  RunRecord four = RunOnce(Sharded(base, 4, 4));
  ExpectIdentical(one, two, "immediate threads 1 vs 2");
  ExpectIdentical(one, four, "immediate threads 1 vs 4");
}

TEST(ShardedDeterminismTest, LatencyThreadCountsAreBitIdentical) {
  // Deferred delivery is the hard case: per-message latencies are
  // float-summed and histogrammed, so publish order must be exact --
  // lane buffers replay in global task order, not completion order.
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  base.delivery_model = net::DeliveryModelKind::kLatency;
  base.proximity_routing = false;
  RunRecord one = RunOnce(Sharded(base, 1, 4));
  RunRecord two = RunOnce(Sharded(base, 2, 4));
  RunRecord four = RunOnce(Sharded(base, 4, 4));
  ExpectIdentical(one, two, "latency threads 1 vs 2");
  ExpectIdentical(one, four, "latency threads 1 vs 4");
  // The latency axis is genuinely exercised, not trivially empty.
  EXPECT_GT(one.snap.latency.at(PdhtSystem::kMetricLookupRttCount), 0.0);
}

TEST(ShardedDeterminismTest, ShardCountsAreBitIdentical) {
  // The shard count partitions the eviction sweep; evicted-key effects
  // are commutative residency decrements, so any partition must produce
  // the same run.  Covers both delivery models.
  const SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  ExpectIdentical(RunOnce(Sharded(base, 2, 1)),
                  RunOnce(Sharded(base, 2, 4)),
                  "immediate shards 1 vs 4");
  SystemConfig lat = base;
  lat.delivery_model = net::DeliveryModelKind::kLatency;
  lat.proximity_routing = false;
  ExpectIdentical(RunOnce(Sharded(lat, 2, 1)),
                  RunOnce(Sharded(lat, 2, 4)),
                  "latency shards 1 vs 4");
}

TEST(ShardedDeterminismTest, UnstructuredOnlyStrategyIsThreadInvariant) {
  // kNoIndex runs pure random-walk queries -- the per-task Rng plus
  // per-worker searcher path with no DHT routing at all.
  const SystemConfig base = BaseConfig(Strategy::kNoIndex);
  ExpectIdentical(RunOnce(Sharded(base, 1, 4)),
                  RunOnce(Sharded(base, 4, 4)),
                  "noindex threads 1 vs 4");
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixChord) {
  // Sharded maintenance + parallel churn rejoins mutate routing tables
  // from worker threads; the fingerprint (an order-sensitive hash over
  // every finger/successor of every member) must be bit-identical across
  // the full threads x shards matrix.  Churn is on in BaseConfig, so
  // both the probe/repair path and the rejoin-rebuild path run.
  const SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  const RunRecord ref = RunOnce(Sharded(base, 1, 1));
  EXPECT_NE(ref.fingerprint, 0u);
  for (uint32_t threads : {2u, 4u}) {
    for (uint32_t shards : {1u, 4u}) {
      ExpectIdentical(ref, RunOnce(Sharded(base, threads, shards)),
                      "chord fp threads " + std::to_string(threads) +
                          " shards " + std::to_string(shards));
    }
  }
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixPGrid) {
  // P-Grid's sharded maintenance repairs reference lists from worker
  // threads (each task writes only its own member's refs; candidate
  // scans read the other members' frozen paths), and its churn rejoins
  // rebuild reference lists on worker threads too, each shuffling with
  // its member's per-peer stream.  The fingerprint hashes every path and
  // per-level reference list, so a single repair or rebuild landing in a
  // different slot at a different thread count would show.
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  base.backend = DhtBackend::kPGrid;
  const RunRecord ref = RunOnce(Sharded(base, 1, 1));
  EXPECT_NE(ref.fingerprint, 0u);
  for (uint32_t threads : {2u, 4u}) {
    for (uint32_t shards : {1u, 4u}) {
      ExpectIdentical(ref, RunOnce(Sharded(base, threads, shards)),
                      "pgrid fp threads " + std::to_string(threads) +
                          " shards " + std::to_string(shards));
    }
  }
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixCan) {
  // CAN's maintenance is probe-only (zones and neighbor lists are static
  // after SetMembers), so the fingerprint doubles as a check that the
  // parallel phase never mutates shared geometry.
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  base.backend = DhtBackend::kCan;
  const RunRecord ref = RunOnce(Sharded(base, 1, 1));
  EXPECT_NE(ref.fingerprint, 0u);
  for (uint32_t threads : {2u, 4u}) {
    for (uint32_t shards : {1u, 4u}) {
      ExpectIdentical(ref, RunOnce(Sharded(base, threads, shards)),
                      "can fp threads " + std::to_string(threads) +
                          " shards " + std::to_string(shards));
    }
  }
}

TEST(ShardedDeterminismTest, ShuffledPublishOrderIsBitIdentical) {
  // debug_shuffle_publish perturbs every *commutative* publish slice --
  // lane counter merges run last-to-first, the parallel per-origin stats
  // pass visits shards in reversed order -- while leaving the ordered
  // replay alone.  Bit-identical results prove the commutative/ordered
  // split is sound: nothing order-sensitive leaked into the shuffled
  // slices.  Covers both delivery models (deferred delivery additionally
  // routes boundary-drain drop tallies through the lanes).
  const SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  SystemConfig shuffled = base;
  shuffled.debug_shuffle_publish = true;
  ExpectIdentical(RunOnce(Sharded(base, 4, 4)),
                  RunOnce(Sharded(shuffled, 4, 4)),
                  "immediate shuffled publish");
  SystemConfig lat = base;
  lat.delivery_model = net::DeliveryModelKind::kLatency;
  lat.proximity_routing = false;
  SystemConfig lat_shuffled = lat;
  lat_shuffled.debug_shuffle_publish = true;
  ExpectIdentical(RunOnce(Sharded(lat, 4, 4)),
                  RunOnce(Sharded(lat_shuffled, 4, 4)),
                  "latency shuffled publish");
}

TEST(ShardedDeterminismTest, MaintenanceFingerprintMatrixKademlia) {
  // Kademlia's rejoin rebuild *draws* (bucket shuffles) run on worker
  // threads under per-peer derived streams -- the strongest test of the
  // parallel-rejoin stream discipline.  Covered under both delivery
  // models: with latency + PNS the bucket contents come from RTT sorts,
  // without it from Rng shuffles.
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  base.backend = DhtBackend::kKademlia;
  const RunRecord ref = RunOnce(Sharded(base, 1, 1));
  EXPECT_NE(ref.fingerprint, 0u);
  for (uint32_t threads : {2u, 4u}) {
    for (uint32_t shards : {1u, 4u}) {
      ExpectIdentical(ref, RunOnce(Sharded(base, threads, shards)),
                      "kademlia fp threads " + std::to_string(threads) +
                          " shards " + std::to_string(shards));
    }
  }
  SystemConfig lat = base;
  lat.delivery_model = net::DeliveryModelKind::kLatency;
  ExpectIdentical(RunOnce(Sharded(lat, 1, 4)),
                  RunOnce(Sharded(lat, 4, 4)),
                  "kademlia latency fp threads 1 vs 4");
}

TEST(ShardedDeterminismTest, ProactiveUpdatesAreThreadInvariant) {
  // kIndexAll exercises the sharded proactive-update actor (plan draws
  // ranks serially, lookups + flood costing run parallel, replica Puts
  // publish in task order) together with sharded maintenance.
  const SystemConfig base = BaseConfig(Strategy::kIndexAll);
  const RunRecord ref = RunOnce(Sharded(base, 1, 4));
  ExpectIdentical(ref, RunOnce(Sharded(base, 2, 4)),
                  "indexAll threads 1 vs 2");
  ExpectIdentical(ref, RunOnce(Sharded(base, 4, 4)),
                  "indexAll threads 1 vs 4");
  // Updates actually flowed: the replica-push series is non-trivial.
  EXPECT_GT(ref.snap.series_tail.at(PdhtSystem::kSeriesMsgReplica), 0.0);
  SystemConfig lat = base;
  lat.delivery_model = net::DeliveryModelKind::kLatency;
  lat.proximity_routing = false;
  ExpectIdentical(RunOnce(Sharded(lat, 1, 4)),
                  RunOnce(Sharded(lat, 4, 4)),
                  "indexAll latency threads 1 vs 4");
}

/// Tail aggregates (kTail rounds) of BaseConfig runs on the per-query
/// serial round loop that preceded the one-engine design, recorded before
/// that loop was deleted.  The engine must still simulate the same system,
/// so its aggregates are held to these within sanity bands.
struct LegacyAggregates {
  double hit_rate;
  double msg_total;
};
constexpr LegacyAggregates kLegacyPartialTtl = {0.89233383107174102,
                                                1281.125};
constexpr LegacyAggregates kLegacyPartialIdeal = {0.87952011630785809,
                                                  884.125};
constexpr LegacyAggregates kLegacyNoIndex = {0.0, 6501.375};

TEST(ShardedDeterminismTest, ShardedEngineMatchesSerialAggregates) {
  // The engine's stream differs from the legacy serial stream by design,
  // but it must still simulate the same system: sanity-band checks that
  // catch gross divergence (e.g. dropped queries, double-counted hits).
  const SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  RunRecord sharded = RunOnce(Sharded(base, 4, 16));
  const double serial_hit = kLegacyPartialTtl.hit_rate;
  const double sharded_hit =
      sharded.snap.series_tail.at(PdhtSystem::kSeriesHitRate);
  EXPECT_NEAR(serial_hit, sharded_hit, 0.15);
  const double serial_msg = kLegacyPartialTtl.msg_total;
  const double sharded_msg =
      sharded.snap.series_tail.at(PdhtSystem::kSeriesMsgTotal);
  EXPECT_LT(std::abs(serial_msg - sharded_msg),
            0.5 * std::max(serial_msg, sharded_msg));
}

TEST(ShardedDeterminismTest, CountingSortPlannerMatchesLegacyStatistics) {
  // The counting-sort planner replaced the legacy serial plan (one
  // binomial count draw + one origin draw + one key draw per query, all
  // off the main stream) with per-peer floor(rate) + Bernoulli counts and
  // per-peer key streams.  Same aggregate model: expected queries per
  // round = num_peers * f_qry either way (the per-peer rate spreads it
  // over the online population), keys Zipf(alpha) either way, origins
  // uniform over online peers either way (each online peer issues its
  // own queries).  Comparing tail aggregates against the recorded legacy
  // ones checks the planner against the old statistics on live runs.
  // Wider coverage than the aggregate test above: every strategy's
  // dispatch path.
  const std::pair<Strategy, LegacyAggregates> cases[] = {
      {Strategy::kPartialTtl, kLegacyPartialTtl},
      {Strategy::kPartialIdeal, kLegacyPartialIdeal},
      {Strategy::kNoIndex, kLegacyNoIndex},
  };
  for (const auto& [strategy, legacy] : cases) {
    const SystemConfig base = BaseConfig(strategy);
    RunRecord sharded = RunOnce(Sharded(base, 4, 4));
    const double serial_msg = legacy.msg_total;
    const double sharded_msg =
        sharded.snap.series_tail.at(PdhtSystem::kSeriesMsgTotal);
    EXPECT_GT(sharded_msg, 0.0) << static_cast<int>(strategy);
    EXPECT_LT(std::abs(serial_msg - sharded_msg),
              0.5 * std::max(serial_msg, sharded_msg))
        << "strategy " << static_cast<int>(strategy);
    const double serial_hit = legacy.hit_rate;
    const double sharded_hit =
        sharded.snap.series_tail.at(PdhtSystem::kSeriesHitRate);
    EXPECT_NEAR(serial_hit, sharded_hit, 0.2)
        << "strategy " << static_cast<int>(strategy);
  }
}

}  // namespace
}  // namespace pdht::core
