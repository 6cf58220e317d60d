#include "core/pdht_system.h"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace pdht::core {
namespace {

// A scaled-down scenario (same structure as Table 1, ~50x smaller) so the
// whole-system tests run in milliseconds.  cSUnstr = 400/10*1.8 = 72,
// full-index numActivePeers = 800*10/20 = 400.
model::ScenarioParams Scaled() {
  model::ScenarioParams p;
  p.num_peers = 400;
  p.keys = 800;
  p.stor = 20;
  p.repl = 10;
  p.alpha = 1.2;
  p.f_qry = 1.0 / 5.0;
  p.f_upd = 1.0 / 3600.0;
  p.env = 1.0 / 14.0;
  p.dup = 1.8;
  p.dup2 = 1.8;
  return p;
}

SystemConfig BaseConfig(Strategy s) {
  SystemConfig c;
  c.params = Scaled();
  c.strategy = s;
  c.churn.enabled = false;  // churn-specific tests enable it explicitly
  c.seed = 1234;
  return c;
}

TEST(SystemConfigTest, ValidatesScaledScenario) {
  EXPECT_EQ(BaseConfig(Strategy::kPartialTtl).Validate(), "");
}

TEST(SystemConfigTest, RejectsBadTtlScale) {
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  c.ttl_scale = 0.0;
  EXPECT_FALSE(c.Validate().empty());
}

TEST(SystemConfigTest, ConstructorThrowsOnOutOfRangeConfig) {
  // Validation must hold in every build type, not only where assert is
  // compiled in: an out-of-range thread count would otherwise size the
  // worker pool unchecked, and zero churn means would hang round 1 (every
  // session is 0 s long, so the churn model flips the same peer forever).
  std::vector<SystemConfig> bad;
  bad.push_back(BaseConfig(Strategy::kPartialTtl));
  bad.back().sim_threads = 300;
  bad.push_back(BaseConfig(Strategy::kPartialTtl));
  bad.back().churn.enabled = true;
  bad.back().churn.mean_online_s = 0.0;
  bad.back().churn.mean_offline_s = 0.0;
  bad.push_back(BaseConfig(Strategy::kPartialTtl));
  bad.back().churn.enabled = true;
  bad.back().churn.mean_offline_s = -1800.0;
  // NaN fails every ordered comparison, so a range check alone would let
  // it through into the derived TTL and the query rates.
  bad.push_back(BaseConfig(Strategy::kPartialTtl));
  bad.back().params.alpha = std::numeric_limits<double>::quiet_NaN();
  // Peer ids are 32-bit with the all-ones id reserved as "no peer"; the
  // system would otherwise truncate the count.  Validation must reject it
  // before any per-peer state is sized.
  bad.push_back(BaseConfig(Strategy::kPartialTtl));
  bad.back().params.num_peers = uint64_t{1} << 32;
  for (const SystemConfig& c : bad) {
    const std::string err = c.Validate();
    ASSERT_FALSE(err.empty());
    try {
      PdhtSystem sys(c);
      FAIL() << "expected std::invalid_argument for: " << err;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), err);
    }
  }
}

TEST(PdhtSystemTest, DerivesKeyTtlFromModel) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  EXPECT_GT(sys.EffectiveKeyTtl(), 1.0);
  // ttl_scale rescales it.
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  c.ttl_scale = 2.0;
  PdhtSystem sys2(c);
  EXPECT_NEAR(sys2.EffectiveKeyTtl(), 2.0 * sys.EffectiveKeyTtl(), 1e-6);
}

TEST(PdhtSystemTest, ExplicitKeyTtlWins) {
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  c.key_ttl = 77.0;
  PdhtSystem sys(c);
  EXPECT_DOUBLE_EQ(sys.EffectiveKeyTtl(), 77.0);
}

TEST(PdhtSystemTest, MembershipSizedByStrategy) {
  PdhtSystem all(BaseConfig(Strategy::kIndexAll));
  // Full index: 800 keys * 10 repl / 20 stor = 400 = whole population.
  EXPECT_EQ(all.DhtMemberCount(), 400u);

  PdhtSystem none(BaseConfig(Strategy::kNoIndex));
  EXPECT_EQ(none.DhtMemberCount(), 0u);

  PdhtSystem ideal(BaseConfig(Strategy::kPartialIdeal));
  EXPECT_GT(ideal.DhtMemberCount(), 0u);
  EXPECT_LE(ideal.DhtMemberCount(), 400u);
}

TEST(PdhtSystemTest, NoIndexStrategyUsesOnlyUnstructuredTraffic) {
  PdhtSystem sys(BaseConfig(Strategy::kNoIndex));
  sys.RunRounds(5);
  auto& counters = sys.engine().counters();
  EXPECT_GT(counters.SumWithPrefix("msg.unstructured."), 0u);
  EXPECT_EQ(counters.SumWithPrefix("msg.dht."), 0u);
  EXPECT_EQ(counters.SumWithPrefix("msg.maint."), 0u);
}

TEST(PdhtSystemTest, IndexAllAnswersEverythingFromIndex) {
  PdhtSystem sys(BaseConfig(Strategy::kIndexAll));
  sys.RunRounds(5);
  EXPECT_GT(sys.TailHitRate(5), 0.95);
  // The full key universe is resident (a handful of keys can lose replica
  // slots to per-peer capacity displacement; residency must stay ~ full).
  EXPECT_GT(sys.IndexedKeyCount(), 790u);
  // Broadcast fallbacks are at most a trickle.
  auto& counters = sys.engine().counters();
  EXPECT_LT(counters.SumWithPrefix("msg.unstructured."),
            counters.SumWithPrefix("msg.dht.") / 5 + 1);
}

TEST(PdhtSystemTest, IndexAllMaintenanceTrafficFlows) {
  PdhtSystem sys(BaseConfig(Strategy::kIndexAll));
  sys.RunRounds(10);
  EXPECT_GT(sys.engine().counters().SumWithPrefix("msg.maint."), 0u);
}

TEST(PdhtSystemTest, PartialIdealSplitsTraffic) {
  // At f = 1/5 every key clears fMin at this scale, so drop the load to
  // get a genuine partial index.
  SystemConfig c = BaseConfig(Strategy::kPartialIdeal);
  c.params.f_qry = 1.0 / 20.0;
  PdhtSystem sys(c);
  ASSERT_GT(sys.OracleMaxRank(), 0u);
  ASSERT_LT(sys.OracleMaxRank(), 800u);
  sys.RunRounds(10);
  auto& counters = sys.engine().counters();
  // Popular keys hit the DHT; unpopular ones broadcast.
  EXPECT_GT(counters.SumWithPrefix("msg.dht."), 0u);
  EXPECT_GT(counters.SumWithPrefix("msg.unstructured."), 0u);
}

TEST(PdhtSystemTest, PartialTtlStartsEmptyAndFills) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  EXPECT_EQ(sys.IndexedKeyCount(), 0u);
  sys.RunRounds(20);
  EXPECT_GT(sys.IndexedKeyCount(), 0u);
}

TEST(PdhtSystemTest, PartialTtlHitRateRises) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  sys.RunRounds(60);
  const auto& hits = sys.engine().Series(PdhtSystem::kSeriesHitRate);
  double early = hits.MeanOver(0, 5);
  double late = hits.TailMean(10);
  EXPECT_GT(late, early + 0.2);
  EXPECT_GT(late, 0.5);  // Zipf head keys become resident quickly
}

TEST(PdhtSystemTest, TtlQueryMissInsertsThenHits) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  uint64_t key = 42;
  QueryOutcome first = sys.ExecuteQuery(key);
  EXPECT_TRUE(first.found);
  EXPECT_FALSE(first.answered_from_index);
  EXPECT_TRUE(first.used_unstructured);
  QueryOutcome second = sys.ExecuteQuery(key);
  EXPECT_TRUE(second.found);
  EXPECT_TRUE(second.answered_from_index);
  EXPECT_FALSE(second.used_unstructured);
  EXPECT_LT(second.index_messages + second.unstructured_messages,
            first.index_messages + first.unstructured_messages);
}

TEST(PdhtSystemTest, ExecuteQueryAccountsEveryMessage) {
  // Each call's index + unstructured message split must add up to exactly
  // the traffic the network counted for it, on every query path.
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  auto run = [&sys](uint64_t key) {
    const uint64_t before = sys.network().TotalMessages();
    QueryOutcome out = sys.ExecuteQuery(key);
    EXPECT_EQ(out.index_messages + out.unstructured_messages,
              sys.network().TotalMessages() - before)
        << "key " << key;
    return out;
  };
  // Miss, then re-insertion: index lookup + walk + insert routing.
  const QueryOutcome miss = run(42);
  EXPECT_TRUE(miss.found);
  EXPECT_FALSE(miss.answered_from_index);
  EXPECT_TRUE(miss.used_unstructured);
  EXPECT_GT(miss.index_messages, 0u);
  EXPECT_GT(miss.unstructured_messages, 0u);
  // Hit: index traffic only.
  const QueryOutcome hit = run(42);
  EXPECT_TRUE(hit.answered_from_index);
  EXPECT_FALSE(hit.used_unstructured);
  EXPECT_GT(hit.index_messages, 0u);
  EXPECT_EQ(hit.unstructured_messages, 0u);
  // Every DHT member offline: the index is unreachable, so the query
  // degrades to a walk from an online non-member.
  for (net::PeerId m : sys.dht_overlay()->members()) {
    sys.network().SetOnline(m, false);
  }
  const QueryOutcome fallback = run(43);
  EXPECT_NE(fallback.origin, net::kInvalidPeer);
  EXPECT_FALSE(fallback.answered_from_index);
  EXPECT_TRUE(fallback.used_unstructured);
  EXPECT_EQ(fallback.index_messages, 0u);
  EXPECT_GT(fallback.unstructured_messages, 0u);
}

TEST(PdhtSystemTest, TtlEvictionPurgesIdleKeys) {
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  c.key_ttl = 3.0;  // very short TTL
  PdhtSystem sys(c);
  sys.ExecuteQuery(7);
  EXPECT_GT(sys.IndexedKeyCount(), 0u);
  // Run idle rounds (queries happen, but key 7 is unlikely to recur; use
  // rounds > ttl so eviction must fire for untouched keys).
  sys.RunRounds(10);
  // After 10 rounds with ttl 3, key 7's replicas have expired unless the
  // workload re-queried it; residency must be bounded by recent traffic.
  const auto& size = sys.engine().Series(PdhtSystem::kSeriesIndexSize);
  EXPECT_LT(size.TailMean(1), 800.0);
}

TEST(PdhtSystemTest, NoIndexQueriesNeverUseIndex) {
  PdhtSystem sys(BaseConfig(Strategy::kNoIndex));
  QueryOutcome out = sys.ExecuteQuery(5);
  EXPECT_TRUE(out.found);
  EXPECT_FALSE(out.answered_from_index);
  EXPECT_TRUE(out.used_unstructured);
  EXPECT_EQ(out.index_messages, 0u);
}

TEST(PdhtSystemTest, SeriesAreRecordedEveryRound) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  sys.RunRounds(7);
  for (const char* name :
       {PdhtSystem::kSeriesMsgTotal, PdhtSystem::kSeriesMsgDht,
        PdhtSystem::kSeriesMsgUnstructured, PdhtSystem::kSeriesMsgReplica,
        PdhtSystem::kSeriesMsgMaint, PdhtSystem::kSeriesHitRate,
        PdhtSystem::kSeriesIndexSize,
        PdhtSystem::kSeriesOnlineFraction}) {
    ASSERT_TRUE(sys.engine().HasSeries(name)) << name;
    EXPECT_EQ(sys.engine().Series(name).size(), 7u) << name;
  }
}

TEST(PdhtSystemTest, DeterministicAcrossRuns) {
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  PdhtSystem a(c);
  PdhtSystem b(c);
  a.RunRounds(10);
  b.RunRounds(10);
  EXPECT_DOUBLE_EQ(a.TailMessageRate(10), b.TailMessageRate(10));
  EXPECT_EQ(a.IndexedKeyCount(), b.IndexedKeyCount());
}

TEST(PdhtSystemTest, DifferentSeedsDiffer) {
  SystemConfig c1 = BaseConfig(Strategy::kPartialTtl);
  SystemConfig c2 = BaseConfig(Strategy::kPartialTtl);
  c2.seed = 999;
  PdhtSystem a(c1);
  PdhtSystem b(c2);
  a.RunRounds(5);
  b.RunRounds(5);
  EXPECT_NE(a.TailMessageRate(5), b.TailMessageRate(5));
}

TEST(PdhtSystemTest, ChurnKeepsSystemFunctional) {
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  c.churn.enabled = true;
  c.churn.mean_online_s = 120;
  c.churn.mean_offline_s = 60;
  PdhtSystem sys(c);
  sys.RunRounds(40);
  // Online fraction hovers near the stationary 2/3.
  double online = sys.engine()
                      .Series(PdhtSystem::kSeriesOnlineFraction)
                      .TailMean(10);
  EXPECT_NEAR(online, 2.0 / 3.0, 0.1);
  // Queries still succeed and populate the index.
  EXPECT_GT(sys.TailHitRate(10), 0.2);
  // Rejoin pulls happened.
  EXPECT_GT(sys.engine().counters().Value("msg.replica.pull"), 0u);
}

TEST(PdhtSystemTest, PGridBackendWorks) {
  SystemConfig c = BaseConfig(Strategy::kPartialTtl);
  c.backend = DhtBackend::kPGrid;
  PdhtSystem sys(c);
  sys.RunRounds(30);
  EXPECT_GT(sys.TailHitRate(10), 0.3);
  EXPECT_GT(sys.engine().counters().SumWithPrefix("msg.dht."), 0u);
}

TEST(PdhtSystemTest, PopularityShiftDropsThenRecoversHitRate) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  sys.RunRounds(50);
  double before = sys.TailHitRate(10);
  sys.ShiftPopularity();
  sys.RunRounds(3);
  const auto& hits = sys.engine().Series(PdhtSystem::kSeriesHitRate);
  double just_after = hits.MeanOver(50, 53);
  sys.RunRounds(60);
  double recovered = sys.TailHitRate(10);
  EXPECT_LT(just_after, before - 0.1);       // the shift hurt
  EXPECT_GT(recovered, just_after + 0.1);    // the index adapted
}

TEST(PdhtSystemTest, TimeoutCostingPricesFailedProbesWithoutTouchingCounts) {
  SystemConfig base = BaseConfig(Strategy::kPartialTtl);
  base.delivery_model = net::DeliveryModelKind::kLatency;
  base.proximity_routing = false;  // blind tables: count-stable baseline
  base.route_proximity = false;
  base.churn.enabled = true;  // failed probes need stale entries
  base.churn.mean_online_s = 600.0;
  base.churn.mean_offline_s = 120.0;

  SystemConfig timed = base;
  timed.timeout_costing = true;

  PdhtSystem plain(base);
  PdhtSystem priced(timed);
  plain.RunRounds(30);
  priced.RunRounds(30);

  // Timeout costing changed no routing decision: every message series is
  // bit-identical; only the latency axis moved.
  for (const char* series :
       {PdhtSystem::kSeriesMsgTotal, PdhtSystem::kSeriesMsgDht,
        PdhtSystem::kSeriesHitRate}) {
    const auto& a = plain.engine().Series(series);
    const auto& b = priced.engine().Series(series);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.at(i), b.at(i)) << series << " round " << i;
    }
  }
  EXPECT_GT(priced.network().TimeoutCount(), 0u);
  EXPECT_EQ(plain.network().TimeoutCount(), 0u);
  EXPECT_GT(priced.lookup_rtt_ms().mean(), plain.lookup_rtt_ms().mean());

  // The new per-round series and snapshot metrics are wired through.
  EXPECT_TRUE(priced.engine().HasSeries(PdhtSystem::kSeriesTimeoutRate));
  EXPECT_FALSE(plain.engine().HasSeries(PdhtSystem::kSeriesTimeoutRate));
  RunSnapshot snap = priced.Snapshot(10);
  EXPECT_GT(snap.latency.at(PdhtSystem::kMetricLookupTimeouts), 0.0);
  EXPECT_GT(snap.latency.at(PdhtSystem::kMetricLookupHopsMean), 0.0);
  EXPECT_GE(snap.latency.at(PdhtSystem::kMetricLookupHopsP95),
            snap.latency.at(PdhtSystem::kMetricLookupHopsMean));
}

TEST(PdhtSystemTest, RoutePnsLowersLookupRttOverTableOnlyPns) {
  SystemConfig table_only = BaseConfig(Strategy::kPartialTtl);
  table_only.delivery_model = net::DeliveryModelKind::kLatency;
  table_only.backend = DhtBackend::kKademlia;
  table_only.proximity_routing = true;
  table_only.route_proximity = false;

  SystemConfig with_route = table_only;
  with_route.route_proximity = true;

  PdhtSystem a(table_only);
  PdhtSystem b(with_route);
  a.RunRounds(40);
  b.RunRounds(40);
  ASSERT_GT(a.lookup_rtt_ms().count(), 100u);
  ASSERT_GT(b.lookup_rtt_ms().count(), 100u);
  EXPECT_LT(b.lookup_rtt_ms().mean(), a.lookup_rtt_ms().mean());
}

TEST(PdhtSystemTest, NodeAccessorsReportQueryStats) {
  PdhtSystem sys(BaseConfig(Strategy::kPartialTtl));
  sys.RunRounds(10);
  uint64_t total_queries = 0;
  for (uint32_t i = 0; i < 400; ++i) {
    total_queries += sys.NodeOf(i).queries_sent();
  }
  EXPECT_GT(total_queries, 0u);
}

}  // namespace
}  // namespace pdht::core
