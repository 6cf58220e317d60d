// Golden per-round series: proof that refactors of the round loop change
// the simulator's *cost*, not its *semantics*.
//
// The expected values below were recorded by running the exact
// configurations in GoldenConfig and printing every kSeries* series at
// full double precision.  The simulator must reproduce them bit-for-bit
// at every worker-thread count in kGoldenThreads: every counted message,
// every RNG draw and every eviction/order decision has to be identical
// for these to match over a churned 24-round run.
//
// Last re-recorded when the round loop became one engine (the
// plan/execute/publish engine, inline at one thread).  The recording was
// taken from that engine at sim_threads 4 *before* the old per-query
// serial loop was deleted, so the deletion itself is checked against it.
// The stream moved because queries are now planned per online peer from
// per-(seed, round, peer) streams and their index effects publish at the
// phase barrier; churn and online-fraction series did not move, and the
// indexAll maintenance series are unchanged.
//
// If a future change alters behaviour *intentionally* (new message type
// on a counted path, different routing decision), re-record and say so
// in the change description:
//   run a PdhtSystem at GoldenConfig(strategy) with sim_threads = 4 for
//   kGoldenRounds, print engine().Series(name) for each series with
//   %.17g, paste the values below, then confirm every case passes at
//   each entry of kGoldenThreads.
//
// Thread-count invariance beyond these two points (shard counts, the
// shuffled-publish audit, routing fingerprints) is gated by
// sharded_determinism_test.cc in this directory.

#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "core/pdht_system.h"
#include "exp/experiment.h"
#include "exp/parallel_runner.h"

namespace pdht::core {
namespace {

constexpr uint64_t kGoldenRounds = 24;

/// Worker-thread counts every golden case runs at; one recording serves
/// all of them.
constexpr uint32_t kGoldenThreads[] = {1, 4};

SystemConfig GoldenConfig(Strategy strategy) {
  SystemConfig c;
  c.params.num_peers = 200;
  c.params.keys = 400;
  c.params.stor = 20;
  c.params.repl = 10;
  c.params.f_qry = 1.0 / 5.0;
  c.params.f_upd = 1.0 / 20.0;  // visible proactive-update traffic
  c.strategy = strategy;
  c.churn.enabled = true;  // exercise probe failures, repairs, rejoins
  c.churn.mean_online_s = 600.0;
  c.churn.mean_offline_s = 120.0;
  c.seed = 987654321;
  return c;
}

struct GoldenSeries {
  const char* name;
  std::vector<double> values;
};

void ExpectGolden(Strategy strategy, const std::vector<GoldenSeries>& golden,
                  const std::function<void(SystemConfig&)>& patch = {}) {
  for (uint32_t threads : kGoldenThreads) {
    SystemConfig config = GoldenConfig(strategy);
    config.sim_threads = threads;
    if (patch) patch(config);
    PdhtSystem system(config);
    system.RunRounds(kGoldenRounds);
    for (const GoldenSeries& g : golden) {
      ASSERT_TRUE(system.engine().HasSeries(g.name)) << g.name;
      const auto& ts = system.engine().Series(g.name);
      ASSERT_EQ(ts.size(), g.values.size()) << g.name;
      for (size_t i = 0; i < g.values.size(); ++i) {
        // Exact equality on purpose: these are integer message counts and
        // deterministically derived ratios, and "bit-identical" is the
        // claim under test.
        EXPECT_EQ(ts.at(i), g.values[i])
            << g.name << " diverged at round " << i << " (sim_threads "
            << threads << ")";
      }
    }
  }
}

/// The partialTtl golden recording, shared by the plain run and the
/// delivery-model variants below.
const std::vector<GoldenSeries>& PartialTtlGolden() {
  static const std::vector<GoldenSeries> golden = {
      {PdhtSystem::kSeriesMsgTotal,
       {6198, 5869, 3679, 1218, 3252,
        1182, 3058, 2355, 3325, 1794,
        852, 4347, 1117, 1096, 935,
        644, 1043, 1956, 888, 1123,
        643, 2779, 1893, 1843}},
      {PdhtSystem::kSeriesMsgDht,
       {544, 363, 343, 302, 255,
        268, 256, 346, 290, 200,
        226, 277, 277, 279, 287,
        220, 239, 276, 273, 310,
        193, 264, 276, 297}},
      {PdhtSystem::kSeriesMsgUnstructured,
       {3923, 4567, 2631, 373, 2379,
        245, 2242, 1302, 2402, 1139,
        173, 3418, 312, 291, 86,
        79, 295, 1209, 86, 249,
        86, 2077, 1145, 1023}},
      {PdhtSystem::kSeriesMsgReplica,
       {1656, 864, 630, 468, 468,
        594, 486, 632, 558, 306,
        378, 576, 452, 450, 414,
        270, 432, 396, 380, 488,
        288, 360, 396, 378}},
      {PdhtSystem::kSeriesMsgMaint,
       {75, 75, 75, 75, 150,
        75, 74, 75, 75, 149,
        75, 76, 76, 76, 148,
        75, 77, 75, 149, 76,
        76, 78, 76, 145}},
      {PdhtSystem::kSeriesHitRate,
       {0, 0.59999999999999998, 0.65853658536585369,
        0.77500000000000002, 0.78947368421052633,
        0.82051282051282048, 0.73529411764705888, 0.81632653061224492,
        0.74358974358974361, 0.90909090909090906,
        0.88571428571428568, 0.79069767441860461, 0.80952380952380953,
        0.84615384615384615, 0.88636363636363635,
        0.91176470588235292, 0.8571428571428571, 0.90476190476190477,
        0.91891891891891897, 0.89130434782608692,
        0.93548387096774188, 0.87804878048780488, 0.93333333333333335,
        0.95833333333333337}},
      {PdhtSystem::kSeriesIndexSize,
       {24, 38, 51, 59, 67,
        74, 82, 90, 100, 103,
        107, 114, 122, 128, 133,
        136, 141, 145, 147, 152,
        154, 159, 162, 164}},
      {PdhtSystem::kSeriesOnlineFraction,
       {0.81499999999999995, 0.81499999999999995, 0.81000000000000005,
        0.81000000000000005, 0.81000000000000005,
        0.81000000000000005, 0.80500000000000005, 0.81000000000000005,
        0.81000000000000005, 0.80500000000000005,
        0.80500000000000005, 0.80500000000000005, 0.81000000000000005,
        0.81000000000000005, 0.80500000000000005,
        0.80500000000000005, 0.81000000000000005, 0.81000000000000005,
        0.81999999999999995, 0.81499999999999995,
        0.81000000000000005, 0.80500000000000005, 0.80000000000000004,
        0.80000000000000004}},
  };
  return golden;
}

TEST(GoldenSeriesTest, PartialTtlRunIsBitIdenticalToRecording) {
  ExpectGolden(Strategy::kPartialTtl, PartialTtlGolden());
}

// --- Delivery-model variants (the PR 4 refactor's core claim) ----------
//
// Network now routes every send through a pluggable DeliveryModel.  The
// default ImmediateDelivery must be a true no-op -- the same golden
// series, bit for bit -- and LatencyDelivery must change *when* handlers
// run (and what latency is measured) without perturbing a single counted
// message or RNG draw.

TEST(GoldenSeriesTest, ExplicitImmediateDeliveryMatchesGolden) {
  ExpectGolden(Strategy::kPartialTtl, PartialTtlGolden(),
               [](SystemConfig& c) {
                 c.delivery_model = net::DeliveryModelKind::kImmediate;
               });
}

TEST(GoldenSeriesTest, LatencyDeliveryKeepsMessageCountsBitIdentical) {
  // Deferred delivery with proximity routing off: the coordinate space is
  // a pure hash (no Rng stream consumed) and deliveries have no behaviour
  // feedback, so every message-count and hit-rate series must equal the
  // immediate-mode golden recording exactly, while the latency axis
  // opens up (non-empty lookup RTT histogram).
  ExpectGolden(Strategy::kPartialTtl, PartialTtlGolden(),
               [](SystemConfig& c) {
                 c.delivery_model = net::DeliveryModelKind::kLatency;
                 c.proximity_routing = false;
               });
  SystemConfig config = GoldenConfig(Strategy::kPartialTtl);
  config.delivery_model = net::DeliveryModelKind::kLatency;
  config.proximity_routing = false;
  PdhtSystem system(config);
  system.RunRounds(kGoldenRounds);
  EXPECT_GT(system.lookup_rtt_ms().count(), 0u);
  EXPECT_GT(system.lookup_rtt_ms().mean(), 0.0);
  EXPECT_TRUE(system.engine().HasSeries(PdhtSystem::kSeriesDeferredRate));
  // The deferred deliveries really went through the boundary drain.
  EXPECT_GE(system.engine().total_events_run(),
            system.network().DeferredCount());
}

TEST(GoldenSeriesTest, LatencyDeliveryIsDeterministicAcrossThreadCounts) {
  // Same seed => identical latency histograms (surfaced as the
  // lookup.rtt.* / lookup.stretch metrics) no matter how many experiment
  // threads executed the cells.
  exp::ExperimentSpec spec;
  spec.name = "latency_determinism";
  spec.base = GoldenConfig(Strategy::kPartialTtl);
  spec.base.delivery_model = net::DeliveryModelKind::kLatency;
  spec.base.backend = DhtBackend::kKademlia;
  spec.rounds = 12;
  spec.tail = 4;
  spec.seeds_per_cell = 2;
  exp::Axis prox{"proximity",
                 {{"blind",
                   [](SystemConfig& c) { c.proximity_routing = false; }},
                  {"pns",
                   [](SystemConfig& c) { c.proximity_routing = true; }}}};
  spec.axes = {prox};

  exp::ParallelRunner one({1});
  exp::ParallelRunner four({4});
  auto r1 = one.Run(spec);
  auto r4 = four.Run(spec);
  ASSERT_EQ(r1.size(), r4.size());
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].error, "");
    EXPECT_EQ(r1[i].metrics, r4[i].metrics) << "cell " << i;
    // The latency metrics are actually present and populated.
    ASSERT_TRUE(r1[i].metrics.count(PdhtSystem::kMetricLookupRttMean));
    EXPECT_GT(r1[i].metrics.at(PdhtSystem::kMetricLookupRttCount), 0.0);
  }
}

TEST(GoldenSeriesTest, IndexAllRunIsBitIdenticalToRecording) {
  const std::vector<GoldenSeries> golden = {
      {PdhtSystem::kSeriesMsgTotal,
       {1222, 1240, 1242, 1308, 1128,
        1009, 1066, 1250, 1068, 882,
        1160, 994, 1118, 997, 1213,
        967, 967, 1139, 1007, 1119,
        884, 1232, 1107, 1151}},
      {PdhtSystem::kSeriesMsgDht,
       {465, 447, 432, 390, 372,
        343, 329, 421, 348, 289,
        334, 347, 360, 331, 370,
        301, 299, 367, 335, 412,
        290, 391, 441, 448}},
      {PdhtSystem::kSeriesMsgUnstructured,
       {0, 0, 0, 0, 0,
        0, 0, 0, 0, 0,
        0, 0, 0, 0, 0,
        0, 0, 0, 0, 0,
        0, 0, 0, 0}},
      {PdhtSystem::kSeriesMsgReplica,
       {594, 630, 648, 594, 594,
        504, 576, 506, 558, 432,
        504, 486, 596, 504, 522,
        504, 506, 450, 508, 542,
        432, 522, 504, 542}},
      {PdhtSystem::kSeriesMsgMaint,
       {163, 163, 162, 324, 162,
        162, 161, 323, 162, 161,
        322, 161, 162, 162, 321,
        162, 162, 322, 164, 165,
        162, 319, 162, 161}},
      {PdhtSystem::kSeriesHitRate,
       {1, 1, 1,
        1, 1,
        1, 1, 1,
        1, 1,
        1, 1, 1,
        1, 1,
        1, 1, 1,
        1, 1,
        1, 1, 1,
        1}},
      {PdhtSystem::kSeriesIndexSize,
       {400, 400, 400, 400, 400,
        400, 400, 400, 400, 400,
        400, 400, 400, 400, 400,
        400, 400, 400, 400, 400,
        400, 400, 400, 400}},
      {PdhtSystem::kSeriesOnlineFraction,
       {0.81499999999999995, 0.81499999999999995, 0.81000000000000005,
        0.81000000000000005, 0.81000000000000005,
        0.81000000000000005, 0.80500000000000005, 0.81000000000000005,
        0.81000000000000005, 0.80500000000000005,
        0.80500000000000005, 0.80500000000000005, 0.81000000000000005,
        0.81000000000000005, 0.80500000000000005,
        0.80500000000000005, 0.81000000000000005, 0.81000000000000005,
        0.81999999999999995, 0.81499999999999995,
        0.81000000000000005, 0.80500000000000005, 0.80000000000000004,
        0.80000000000000004}},
  };
  ExpectGolden(Strategy::kIndexAll, golden);
}

}  // namespace
}  // namespace pdht::core
