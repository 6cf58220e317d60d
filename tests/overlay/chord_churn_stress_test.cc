// Stress: the Chord overlay + probing maintenance under sustained heavy
// churn.  Verifies the liveness properties the PDHT relies on: ring
// invariants never break, lookups from online members keep succeeding,
// staleness stays bounded, and message accounting stays consistent.

#include <gtest/gtest.h>

#include "overlay/dht/chord.h"
#include "sim/churn.h"

namespace pdht::overlay {
namespace {

class ChordChurnStress : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChordChurnStress, SurvivesSustainedChurn) {
  const uint64_t seed = GetParam();
  constexpr uint32_t kN = 300;
  CounterRegistry counters;
  net::Network net(&counters);
  ChordOverlay chord(&net, Rng(seed));
  std::vector<net::PeerId> members;
  for (uint32_t i = 0; i < kN; ++i) {
    members.push_back(i);
    net.SetOnline(i, true);
  }
  chord.SetMembers(members);

  sim::ChurnConfig cc;
  cc.mean_online_s = 80;
  cc.mean_offline_s = 40;
  sim::ChurnModel churn(kN, cc, Rng(seed + 2));
  struct Ctx {
    net::Network* net;
    ChordOverlay* chord;
  } ctx{&net, &chord};
  churn.AddObserver(
      [](void* vctx, uint32_t peer, bool online, double) {
        auto* c = static_cast<Ctx*>(vctx);
        c->net->SetOnline(peer, online);
        if (online) c->chord->RefreshNode(peer);
      },
      &ctx);
  for (uint32_t i = 0; i < kN; ++i) net.SetOnline(i, churn.IsOnline(i));

  Rng pick(seed + 3);
  uint64_t lookups = 0;
  uint64_t successes = 0;
  for (int round = 1; round <= 200; ++round) {
    churn.AdvanceTo(static_cast<double>(round));
    chord.RunMaintenanceRound(/*env=*/1.0);
    ASSERT_EQ(chord.CheckInvariants(), "") << "round " << round;
    // A few lookups per round from random online members.
    for (int q = 0; q < 3; ++q) {
      net::PeerId origin = chord.RandomOnlineMember(pick);
      if (origin == net::kInvalidPeer) continue;
      ++lookups;
      LookupResult r = chord.Lookup(origin, pick.Next());
      if (r.success) ++successes;
    }
    if (round % 50 == 0) {
      EXPECT_LT(chord.StaleFingerFraction(), 0.6) << "round " << round;
    }
  }
  ASSERT_GT(lookups, 300u);
  // Under 1/3 downtime with aggressive probing, the overwhelming majority
  // of lookups must terminate at a live responsible peer or its live
  // successor.
  EXPECT_GT(static_cast<double>(successes) / static_cast<double>(lookups),
            0.9)
      << "successes " << successes << "/" << lookups;
  // Probe traffic really flowed and was accounted.
  EXPECT_GT(counters.Value("msg.maint.probe"), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChordChurnStress,
                         ::testing::Values(11, 22, 33, 44));

TEST(ChordChurnStressTest, MassDepartureThenRecovery) {
  constexpr uint32_t kN = 200;
  CounterRegistry counters;
  net::Network net(&counters);
  ChordOverlay chord(&net, Rng(7));
  std::vector<net::PeerId> members;
  for (uint32_t i = 0; i < kN; ++i) {
    members.push_back(i);
    net.SetOnline(i, true);
  }
  chord.SetMembers(members);

  // Half the network vanishes at once.
  for (uint32_t i = 0; i < kN; i += 2) net.SetOnline(i, false);
  // Lookups still work thanks to routing-around + successor scanning.
  Rng pick(9);
  int ok = 0;
  for (int q = 0; q < 50; ++q) {
    net::PeerId origin = chord.RandomOnlineMember(pick);
    ASSERT_NE(origin, net::kInvalidPeer);
    if (chord.Lookup(origin, pick.Next()).success) ++ok;
  }
  EXPECT_GT(ok, 40);
  // Maintenance grinds staleness down.
  for (int r = 0; r < 40; ++r) chord.RunMaintenanceRound(2.0);
  double stale_after = chord.StaleFingerFraction();
  EXPECT_LT(stale_after, 0.2);
  // Everyone returns; rejoin refreshes restore a fully live ring.
  for (uint32_t i = 0; i < kN; i += 2) {
    net.SetOnline(i, true);
    chord.RefreshNode(i);
  }
  for (int r = 0; r < 20; ++r) chord.RunMaintenanceRound(2.0);
  EXPECT_LT(chord.StaleFingerFraction(), 0.05);
  int ok2 = 0;
  for (int q = 0; q < 50; ++q) {
    net::PeerId origin = chord.RandomOnlineMember(pick);
    if (chord.Lookup(origin, pick.Next()).success) ++ok2;
  }
  EXPECT_EQ(ok2, 50);
}

}  // namespace
}  // namespace pdht::overlay
