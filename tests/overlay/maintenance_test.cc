// Probe-based routing maintenance (paper Section 3.3.1, Eq. 8), checked
// against every backend in the overlay registry: each online member
// spends env probes per routing entry per round (fractional budgets
// carry), nothing is sent at env 0 or by offline members, the probes a
// round reports are the probes on the wire, and stale entries found by
// probing are repaired for free.  A newly registered overlay is covered
// with zero test edits.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "overlay/dht/chord.h"
#include "overlay/structured_overlay.h"

namespace pdht::overlay {
namespace {

class MaintenanceContract
    : public ::testing::TestWithParam<core::DhtBackend> {
 protected:
  MaintenanceContract() : net(&counters) {}

  void Build(uint32_t n, uint64_t seed) {
    std::vector<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
      net.SetOnline(i, true);
    }
    OverlayParams op;
    op.repl = 4;
    op.num_peers = n;
    ov = MakeOverlay(GetParam(), &net, op, Rng(seed));
    ASSERT_NE(ov, nullptr);
    ov->SetMembers(members);
  }

  /// Routing entries summed over online members: one round's probe
  /// volume at env 1.
  double OnlineTableEntries() const {
    double total = 0.0;
    const std::vector<net::PeerId>& mem = ov->members();
    for (size_t slot = 0; slot < mem.size(); ++slot) {
      if (net.IsOnline(mem[slot])) {
        total += static_cast<double>(ov->MemberTableSize(slot));
      }
    }
    return total;
  }

  /// CAN zones are static: probes detect offline neighbors but never
  /// repair them.  Every other backend repairs a stale entry whenever a
  /// live replacement exists (Chord always finds one; a Kademlia bucket
  /// or P-Grid subtree can be wholly offline or already referenced).
  bool Repairs() const { return GetParam() != core::DhtBackend::kCan; }

  CounterRegistry counters;
  net::Network net;
  std::unique_ptr<StructuredOverlay> ov;
};

TEST_P(MaintenanceContract, ProbeVolumeMatchesEnvBudget) {
  // Per member per round the prober sends env * tableSize messages; the
  // carried fractional budget makes the R-round total exact up to one
  // unspent probe per member.
  constexpr uint32_t kN = 128;
  constexpr double kEnv = 1.0 / 14.0;
  constexpr int kRounds = 100;
  Build(kN, 3);
  const double expected = kEnv * OnlineTableEntries() * kRounds;
  ASSERT_GT(expected, 0.0);
  uint64_t returned = 0;
  for (int r = 0; r < kRounds; ++r) returned += ov->RunMaintenanceRound(kEnv);
  const double actual = static_cast<double>(returned);
  EXPECT_LE(actual, expected + 1e-6);
  EXPECT_GT(actual, expected - kN);
  EXPECT_EQ(ov->maintenance_stats().probes_sent, returned);
}

TEST_P(MaintenanceContract, EnvZeroSendsNothing) {
  Build(64, 7);
  for (int r = 0; r < 10; ++r) EXPECT_EQ(ov->RunMaintenanceRound(0.0), 0u);
  EXPECT_EQ(ov->maintenance_stats().probes_sent, 0u);
  EXPECT_EQ(counters.Value("msg.maint.probe"), 0u);
}

TEST_P(MaintenanceContract, AllOfflineSendsNothing) {
  Build(32, 13);
  for (uint32_t i = 0; i < 32; ++i) net.SetOnline(i, false);
  for (int r = 0; r < 5; ++r) EXPECT_EQ(ov->RunMaintenanceRound(1.0), 0u);
  EXPECT_EQ(ov->maintenance_stats().probes_sent, 0u);
  EXPECT_EQ(counters.Value("msg.maint.probe"), 0u);
}

TEST_P(MaintenanceContract, ReturnedProbesEqualCounterDelta) {
  Build(64, 5);
  for (uint32_t i = 0; i < 64; i += 4) net.SetOnline(i, false);
  for (int r = 0; r < 10; ++r) {
    const uint64_t before = counters.Value("msg.maint.probe");
    const uint64_t stats_before = ov->maintenance_stats().probes_sent;
    const uint64_t returned = ov->RunMaintenanceRound(1.0);
    EXPECT_GT(returned, 0u) << "round " << r;
    EXPECT_EQ(counters.Value("msg.maint.probe") - before, returned)
        << "round " << r;
    EXPECT_EQ(ov->maintenance_stats().probes_sent - stats_before, returned)
        << "round " << r;
  }
}

TEST_P(MaintenanceContract, DetectsAndRepairsStaleEntries) {
  Build(200, 9);
  Rng off(11);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) net.SetOnline(i, false);
  }
  // Staleness as maintenance sees it: the share of a round's probes that
  // hit an offline target.
  auto stale_share = [this] {
    const MaintenanceStats before = ov->maintenance_stats();
    ov->RunMaintenanceRound(2.0);
    const MaintenanceStats& after = ov->maintenance_stats();
    return static_cast<double>(after.stale_detected -
                               before.stale_detected) /
           static_cast<double>(after.probes_sent - before.probes_sent);
  };
  const double first = stale_share();
  ASSERT_GT(first, 0.1);
  double last = first;
  for (int r = 0; r < 30; ++r) last = stale_share();
  const MaintenanceStats& st = ov->maintenance_stats();
  EXPECT_GT(st.stale_detected, 0u);
  if (Repairs()) {
    EXPECT_GT(st.repairs, 0u);
    EXPECT_LE(st.repairs, st.stale_detected);
    EXPECT_LT(last, first * 0.75);
  } else {
    EXPECT_EQ(st.repairs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredBackends, MaintenanceContract,
    ::testing::ValuesIn(RegisteredBackends()),
    [](const ::testing::TestParamInfo<core::DhtBackend>& info) {
      return std::string(core::DhtBackendName(info.param));
    });

// --- Chord: finger staleness and rejoin refresh ------------------------

struct ChordFixture {
  ChordFixture(uint32_t n, uint64_t seed)
      : net(&counters), chord(&net, Rng(seed)) {
    std::vector<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
      net.SetOnline(i, true);
    }
    chord.SetMembers(members);
  }
  pdht::CounterRegistry counters;
  net::Network net;
  ChordOverlay chord;
};

TEST(ChordMaintenanceTest, RepairsDriveStaleFingerFractionDown) {
  ChordFixture f(200, 9);
  Rng off(11);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  const double before = f.chord.StaleFingerFraction();
  ASSERT_GT(before, 0.1);
  for (int r = 0; r < 30; ++r) f.chord.RunMaintenanceRound(2.0);
  EXPECT_LT(f.chord.StaleFingerFraction(), before * 0.35);
  // A stale finger is always repairable: it re-points at the next online
  // member.
  const MaintenanceStats& st = f.chord.maintenance_stats();
  EXPECT_GT(st.stale_detected, 0u);
  EXPECT_EQ(st.repairs, st.stale_detected);
}

TEST(ChordMaintenanceTest, RejoinRefreshesTable) {
  ChordFixture f(100, 15);
  // Peer 3 goes offline; others churn around it so its table goes stale.
  f.net.SetOnline(3, false);
  for (uint32_t i = 10; i < 60; ++i) f.net.SetOnline(i, false);
  // Peer 3 returns: the refresh must leave it able to route.
  f.net.SetOnline(3, true);
  f.chord.RefreshNode(3);
  ASSERT_TRUE(f.chord.IsMember(3));
  LookupResult r = f.chord.Lookup(3, 424242);
  EXPECT_TRUE(r.success);
}

TEST(ChordMaintenanceTest, SteadyChurnReachesEquilibriumStaleness) {
  // Alternate killing/reviving random peers and probing; staleness must
  // stay bounded well below the no-maintenance level.
  ChordFixture f(300, 19);
  Rng churn(21);
  double worst = 0.0;
  for (int round = 0; round < 60; ++round) {
    // ~2% of peers flip per round.
    for (int k = 0; k < 6; ++k) {
      uint32_t p = static_cast<uint32_t>(churn.UniformU64(300));
      f.net.SetOnline(p, !f.net.IsOnline(p));
      if (f.net.IsOnline(p)) f.chord.RefreshNode(p);
    }
    f.chord.RunMaintenanceRound(1.0);
    if (round > 20) worst = std::max(worst, f.chord.StaleFingerFraction());
  }
  EXPECT_LT(worst, 0.35);
}

TEST(ChordMaintenanceTest, PerMemberProbesFollowTableSize) {
  // With everyone online nothing is repaired, so table sizes hold still
  // and each member's budget after r rounds is exactly r * env * size
  // (0.25 * an integer is exact): the total is the sum of their floors.
  ChordFixture f(64, 23);
  constexpr double kEnv = 0.25;
  uint64_t total = 0;
  for (int r = 1; r <= 8; ++r) {
    total += f.chord.RunMaintenanceRound(kEnv);
    uint64_t expected = 0;
    for (size_t slot = 0; slot < f.chord.num_members(); ++slot) {
      expected += static_cast<uint64_t>(
          r * kEnv * static_cast<double>(f.chord.MemberTableSize(slot)));
    }
    EXPECT_EQ(total, expected) << "round " << r;
  }
}

}  // namespace
}  // namespace pdht::overlay
