#include "overlay/dht/chord.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "overlay/dht/id.h"
#include "stats/histogram.h"
#include "util/bits.h"

namespace pdht::overlay {
namespace {

struct ChordFixture {
  explicit ChordFixture(uint32_t n, uint64_t seed = 1)
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

TEST(RingIdTest, RingDistanceWraps) {
  EXPECT_EQ(RingDistance(5, 10), 5u);
  EXPECT_EQ(RingDistance(10, 5), ~uint64_t{0} - 4);
  EXPECT_EQ(RingDistance(7, 7), 0u);
}

TEST(RingIdTest, IntervalOpenClosed) {
  EXPECT_TRUE(InIntervalOpenClosed(5, 1, 10));
  EXPECT_TRUE(InIntervalOpenClosed(10, 1, 10));  // closed right end
  EXPECT_FALSE(InIntervalOpenClosed(1, 1, 10));  // open left end
  EXPECT_FALSE(InIntervalOpenClosed(11, 1, 10));
  // Wrapping interval.
  EXPECT_TRUE(InIntervalOpenClosed(2, ~uint64_t{0} - 5, 10));
  // a == b means the full ring.
  EXPECT_TRUE(InIntervalOpenClosed(123, 7, 7));
}

TEST(RingIdTest, IntervalOpen) {
  EXPECT_TRUE(InIntervalOpen(5, 1, 10));
  EXPECT_FALSE(InIntervalOpen(10, 1, 10));
  EXPECT_FALSE(InIntervalOpen(1, 1, 10));
}

TEST(RingIdTest, PeerIdsWellSpread) {
  // Node ids must not collide for realistic populations.
  std::set<NodeId> ids;
  for (uint32_t p = 0; p < 50000; ++p) {
    ASSERT_TRUE(ids.insert(PeerToNodeId(p)).second) << p;
  }
}

TEST(ChordTest, InvariantsAfterConstruction) {
  ChordFixture f(256);
  EXPECT_EQ(f.chord.CheckInvariants(), "");
  EXPECT_EQ(f.chord.num_members(), 256u);
}

TEST(ChordTest, ResponsibleMemberIsDeterministic) {
  ChordFixture f(64);
  for (uint64_t key = 0; key < 50; ++key) {
    EXPECT_EQ(f.chord.ResponsibleMember(key),
              f.chord.ResponsibleMember(key));
  }
}

TEST(ChordTest, ResponsibilityPartitionsKeySpace) {
  // Every key has exactly one responsible member; responsibilities over
  // many keys should cover many members (load balance sanity).
  ChordFixture f(128);
  std::set<net::PeerId> owners;
  for (uint64_t key = 0; key < 2000; ++key) {
    net::PeerId owner = f.chord.ResponsibleMember(key);
    ASSERT_NE(owner, net::kInvalidPeer);
    owners.insert(owner);
  }
  EXPECT_GT(owners.size(), 64u);
}

TEST(ChordTest, ResponsibleReplicasAreSuccessors) {
  ChordFixture f(32);
  auto reps = f.chord.ResponsibleReplicas(99, 5);
  ASSERT_EQ(reps.size(), 5u);
  EXPECT_EQ(reps[0], f.chord.ResponsibleMember(99));
  std::set<net::PeerId> unique(reps.begin(), reps.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(ChordTest, ReplicasClampedToRingSize) {
  ChordFixture f(4);
  EXPECT_EQ(f.chord.ResponsibleReplicas(1, 50).size(), 4u);
}

TEST(ChordTest, LookupReachesResponsible) {
  ChordFixture f(200);
  for (uint64_t key = 0; key < 50; ++key) {
    LookupResult r = f.chord.Lookup(5, key);
    EXPECT_TRUE(r.success) << "key " << key;
    EXPECT_EQ(r.terminus, f.chord.ResponsibleMember(key));
    EXPECT_TRUE(r.responsible_online);
  }
}

TEST(ChordTest, LookupFromOwnerIsLocal) {
  ChordFixture f(100);
  uint64_t key = 7;
  net::PeerId owner = f.chord.ResponsibleMember(key);
  LookupResult r = f.chord.Lookup(owner, key);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(ChordTest, LookupHopsAreLogarithmic) {
  // Eq. 7: expected lookup cost ~ 0.5*log2(n) hops.  Allow generous slack
  // for the ring's randomness but pin the order of magnitude.
  constexpr uint32_t kN = 1024;
  ChordFixture f(kN, 3);
  pdht::Histogram hops;
  Rng pick(17);
  for (int trial = 0; trial < 500; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(kN));
    uint64_t key = pick.Next();
    LookupResult r = f.chord.Lookup(origin, key);
    ASSERT_TRUE(r.success);
    hops.Add(static_cast<double>(r.hops));
  }
  double expected = 0.5 * std::log2(static_cast<double>(kN));  // = 5
  EXPECT_GT(hops.mean(), expected * 0.5);
  EXPECT_LT(hops.mean(), expected * 2.0);
}

TEST(ChordTest, LookupCountsMessagesOnNetwork) {
  ChordFixture f(128);
  uint64_t before = f.net.TotalMessages();
  LookupResult r = f.chord.Lookup(0, 12345);
  EXPECT_EQ(f.net.TotalMessages() - before, r.messages);
}

TEST(ChordTest, LookupRoutesAroundOfflineOwner) {
  ChordFixture f(64);
  uint64_t key = 3;
  net::PeerId owner = f.chord.ResponsibleMember(key);
  f.net.SetOnline(owner, false);
  LookupResult r = f.chord.Lookup((owner + 1) % 64 == owner ? 1 : (owner + 1) % 64, key);
  EXPECT_FALSE(r.responsible_online);
  EXPECT_EQ(r.responsible, owner);
  EXPECT_NE(r.terminus, owner);
  EXPECT_TRUE(f.net.IsOnline(r.terminus));
}

TEST(ChordTest, LookupSurvivesStaleFingersUnderChurn) {
  ChordFixture f(256, 5);
  // Knock 25% of members offline without any repair.
  Rng off(9);
  std::vector<bool> down(256, false);
  for (uint32_t i = 0; i < 256; ++i) {
    if (off.Bernoulli(0.25)) {
      f.net.SetOnline(i, false);
      down[i] = true;
    }
  }
  int successes = 0;
  int attempts = 0;
  Rng pick(11);
  for (int trial = 0; trial < 100; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(256));
    if (down[origin]) continue;
    ++attempts;
    LookupResult r = f.chord.Lookup(origin, pick.Next());
    if (r.success) ++successes;
  }
  ASSERT_GT(attempts, 0);
  // Routing around failures must succeed for the vast majority.
  EXPECT_GT(static_cast<double>(successes) / attempts, 0.9);
}

TEST(ChordTest, FailedProbesCostMessages) {
  ChordFixture f(128, 7);
  Rng off(13);
  for (uint32_t i = 0; i < 128; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  uint64_t total_failed = 0;
  Rng pick(15);
  for (int trial = 0; trial < 50; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(128));
    if (!f.net.IsOnline(origin)) continue;
    LookupResult r = f.chord.Lookup(origin, pick.Next());
    total_failed += r.failed_probes;
    EXPECT_GE(r.messages, r.hops);  // failures add messages beyond hops
  }
  EXPECT_GT(total_failed, 0u);
}

TEST(ChordTest, AddMemberMaintainsInvariants) {
  ChordFixture f(50);
  f.chord.AddMember(1000);
  f.chord.AddMember(1001);
  EXPECT_EQ(f.chord.num_members(), 52u);
  EXPECT_EQ(f.chord.CheckInvariants(), "");
  EXPECT_TRUE(f.chord.IsMember(1000));
  // Join traffic was accounted.
  EXPECT_GT(f.counters.Value("msg.overlay.join"), 0u);
}

TEST(ChordTest, AddMemberIsIdempotent) {
  ChordFixture f(10);
  f.chord.AddMember(3);  // already a member
  EXPECT_EQ(f.chord.num_members(), 10u);
}

TEST(ChordTest, RemoveMemberShrinksRing) {
  ChordFixture f(20);
  f.chord.RemoveMember(5);
  EXPECT_EQ(f.chord.num_members(), 19u);
  EXPECT_FALSE(f.chord.IsMember(5));
  EXPECT_EQ(f.chord.CheckInvariants(), "");
  // Lookups still work after departure + refresh.
  for (uint32_t i = 0; i < 20; ++i) {
    if (i != 5) f.chord.RefreshNode(i);
  }
  LookupResult r = f.chord.Lookup(0, 42);
  EXPECT_TRUE(r.success);
}

// CheckInvariants walks every slot's table (counts within the stride,
// entries naming members under their ring ids, successor lists in
// clockwise order).  Run it after every step that writes tables.
TEST(ChordTest, TablesStayValidThroughEveryMutation) {
  // 64 members: the 65th crosses a power of two and grows the stride from
  // 8 + 8 to 9 + 8 entries.
  ChordFixture f(64, 7);
  ASSERT_EQ(f.chord.CheckInvariants(), "");
  Rng churn(3);
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 6; ++k) {
      const net::PeerId p = static_cast<net::PeerId>(churn.UniformU64(64));
      f.net.SetOnline(p, !f.net.IsOnline(p));
    }
    f.chord.RunMaintenanceRound(1.0);
    ASSERT_EQ(f.chord.CheckInvariants(), "") << "round " << round;
  }
  EXPECT_GT(f.chord.maintenance_stats().repairs, 0u);
  Rng rejoin(5);
  for (net::PeerId p = 0; p < 64; ++p) {
    if (f.net.IsOnline(p)) f.chord.RejoinNode(p, rejoin);
  }
  ASSERT_EQ(f.chord.CheckInvariants(), "");
  for (net::PeerId p = 64; p < 67; ++p) {
    f.net.SetOnline(p, true);
    f.chord.AddMember(p);
    ASSERT_EQ(f.chord.CheckInvariants(), "") << "after adding " << p;
  }
  const std::vector<net::PeerId>& mem = f.chord.members();
  const size_t joined =
      static_cast<size_t>(std::find(mem.begin(), mem.end(), 64u) - mem.begin());
  ASSERT_LT(joined, mem.size());
  EXPECT_EQ(f.chord.MemberTableSize(joined), 9u + 8u);
  // Departures re-point the entries naming the departed peer, which stays
  // online: no table may route onto a non-member.
  for (net::PeerId p : {64u, 0u, 1u, 2u}) {
    f.chord.RemoveMember(p);
    ASSERT_EQ(f.chord.CheckInvariants(), "") << "after removing " << p;
  }
  Rng pick(9);
  for (net::PeerId origin : f.chord.members()) {
    if (!f.net.IsOnline(origin)) continue;
    for (int k = 0; k < 8; ++k) {
      const LookupResult r = f.chord.Lookup(origin, pick.Next());
      EXPECT_TRUE(f.chord.IsMember(r.terminus)) << "origin " << origin;
    }
  }
}

TEST(ChordTest, RejectsSuccessorListsBeyondByteCounts) {
  pdht::CounterRegistry counters;
  net::Network net(&counters);
  EXPECT_NO_THROW(
      ChordOverlay(&net, Rng(1), ChordOverlay::kMaxSuccessors));
  EXPECT_THROW(ChordOverlay(&net, Rng(1), ChordOverlay::kMaxSuccessors + 1),
               std::invalid_argument);
}

TEST(ChordTest, RandomOnlineMemberSkipsOffline) {
  ChordFixture f(16);
  for (uint32_t i = 0; i < 16; ++i) {
    if (i != 7) f.net.SetOnline(i, false);
  }
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    EXPECT_EQ(f.chord.RandomOnlineMember(rng), 7u);
  }
}

TEST(ChordTest, RandomOnlineMemberAllOffline) {
  ChordFixture f(8);
  for (uint32_t i = 0; i < 8; ++i) f.net.SetOnline(i, false);
  Rng rng(4);
  EXPECT_EQ(f.chord.RandomOnlineMember(rng), net::kInvalidPeer);
}

TEST(ChordTest, StaleFingerFractionTracksChurn) {
  ChordFixture f(200, 21);
  EXPECT_DOUBLE_EQ(f.chord.StaleFingerFraction(), 0.0);
  Rng off(5);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  double stale = f.chord.StaleFingerFraction();
  EXPECT_GT(stale, 0.15);
  EXPECT_LT(stale, 0.45);
}

TEST(ChordTest, TinyRings) {
  ChordFixture f(2);
  LookupResult r = f.chord.Lookup(0, 99);
  EXPECT_TRUE(r.success);
  ChordFixture g(1);
  LookupResult r1 = g.chord.Lookup(0, 5);
  EXPECT_TRUE(r1.success);
  EXPECT_EQ(r1.terminus, 0u);
}

// --- Successor index vs a linear-scan oracle ---------------------------
//
// ResponsibleMember resolves successor(KeyToNodeId(key)) through the
// bucketed search over the dense id array.  The oracle scans every member
// id; the probes hit the edges of that search: member ids themselves,
// their neighbours id +/- 1, the first and last id of each member's
// bucket neighbourhood, and the ring's wrap points 0 and UINT64_MAX.

/// The key whose KeyToNodeId is `id` (KeyToNodeId is a bijection: an odd
/// multiply, an xor and the invertible Mix64 finalizer).
uint64_t KeyAtNodeId(NodeId id) {
  uint64_t x = id;  // invert Mix64 step by step
  x ^= (x >> 31) ^ (x >> 62);
  x *= 0x319642b2d24d8ec3ULL;
  x ^= (x >> 27) ^ (x >> 54);
  x *= 0x96de1b173f119089ULL;
  x ^= (x >> 30) ^ (x >> 60);
  x ^= 0x6b657973ULL;
  const uint64_t odd = 0x9e3779b97f4a7c15ULL;
  uint64_t inv = odd;  // Newton: each step doubles the correct low bits
  for (int i = 0; i < 6; ++i) inv *= 2 - odd * inv;
  return x * inv;
}

void ExpectSuccessorsMatchOracle(const ChordOverlay& chord,
                                 const std::set<net::PeerId>& members) {
  std::vector<std::pair<NodeId, net::PeerId>> ring;
  for (net::PeerId p : members) ring.emplace_back(PeerToNodeId(p), p);
  // Linear scan: the smallest id >= target, else the smallest id (wrap).
  auto oracle = [&ring](NodeId target) {
    const std::pair<NodeId, net::PeerId>* best = nullptr;
    const std::pair<NodeId, net::PeerId>* lowest = &ring[0];
    for (const auto& m : ring) {
      if (m.first < lowest->first) lowest = &m;
      if (m.first >= target && (best == nullptr || m.first < best->first)) {
        best = &m;
      }
    }
    return (best == nullptr ? lowest : best)->second;
  };
  std::vector<NodeId> targets = {0, ~NodeId{0}, NodeId{1} << 63};
  const int bits = CeilLog2(std::max<size_t>(ring.size(), 2));
  const NodeId low_mask = ~NodeId{0} >> bits;
  for (const auto& m : ring) {
    const NodeId id = m.first;
    for (NodeId t : {id, id - 1, id + 1, id & ~low_mask, id | low_mask,
                     (id & ~low_mask) - 1, (id | low_mask) + 1}) {
      targets.push_back(t);
    }
  }
  for (NodeId t : targets) {
    const uint64_t key = KeyAtNodeId(t);
    ASSERT_EQ(KeyToNodeId(key), t);
    ASSERT_EQ(chord.ResponsibleMember(key), oracle(t))
        << "ring of " << ring.size() << ", target " << NodeIdToString(t);
  }
}

TEST(ChordTest, SuccessorIndexMatchesLinearScanOracle) {
  for (uint32_t n : {1u, 2u, 3u, 1000u, 1024u, 1025u}) {
    ChordFixture f(n);
    std::set<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) members.insert(i);
    ExpectSuccessorsMatchOracle(f.chord, members);
    // Growing past a power of two adds a bucket bit; shrinking below one
    // drops it.
    for (net::PeerId p = n; p < n + 3; ++p) {
      f.net.SetOnline(p, true);
      f.chord.AddMember(p);
      members.insert(p);
    }
    ExpectSuccessorsMatchOracle(f.chord, members);
    for (net::PeerId p = 0; p < 4 && members.size() > 1; ++p) {
      f.chord.RemoveMember(p);
      members.erase(p);
    }
    ExpectSuccessorsMatchOracle(f.chord, members);
    EXPECT_EQ(f.chord.CheckInvariants(), "");
  }
}

// Parameterized: lookup success and hop bound across ring sizes.
class ChordSizeSweep : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ChordSizeSweep, AllLookupsSucceedOnStaticRing) {
  uint32_t n = GetParam();
  ChordFixture f(n, n);
  Rng pick(n * 3 + 1);
  for (int trial = 0; trial < 60; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(n));
    LookupResult r = f.chord.Lookup(origin, pick.Next());
    ASSERT_TRUE(r.success);
    ASSERT_LE(r.hops, 4u * static_cast<uint32_t>(std::log2(n + 1)) + 16u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChordSizeSweep,
                         ::testing::Values(2, 3, 5, 8, 16, 64, 256, 1000));

}  // namespace
}  // namespace pdht::overlay
