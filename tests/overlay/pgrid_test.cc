#include "overlay/pgrid/pgrid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "overlay/pgrid/path.h"
#include "stats/histogram.h"

namespace pdht::overlay {
namespace {

TEST(TriePathTest, FromStringRoundTrip) {
  TriePath p = TriePath::FromString("0110");
  EXPECT_EQ(p.length(), 4);
  EXPECT_EQ(p.ToString(), "0110");
  EXPECT_EQ(p.Bit(0), 0);
  EXPECT_EQ(p.Bit(1), 1);
  EXPECT_EQ(p.Bit(2), 1);
  EXPECT_EQ(p.Bit(3), 0);
}

TEST(TriePathTest, EmptyPath) {
  TriePath p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.ToString(), "");
  EXPECT_TRUE(p.IsPrefixOfKey(0));
  EXPECT_TRUE(p.IsPrefixOfKey(~uint64_t{0}));
}

TEST(TriePathTest, ChildExtends) {
  TriePath p = TriePath::FromString("1");
  EXPECT_EQ(p.Child(0).ToString(), "10");
  EXPECT_EQ(p.Child(1).ToString(), "11");
}

TEST(TriePathTest, PrefixTruncates) {
  TriePath p = TriePath::FromString("10110");
  EXPECT_EQ(p.Prefix(3).ToString(), "101");
  EXPECT_EQ(p.Prefix(0).ToString(), "");
}

TEST(TriePathTest, SiblingFlipsBit) {
  TriePath p = TriePath::FromString("1011");
  EXPECT_EQ(p.SiblingAt(0).ToString(), "0");
  EXPECT_EQ(p.SiblingAt(1).ToString(), "11");
  EXPECT_EQ(p.SiblingAt(3).ToString(), "1010");
}

TEST(TriePathTest, IsPrefixOf) {
  TriePath a = TriePath::FromString("10");
  TriePath b = TriePath::FromString("101");
  EXPECT_TRUE(a.IsPrefixOf(b));
  EXPECT_FALSE(b.IsPrefixOf(a));
  EXPECT_TRUE(a.IsPrefixOf(a));
  EXPECT_FALSE(TriePath::FromString("11").IsPrefixOf(b));
}

TEST(TriePathTest, IsPrefixOfKey) {
  TriePath p = TriePath::FromString("10");
  EXPECT_TRUE(p.IsPrefixOfKey(0x8000000000000000ULL));   // 10...
  EXPECT_TRUE(p.IsPrefixOfKey(0xBFFFFFFFFFFFFFFFULL));   // 101...
  EXPECT_FALSE(p.IsPrefixOfKey(0xC000000000000000ULL));  // 11...
  EXPECT_FALSE(p.IsPrefixOfKey(0x0));                    // 00...
}

TEST(TriePathTest, CommonPrefixWithKey) {
  TriePath p = TriePath::FromString("1010");
  EXPECT_EQ(p.CommonPrefixWithKey(0xA000000000000000ULL), 4);  // 1010...
  EXPECT_EQ(p.CommonPrefixWithKey(0x8000000000000000ULL), 2);  // 10 then 0
  EXPECT_EQ(p.CommonPrefixWithKey(0x0), 0);
}

TEST(TriePathTest, OrderingAndEquality) {
  TriePath a = TriePath::FromString("01");
  TriePath b = TriePath::FromString("01");
  TriePath c = TriePath::FromString("011");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a < c);
}

struct PGridFixture {
  PGridFixture(uint32_t n, PGridConfig cfg = {}, uint64_t seed = 1)
      : net(&counters), grid(&net, Rng(seed), cfg) {
    std::vector<net::PeerId> members;
    for (uint32_t i = 0; i < n; ++i) {
      members.push_back(i);
      net.SetOnline(i, true);
    }
    grid.SetMembers(members);
  }
  pdht::CounterRegistry counters;
  net::Network net;
  PGridOverlay grid;
};

TEST(PGridTest, InvariantsAfterBalancedConstruction) {
  PGridFixture f(128);
  EXPECT_EQ(f.grid.CheckInvariants(), "");
  EXPECT_EQ(f.grid.num_members(), 128u);
}

TEST(PGridTest, PathDepthsAreLogarithmic) {
  PGridFixture f(256);
  for (net::PeerId p : f.grid.members()) {
    int len = f.grid.PathOf(p).length();
    EXPECT_GE(len, 7);  // 2^8 = 256 leaves, balanced split: depth 8
    EXPECT_LE(len, 9);
  }
}

TEST(PGridTest, LeafGroupsRespectMaxLeafPeers) {
  PGridConfig cfg;
  cfg.max_leaf_peers = 4;
  PGridFixture f(64, cfg);
  std::set<std::string> paths;
  for (net::PeerId p : f.grid.members()) {
    paths.insert(f.grid.PathOf(p).ToString());
  }
  // 64 peers in groups of <= 4: at least 16 distinct paths.
  EXPECT_GE(paths.size(), 16u);
  for (uint64_t key = 0; key < 100; ++key) {
    EXPECT_LE(f.grid.ResponsiblePeers(key).size(), 4u);
    EXPECT_GE(f.grid.ResponsiblePeers(key).size(), 1u);
  }
}

TEST(PGridTest, EveryKeyHasResponsiblePeer) {
  PGridFixture f(100);
  for (uint64_t key = 0; key < 500; ++key) {
    EXPECT_NE(f.grid.ResponsibleMember(key), net::kInvalidPeer) << key;
  }
}

TEST(PGridTest, LookupReachesResponsiblePeer) {
  PGridFixture f(128, {}, 3);
  for (uint64_t key = 0; key < 60; ++key) {
    LookupResult r = f.grid.Lookup(0, key);
    ASSERT_TRUE(r.success) << "key " << key;
    auto owners = f.grid.ResponsiblePeers(key);
    EXPECT_NE(std::find(owners.begin(), owners.end(), r.terminus),
              owners.end());
  }
}

TEST(PGridTest, LookupFromResponsibleIsFree) {
  PGridFixture f(64);
  uint64_t key = 5;
  net::PeerId owner = f.grid.ResponsibleMember(key);
  LookupResult r = f.grid.Lookup(owner, key);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.messages, 0u);
}

TEST(PGridTest, LookupHopsBoundedByDepth) {
  PGridFixture f(256, {}, 5);
  Rng pick(7);
  pdht::Histogram hops;
  for (int trial = 0; trial < 300; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(256));
    LookupResult r = f.grid.Lookup(origin, pick.Next());
    ASSERT_TRUE(r.success);
    ASSERT_LE(r.hops, 9u);  // each hop extends the prefix by >= 1 bit
    hops.Add(r.hops);
  }
  // Expected ~ 0.5 * depth ~= 4 for random origins/keys.
  EXPECT_GT(hops.mean(), 1.5);
  EXPECT_LT(hops.mean(), 6.5);
}

TEST(PGridTest, LookupRedundantRefsSurviveChurn) {
  PGridConfig cfg;
  cfg.refs_per_level = 6;
  PGridFixture f(256, cfg, 9);
  Rng off(11);
  std::vector<bool> down(256, false);
  for (uint32_t i = 0; i < 256; ++i) {
    if (off.Bernoulli(0.2)) {
      f.net.SetOnline(i, false);
      down[i] = true;
    }
  }
  Rng pick(13);
  int ok = 0;
  int attempts = 0;
  for (int trial = 0; trial < 100; ++trial) {
    net::PeerId origin = static_cast<net::PeerId>(pick.UniformU64(256));
    if (down[origin]) continue;
    ++attempts;
    uint64_t key = pick.Next();
    LookupResult r = f.grid.Lookup(origin, key);
    // Success requires the responsible leaf group to have an online peer
    // reachable via refs; with 6 refs/level and 20% churn nearly all work.
    if (r.success) ++ok;
  }
  ASSERT_GT(attempts, 20);
  EXPECT_GT(static_cast<double>(ok) / attempts, 0.8);
}

TEST(PGridTest, MaintenanceRepairsDeadRefs) {
  PGridConfig cfg;
  cfg.refs_per_level = 2;
  PGridFixture f(200, cfg, 15);
  Rng off(17);
  for (uint32_t i = 0; i < 200; ++i) {
    if (off.Bernoulli(0.3)) f.net.SetOnline(i, false);
  }
  double before = f.grid.StaleReferenceFraction();
  ASSERT_GT(before, 0.1);
  for (int r = 0; r < 40; ++r) f.grid.RunMaintenanceRound(2.0);
  EXPECT_LT(f.grid.StaleReferenceFraction(), before * 0.5);
  EXPECT_GT(f.counters.Value("msg.maint.probe"), 0u);
}

TEST(PGridTest, ExchangeConstructionConvergesToValidTrie) {
  pdht::CounterRegistry counters;
  net::Network net(&counters);
  PGridOverlay grid(&net, Rng(21), PGridConfig{});
  std::vector<net::PeerId> members;
  for (uint32_t i = 0; i < 64; ++i) {
    members.push_back(i);
    net.SetOnline(i, true);
  }
  uint64_t exchanges = grid.BuildByExchanges(members, 2000000);
  EXPECT_GT(exchanges, 0u);
  EXPECT_GT(counters.Value("msg.overlay.exchange"), 0u);
  // Coverage: every key id must have at least one responsible peer.
  for (uint64_t key = 0; key < 200; ++key) {
    EXPECT_NE(grid.ResponsibleMember(key), net::kInvalidPeer) << key;
  }
}

TEST(PGridTest, ExchangePathsReachTargetDepthOnAverage) {
  pdht::CounterRegistry counters;
  net::Network net(&counters);
  PGridOverlay grid(&net, Rng(23), PGridConfig{});
  std::vector<net::PeerId> members;
  for (uint32_t i = 0; i < 128; ++i) {
    members.push_back(i);
    net.SetOnline(i, true);
  }
  grid.BuildByExchanges(members, 2000000);
  double total_len = 0;
  for (net::PeerId p : grid.members()) {
    total_len += grid.PathOf(p).length();
  }
  double avg = total_len / 128.0;
  EXPECT_GT(avg, 4.0);  // target depth log2(128) = 7
  EXPECT_LE(avg, 7.5);
}

TEST(PGridTest, TableSizeNonZeroAfterBuild) {
  PGridFixture f(64);
  for (net::PeerId p : f.grid.members()) {
    EXPECT_GT(f.grid.TableSize(p), 0u) << p;
  }
  EXPECT_EQ(f.grid.TableSize(9999), 0u);
}

TEST(PGridTest, RejoinNodeRebuildsRefs) {
  PGridFixture f(64);
  Rng rng(11);
  f.grid.RejoinNode(0, rng);
  EXPECT_GT(f.grid.TableSize(0), 0u);
}

TEST(PGridTest, SingleMemberDegenerate) {
  PGridFixture f(1);
  EXPECT_EQ(f.grid.PathOf(0).length(), 0);
  LookupResult r = f.grid.Lookup(0, 7);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.messages, 0u);
}

}  // namespace
}  // namespace pdht::overlay
