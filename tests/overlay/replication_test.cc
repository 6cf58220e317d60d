#include "overlay/unstructured/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "util/hash.h"

namespace pdht::overlay {
namespace {

TEST(ReplicaPlacementTest, PlacesExactlyReplReplicas) {
  ReplicaPlacement p(1000, 50, Rng(1));
  p.PlaceKey(7);
  EXPECT_EQ(p.ReplicasOf(7).size(), 50u);
}

TEST(ReplicaPlacementTest, ReplicasAreDistinctPeers) {
  ReplicaPlacement p(100, 50, Rng(2));
  p.PlaceKey(1);
  const auto& reps = p.ReplicasOf(1);
  std::set<net::PeerId> unique(reps.begin(), reps.end());
  EXPECT_EQ(unique.size(), reps.size());
}

TEST(ReplicaPlacementTest, ReplClampedToPopulation) {
  ReplicaPlacement p(10, 50, Rng(3));
  p.PlaceKey(1);
  EXPECT_EQ(p.ReplicasOf(1).size(), 10u);
}

TEST(ReplicaPlacementTest, PeerHoldsKeyConsistent) {
  ReplicaPlacement p(500, 20, Rng(4));
  p.PlaceKey(42);
  for (net::PeerId peer : p.ReplicasOf(42)) {
    EXPECT_TRUE(p.PeerHoldsKey(peer, 42));
  }
  // Count holders exhaustively; must equal repl.
  int holders = 0;
  for (uint32_t peer = 0; peer < 500; ++peer) {
    if (p.PeerHoldsKey(peer, 42)) ++holders;
  }
  EXPECT_EQ(holders, 20);
}

TEST(ReplicaPlacementTest, PlaceKeyIdempotent) {
  ReplicaPlacement p(100, 10, Rng(5));
  p.PlaceKey(1);
  auto first = p.ReplicasOf(1);
  p.PlaceKey(1);
  EXPECT_EQ(p.ReplicasOf(1), first);
}

TEST(ReplicaPlacementTest, PlaceKeysBulk) {
  ReplicaPlacement p(200, 5, Rng(6));
  p.PlaceKeys(100);
  EXPECT_EQ(p.num_keys(), 100u);
  for (uint64_t k = 0; k < 100; ++k) {
    EXPECT_TRUE(p.IsPlaced(k));
  }
  EXPECT_FALSE(p.IsPlaced(100));
}

TEST(ReplicaPlacementTest, RemoveKeyClearsEverything) {
  ReplicaPlacement p(100, 10, Rng(7));
  p.PlaceKey(5);
  auto reps = p.ReplicasOf(5);
  p.RemoveKey(5);
  EXPECT_FALSE(p.IsPlaced(5));
  for (net::PeerId peer : reps) {
    EXPECT_FALSE(p.PeerHoldsKey(peer, 5));
  }
  EXPECT_TRUE(p.ReplicasOf(5).empty());
}

TEST(ReplicaPlacementTest, UnknownKeyQueries) {
  ReplicaPlacement p(100, 10, Rng(8));
  EXPECT_FALSE(p.IsPlaced(99));
  EXPECT_FALSE(p.PeerHoldsKey(0, 99));
  EXPECT_TRUE(p.ReplicasOf(99).empty());
  p.RemoveKey(99);  // no-op, must not crash
}

TEST(ReplicaPlacementTest, PlacementIsRoughlyUniform) {
  // With 1000 keys * 10 replicas over 100 peers, each peer should hold
  // ~100 keys.
  ReplicaPlacement p(100, 10, Rng(9));
  p.PlaceKeys(1000);
  for (uint32_t peer = 0; peer < 100; ++peer) {
    int held = 0;
    for (uint64_t k = 0; k < 1000; ++k) {
      if (p.PeerHoldsKey(peer, k)) ++held;
    }
    EXPECT_GT(held, 50);
    EXPECT_LT(held, 170);
  }
}

TEST(ReplicaPlacementTest, OnlineReplicaFraction) {
  ReplicaPlacement p(100, 10, Rng(10));
  p.PlaceKey(1);
  std::vector<bool> alive(100, true);
  EXPECT_DOUBLE_EQ(p.OnlineReplicaFraction(1, alive), 1.0);
  for (net::PeerId peer : p.ReplicasOf(1)) alive[peer] = false;
  EXPECT_DOUBLE_EQ(p.OnlineReplicaFraction(1, alive), 0.0);
  alive[p.ReplicasOf(1)[0]] = true;
  EXPECT_NEAR(p.OnlineReplicaFraction(1, alive), 0.1, 1e-12);
}

// Order-sensitive hash over keys 0..n-1's replica lists.
uint64_t PlacementChain(const ReplicaPlacement& p, uint64_t n) {
  uint64_t h = 0x7265706cULL;  // "repl"
  for (uint64_t k = 0; k < n; ++k) {
    const std::vector<net::PeerId> reps = p.ReplicasOf(k);
    h = Mix64(HashCombine(h, reps.size()));
    for (net::PeerId r : reps) h = Mix64(HashCombine(h, r));
  }
  return h;
}

// Parity pins: every replica set, in placement order, must match what the
// map-and-sorted-lists layout produced from the same stream (recorded
// from it before the flat layout replaced it).  A change to the draw
// order moves every walk and every series downstream.
TEST(ReplicaPlacementTest, BulkPlacementParityPin) {
  ReplicaPlacement p(5000, 10, Rng(11));
  p.PlaceKeys(20000);
  EXPECT_EQ(p.num_keys(), 20000u);
  EXPECT_EQ(PlacementChain(p, 20000), 0x77f85173c98db7fcULL);
}

TEST(ReplicaPlacementTest, ClampedPlacementParityPin) {
  // repl > num_peers: every key is held by all 8 peers, in draw order.
  ReplicaPlacement p(8, 12, Rng(12));
  p.PlaceKeys(500);
  EXPECT_EQ(p.ReplicasOf(499).size(), 8u);
  EXPECT_EQ(PlacementChain(p, 500), 0x2ea288d1d1349c77ULL);
}

TEST(ReplicaPlacementTest, PeerHoldsKeyMatchesReplicasExhaustively) {
  ReplicaPlacement p(60, 7, Rng(13));
  p.PlaceKeys(300);
  for (uint64_t k = 0; k < 301; ++k) {  // key 300 is unplaced
    const std::vector<net::PeerId> reps = p.ReplicasOf(k);
    for (net::PeerId peer = 0; peer < 61; ++peer) {  // peer 60 is out of range
      const bool listed =
          std::find(reps.begin(), reps.end(), peer) != reps.end();
      EXPECT_EQ(p.PeerHoldsKey(peer, k), listed) << "peer " << peer
                                                 << " key " << k;
    }
  }
  EXPECT_FALSE(p.PeerHoldsKey(net::kInvalidPeer, 300));
}

TEST(ReplicaPlacementTest, SparsePlaceKeyBeforeAndAfterBulk) {
  // A key placed past the bulk range before PlaceKeys keeps its replicas,
  // and the bulk pass draws only for the keys still unplaced.
  ReplicaPlacement sparse(100, 5, Rng(14));
  sparse.PlaceKey(40);
  const std::vector<net::PeerId> before = sparse.ReplicasOf(40);
  EXPECT_EQ(sparse.num_keys(), 1u);
  EXPECT_FALSE(sparse.IsPlaced(39));
  sparse.PlaceKeys(50);
  EXPECT_EQ(sparse.num_keys(), 50u);
  EXPECT_EQ(sparse.ReplicasOf(40), before);
  // After the bulk pass, a key far past the range grows the array.
  sparse.PlaceKey(1000);
  EXPECT_EQ(sparse.num_keys(), 51u);
  EXPECT_TRUE(sparse.IsPlaced(1000));
  EXPECT_FALSE(sparse.IsPlaced(999));
  EXPECT_EQ(sparse.ReplicasOf(1000).size(), 5u);
  for (net::PeerId peer : sparse.ReplicasOf(1000)) {
    EXPECT_TRUE(sparse.PeerHoldsKey(peer, 1000));
  }
  // Keys 0..39 and 41..49 drew from the stream in order after key 40:
  // the same draws a fresh placement makes for them after placing 40
  // first.
  ReplicaPlacement ref(100, 5, Rng(14));
  ref.PlaceKey(40);
  for (uint64_t k = 0; k < 50; ++k) ref.PlaceKey(k);
  for (uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(sparse.ReplicasOf(k), ref.ReplicasOf(k)) << "key " << k;
  }
}

TEST(ReplicaPlacementTest, RemoveKeyThenReplace) {
  ReplicaPlacement p(100, 10, Rng(15));
  p.PlaceKeys(20);
  const std::vector<net::PeerId> old_reps = p.ReplicasOf(7);
  p.RemoveKey(7);
  EXPECT_EQ(p.num_keys(), 19u);
  EXPECT_TRUE(p.ReplicasOf(7).empty());
  EXPECT_DOUBLE_EQ(p.OnlineReplicaFraction(7, std::vector<bool>(100, true)),
                   0.0);
  p.RemoveKey(7);  // second removal is a no-op
  EXPECT_EQ(p.num_keys(), 19u);
  // Re-placing draws a fresh replica set from the stream.
  p.PlaceKey(7);
  EXPECT_EQ(p.num_keys(), 20u);
  const std::vector<net::PeerId> new_reps = p.ReplicasOf(7);
  ASSERT_EQ(new_reps.size(), 10u);
  EXPECT_NE(new_reps, old_reps);
  for (net::PeerId peer = 0; peer < 100; ++peer) {
    const bool listed =
        std::find(new_reps.begin(), new_reps.end(), peer) != new_reps.end();
    EXPECT_EQ(p.PeerHoldsKey(peer, 7), listed);
  }
  // Neighbouring keys are untouched.
  EXPECT_EQ(p.ReplicasOf(6).size(), 10u);
  EXPECT_EQ(p.ReplicasOf(8).size(), 10u);
}

}  // namespace
}  // namespace pdht::overlay
