// RoutingDriver unit tests, against a scripted candidate generator (so
// every driver behaviour is pinned independently of the real backends):
// probe order and accounting, route-time PNS reordering *within*
// equal-progress groups only, timeout-aware failed-probe costing,
// alpha-concurrent batches with deterministic tie-breaks, stand-in /
// terminal-step / exhaustion / hop-limit termination -- plus end-to-end
// checks that route-time PNS lowers real backends' probed latency and
// that the alpha mode stays deterministic.

#include "overlay/routing_driver.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/delivery_model.h"
#include "net/network.h"
#include "overlay/dht/kademlia.h"
#include "overlay/pgrid/pgrid.h"
#include "sim/event_queue.h"
#include "stats/counter.h"

namespace pdht::overlay {
namespace {

/// Candidate generator with scripted per-peer candidate/fallback lists.
class ScriptedOverlay : public StructuredOverlay {
 public:
  ScriptedOverlay(net::Network* network, net::PeerId dest)
      : StructuredOverlay(network), dest_(dest) {}

  std::map<net::PeerId, std::vector<RouteCandidate>> candidates;
  std::map<net::PeerId, std::vector<RouteCandidate>> fallbacks;
  std::vector<net::PeerId> replica_group;  ///< scripted replica group
  uint32_t hop_limit = 32;
  uint32_t parallelism = 1;
  bool lenient = false;
  std::vector<net::PeerId> advances;  ///< OnAdvance recording

  void SetMembers(const std::vector<net::PeerId>& members) override {
    members_ = members;
  }
  bool IsMember(net::PeerId peer) const override {
    for (net::PeerId m : members_) {
      if (m == peer) return true;
    }
    return false;
  }
  size_t num_members() const override { return members_.size(); }
  const std::vector<net::PeerId>& members() const override {
    return members_;
  }
  net::PeerId ResponsibleMember(uint64_t) const override { return dest_; }
  void ResponsiblePeersInto(uint64_t, uint32_t count,
                            std::vector<net::PeerId>* out) const override {
    out->assign(replica_group.begin(), replica_group.end());
    if (out->size() > count) out->resize(count);
  }
  size_t MemberTableSize(size_t) const override { return 0; }

  bool StartLookup(net::PeerId, uint64_t, net::PeerId* responsible) override {
    if (members_.empty()) return false;
    *responsible = dest_;
    return true;
  }
  bool AtDestination(net::PeerId peer, uint64_t) const override {
    return peer == dest_;
  }
  uint32_t LookupHopLimit() const override { return hop_limit; }
  uint32_t LookupParallelism() const override { return parallelism; }
  bool LenientHopLimit() const override { return lenient; }
  void NextHops(const RouteState& state, uint64_t,
                std::vector<RouteCandidate>* out) override {
    auto it = candidates.find(state.cur);
    if (it != candidates.end()) *out = it->second;
  }
  bool FallbackHop(const RouteState& state, uint64_t, uint32_t k,
                   RouteCandidate* out) override {
    auto it = fallbacks.find(state.cur);
    if (it == fallbacks.end() || k >= it->second.size()) return false;
    *out = it->second[k];
    return true;
  }
  void OnAdvance(net::PeerId peer) override { advances.push_back(peer); }

 private:
  // No routing table to maintain: MemberTableSize is 0, so maintenance
  // plans no tasks and never probes.
  MaintenanceStats ProbeMember(size_t, net::PeerId, uint32_t,
                               Rng&) override {
    return {};
  }
  Rng& MaintenanceRng() override { return rng_; }

  net::PeerId dest_;
  std::vector<net::PeerId> members_;
  Rng rng_{0};
};

class ScriptedFixture : public ::testing::Test {
 protected:
  ScriptedFixture() : net(&counters), ov(&net, /*dest=*/9) {
    std::vector<net::PeerId> members;
    for (net::PeerId p = 0; p < 10; ++p) {
      members.push_back(p);
      net.SetOnline(p, true);
    }
    ov.SetMembers(members);
  }

  CounterRegistry counters;
  net::Network net;
  ScriptedOverlay ov;
};

TEST_F(ScriptedFixture, ProbesInEmissionOrderAndAccountsUniformly) {
  // 0 -> {1 (offline), 2} -> dest.
  ov.candidates[0] = {{1, 5.0, false}, {2, 5.0, false}};
  ov.candidates[2] = {{9, 1.0, false}};
  net.SetOnline(1, false);
  LookupResult r = ov.Lookup(0, 77);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 9u);
  EXPECT_EQ(r.hops, 2u);
  EXPECT_EQ(r.failed_probes, 1u);
  EXPECT_EQ(r.messages, r.hops + r.failed_probes + 1);  // + reply
  EXPECT_EQ(r.responsible, 9u);
  EXPECT_TRUE(r.responsible_online);
  EXPECT_EQ(ov.advances, (std::vector<net::PeerId>{2, 9}));
}

TEST_F(ScriptedFixture, RoutePnsReordersOnlyWithinEqualProgressGroups) {
  // Two equal-progress candidates (1, 2) ahead of a better-progress one
  // (3) that is emitted later: PNS must flip 1/2 by RTT but never pull 3
  // forward across the group boundary.
  ov.candidates[0] = {{1, 5.0, false}, {2, 5.0, false}, {3, 3.0, false}};
  ov.candidates[1] = {{9, 1.0, false}};
  ov.candidates[2] = {{9, 1.0, false}};
  RoutingPolicy policy;
  policy.proximity = true;
  policy.rtt = [](net::PeerId, net::PeerId b) {
    return b == 2 ? 10.0 : (b == 3 ? 1.0 : 50.0);
  };
  ov.SetRoutingPolicy(std::move(policy));
  LookupResult r = ov.Lookup(0, 77);
  EXPECT_TRUE(r.success);
  // Advanced to 2 (cheapest within its group), not to 1 and not to 3.
  ASSERT_FALSE(ov.advances.empty());
  EXPECT_EQ(ov.advances.front(), 2u);
  EXPECT_EQ(r.failed_probes, 0u);
}

TEST_F(ScriptedFixture, TimeoutCostingChargesPerFailedProbeRound) {
  sim::EventQueue events;
  net::LatencyConfig cfg;
  cfg.timeout_ms = 200.0;
  net::LatencyDelivery model(cfg, 3);
  net.SetDeliveryModel(&model, &events);

  ov.candidates[0] = {{1, 5.0, false}, {2, 4.0, false}, {3, 3.0, false}};
  ov.candidates[3] = {{9, 1.0, false}};
  net.SetOnline(1, false);
  net.SetOnline(2, false);
  RoutingPolicy policy;
  policy.timeout_costing = true;
  ov.SetRoutingPolicy(std::move(policy));

  const double before = net.total_latency_s();
  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.failed_probes, 2u);
  // Sequential walk: each failed probe round waited one timeout.
  EXPECT_EQ(net.TimeoutCount(), 2u);
  EXPECT_GE(net.total_latency_s() - before, 2 * 0.2);
}

TEST_F(ScriptedFixture, AlphaBatchChargesParallelProbesAndOneTimeout) {
  sim::EventQueue events;
  net::LatencyConfig cfg;
  cfg.timeout_ms = 200.0;
  net::LatencyDelivery model(cfg, 3);
  net.SetDeliveryModel(&model, &events);

  // Batch 1 = {1, 2} both offline (one shared timeout); batch 2 =
  // {3, 4}: 3 offline, 4 online -> advance to 4, no timeout charged.
  ov.candidates[0] = {
      {1, 8.0, false}, {2, 7.0, false}, {3, 6.0, false}, {4, 5.0, false}};
  ov.candidates[4] = {{9, 1.0, false}};
  ov.parallelism = 2;
  net.SetOnline(1, false);
  net.SetOnline(2, false);
  net.SetOnline(3, false);
  RoutingPolicy policy;
  policy.timeout_costing = true;
  ov.SetRoutingPolicy(std::move(policy));

  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(ov.advances.front(), 4u);
  EXPECT_EQ(r.failed_probes, 3u);
  EXPECT_EQ(net.TimeoutCount(), 1u);  // only the fully-failed batch waits
  // Messages: 4 probes at hop 0, 1 probe at hop 4->9, 1 reply.  The
  // wasted parallel probes make messages exceed hops+failed+reply.
  EXPECT_EQ(r.messages, 6u);
  EXPECT_GE(r.messages, r.hops + r.failed_probes + 1);
}

TEST_F(ScriptedFixture, ReplicaBatchFailoverChargesOneSharedTimeout) {
  // Satellite invariant: an alpha-concurrent replica batch that fails
  // over past dead replicas waits ONE shared detection timeout per
  // fully-dead batch, exactly like the primary phase.
  sim::EventQueue events;
  net::LatencyConfig cfg;
  cfg.timeout_ms = 200.0;
  net::LatencyDelivery model(cfg, 3);
  net.SetDeliveryModel(&model, &events);

  // 0 is terminal-bound (responsible member 9 leads its candidates);
  // replica group {9, 3, 2, 4} with 9 and 3 dead: batch 1 = {9, 3}
  // fully dead (2 failovers, one shared timeout), batch 2 = {2, 4}
  // advances to 2 -- a terminal advance short of the dead primary.
  ov.candidates[0] = {{9, 1.0, false}};
  ov.replica_group = {9, 3, 2, 4};
  ov.parallelism = 2;
  net.SetOnline(9, false);
  net.SetOnline(3, false);
  RoutingPolicy policy;
  policy.timeout_costing = true;
  policy.replica_route = true;
  policy.replica_count = 4;
  ov.SetRoutingPolicy(std::move(policy));

  const double before = net.total_latency_s();
  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 2u);
  EXPECT_EQ(r.hops, 1u);
  EXPECT_EQ(r.failed_probes, 2u);
  EXPECT_EQ(r.failovers, 2u);
  EXPECT_EQ(net.FailoverCount(), 2u);
  // ONE timeout for the fully-dead {9, 3} batch; the {2, 4} batch found
  // a live replica and charges nothing.
  EXPECT_EQ(net.TimeoutCount(), 1u);
  EXPECT_GE(net.total_latency_s() - before, 0.2);
  EXPECT_LT(net.total_latency_s() - before, 0.4);
  // Messages: 4 replica probes (two batches of two) + the reply.
  EXPECT_EQ(r.messages, 5u);
  EXPECT_EQ(ov.advances, (std::vector<net::PeerId>{2}));
}

TEST_F(ScriptedFixture, ReplicaFailoverPicksCheapestLiveReplicaByRtt) {
  // With an RTT oracle the replica order is cheapest-link-first: the
  // walk lands on the cheapest LIVE replica, skipping the cheaper dead
  // one (a failover), never touching the expensive tail.
  ov.candidates[0] = {{9, 1.0, false}};
  ov.replica_group = {9, 3, 2, 4};
  net.SetOnline(3, false);
  RoutingPolicy policy;
  policy.replica_route = true;
  policy.replica_count = 4;
  policy.rtt = [](net::PeerId, net::PeerId b) {
    return b == 3 ? 1.0 : (b == 2 ? 5.0 : 50.0);
  };
  ov.SetRoutingPolicy(std::move(policy));

  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 2u);  // 3 (1 ms) dead -> 2 (5 ms); 9/4 unprobed
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.messages, 3u);  // probes 3, 2 + reply
}

TEST_F(ScriptedFixture, ReplicaStandInEndsWalkWhenAlreadyOnAReplica) {
  // The walk's own peer is in the replica group: it can serve the key
  // itself -- no probe, no reply, no hop.
  ov.candidates[0] = {{9, 1.0, false}};
  ov.replica_group = {9, 0};
  RoutingPolicy policy;
  policy.replica_route = true;
  policy.replica_count = 2;
  ov.SetRoutingPolicy(std::move(policy));

  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 0u);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(r.failovers, 0u);
}

TEST_F(ScriptedFixture, ReplicaRescueAfterExhaustionReachesLiveReplica) {
  // No terminal-bound trigger (candidates never lead with the
  // responsible member) and every primary/fallback candidate is dead:
  // the exhaustion rescue still reaches a live replica instead of
  // failing the lookup.
  ov.candidates[0] = {{1, 5.0, false}};
  ov.replica_group = {9, 4};
  net.SetOnline(1, false);
  net.SetOnline(9, false);
  RoutingPolicy policy;
  policy.replica_route = true;
  policy.replica_count = 2;
  ov.SetRoutingPolicy(std::move(policy));

  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 4u);
  EXPECT_EQ(r.failovers, 1u);   // the dead replica 9
  EXPECT_EQ(r.failed_probes, 2u);  // dead primary 1 + dead replica 9
}

TEST_F(ScriptedFixture, FallbackStandInEndsWalkWithoutAMessage) {
  // No primary candidates; the fallback scan reaches the walk's own peer
  // first: it is the closest online stand-in.
  ov.fallbacks[0] = {{0, 0.0, false}, {5, 1.0, false}};
  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 0u);
  EXPECT_EQ(r.hops, 0u);
  EXPECT_EQ(r.messages, 0u);  // origin == terminus: no probe, no reply
}

TEST_F(ScriptedFixture, TerminalFallbackStepEndsWalkBeforeDestination) {
  // The fallback step is marked terminal (Chord's "stepped past the
  // target"): the walk ends at 5 even though 5 is not the destination.
  ov.fallbacks[0] = {{4, 0.0, false}, {5, 1.0, true}};
  net.SetOnline(4, false);
  LookupResult r = ov.Lookup(0, 5);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.terminus, 5u);
  EXPECT_EQ(r.hops, 1u);
  EXPECT_EQ(r.failed_probes, 1u);
  EXPECT_EQ(r.messages, 3u);  // 2 probes + reply
}

TEST_F(ScriptedFixture, ExhaustionFailsTheLookup) {
  ov.candidates[0] = {{1, 5.0, false}};
  net.SetOnline(1, false);
  LookupResult r = ov.Lookup(0, 5);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.terminus, 0u);
  EXPECT_EQ(r.failed_probes, 1u);
  EXPECT_TRUE(r.responsible_online);  // set on every path
}

TEST_F(ScriptedFixture, HopLimitHonoursLenience) {
  // 0 -> 1 -> 2 -> ... -> dest, but the budget is 2 hops.
  for (net::PeerId p = 0; p < 9; ++p) {
    ov.candidates[p] = {{static_cast<net::PeerId>(p + 1), 1.0, false}};
  }
  ov.hop_limit = 2;
  ov.lenient = false;
  LookupResult strict = ov.Lookup(0, 5);
  EXPECT_FALSE(strict.success);
  EXPECT_EQ(strict.terminus, 2u);

  ov.advances.clear();
  ov.lenient = true;
  LookupResult lenient = ov.Lookup(0, 5);
  EXPECT_TRUE(lenient.success);
  EXPECT_EQ(lenient.terminus, 2u);
  EXPECT_EQ(lenient.hops, 2u);
}

TEST_F(ScriptedFixture, EmptyOverlayFailsWithDefaultResult) {
  ov.SetMembers({});
  LookupResult r = ov.Lookup(0, 5);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.responsible, net::kInvalidPeer);
  EXPECT_EQ(r.messages, 0u);
}

// --- End-to-end policy behaviour on real backends ----------------------

/// Two identically seeded P-Grid overlays under a latency network; the
/// route-PNS one must spend less link latency for the same workload (all
/// refs of a trie level share one progress class, so PNS has real
/// freedom on every hop).
TEST(RoutePnsEndToEnd, PGridRoutePnsLowersProbedLatency) {
  auto run_total_latency = [](bool pns) {
    CounterRegistry counters;
    net::Network net(&counters);
    sim::EventQueue events;
    net::LatencyConfig cfg;
    net::LatencyDelivery model(cfg, 77);
    net.SetDeliveryModel(&model, &events);
    PGridConfig pc;
    pc.refs_per_level = 4;
    pc.max_leaf_peers = 2;
    PGridOverlay grid(&net, Rng(5), pc);
    std::vector<net::PeerId> members;
    for (net::PeerId p = 0; p < 128; ++p) {
      members.push_back(p);
      net.SetOnline(p, true);
    }
    grid.SetMembers(members);
    if (pns) {
      RoutingPolicy policy;
      policy.proximity = true;
      policy.rtt = [&model](net::PeerId a, net::PeerId b) {
        return model.RttMs(a, b);
      };
      grid.SetRoutingPolicy(std::move(policy));
    }
    uint64_t hops = 0;
    for (uint64_t key = 0; key < 400; ++key) {
      LookupResult r = grid.Lookup(key % 128, key * 2654435761ull);
      EXPECT_TRUE(r.success);
      hops += r.hops;
    }
    return std::pair<double, uint64_t>(net.total_latency_s(), hops);
  };
  auto [blind_latency, blind_hops] = run_total_latency(false);
  auto [pns_latency, pns_hops] = run_total_latency(true);
  // Cheaper links per hop, clearly: >= 15% per-hop latency win (total
  // hops may shift slightly -- refs of one level can match the key to
  // different depths -- so the per-hop ratio is the PNS claim).
  const double blind_per_hop =
      blind_latency / static_cast<double>(blind_hops);
  const double pns_per_hop = pns_latency / static_cast<double>(pns_hops);
  EXPECT_LT(pns_per_hop, 0.85 * blind_per_hop)
      << "blind " << blind_per_hop << " s/hop vs pns " << pns_per_hop;
  EXPECT_LT(pns_latency, blind_latency);
}

/// Alpha-concurrent Kademlia: more lookup messages, never worse hop
/// counts, bit-identical across repeated runs (deterministic
/// tie-breaks).
TEST(AlphaLookupEndToEnd, KademliaAlphaIsDeterministicAndBoundedParallel) {
  auto run = [](uint32_t alpha) {
    CounterRegistry counters;
    net::Network net(&counters);
    KademliaOverlay kad(&net, Rng(9), /*bucket_size=*/4, alpha);
    std::vector<net::PeerId> members;
    for (net::PeerId p = 0; p < 160; ++p) {
      members.push_back(p);
      net.SetOnline(p, true);
    }
    kad.SetMembers(members);
    for (net::PeerId p = 0; p < 160; p += 4) net.SetOnline(p, false);
    struct Totals {
      uint64_t hops = 0, failed = 0, messages = 0, checksum = 0;
    } t;
    for (uint64_t key = 0; key < 250; ++key) {
      net::PeerId origin = 1 + 2 * (key % 70);
      if (!net.IsOnline(origin)) origin += 2;
      LookupResult r = kad.Lookup(origin, key);
      t.hops += r.hops;
      t.failed += r.failed_probes;
      t.messages += r.messages;
      t.checksum = (t.checksum ^ (r.terminus + r.hops)) * 1099511628211ull;
    }
    return t;
  };
  auto seq = run(1);
  auto par_a = run(3);
  auto par_b = run(3);
  // Deterministic: identical walk under identical inputs.
  EXPECT_EQ(par_a.checksum, par_b.checksum);
  EXPECT_EQ(par_a.messages, par_b.messages);
  // Parallel probing spends more messages to stall less.
  EXPECT_GT(par_a.messages, seq.messages);
  EXPECT_LE(par_a.hops, seq.hops);
}

}  // namespace
}  // namespace pdht::overlay
