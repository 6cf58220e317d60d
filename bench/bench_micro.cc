// google-benchmark microbenchmarks for the hot primitives of the library:
// RNG, Zipf sampling, TTL-index operations, Chord lookups and successor
// search, maintenance planning and execution, content placement and its
// oracle, analytical model evaluation.  These guard the simulator's
// throughput (a 20,000-peer run issues millions of these operations).

#include <benchmark/benchmark.h>

#include "core/ttl_index.h"
#include "model/cost_model.h"
#include "model/selection_model.h"
#include "net/network.h"
#include "overlay/dht/chord.h"
#include "overlay/unstructured/replication.h"
#include "sim/shard_pool.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace {

using namespace pdht;

void BM_RngNext(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_RngUniformBounded(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.UniformU64(12345));
  }
}
BENCHMARK(BM_RngUniformBounded);

void BM_ZipfTableSample(benchmark::State& state) {
  ZipfSampler z(static_cast<uint64_t>(state.range(0)), 1.2);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Sample(rng));
  }
}
BENCHMARK(BM_ZipfTableSample)->Arg(1000)->Arg(40000);

void BM_ZipfRejectionSample(benchmark::State& state) {
  ZipfRejectionSampler z(static_cast<uint64_t>(state.range(0)), 1.2);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.Sample(rng));
  }
}
BENCHMARK(BM_ZipfRejectionSample)->Arg(1000)->Arg(40000);

void BM_TtlIndexPutTouch(benchmark::State& state) {
  core::TtlIndex idx(static_cast<uint64_t>(state.range(0)));
  Rng rng(5);
  double now = 0.0;
  for (auto _ : state) {
    now += 0.001;
    uint64_t key = rng.UniformU64(1000);
    if (!idx.Touch(key, now, 100.0)) {
      idx.Put(key, now, 100.0);
    }
  }
}
BENCHMARK(BM_TtlIndexPutTouch)->Arg(0)->Arg(100);

void BM_TtlIndexEvictExpired(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    core::TtlIndex idx;
    for (uint64_t k = 0; k < 1000; ++k) {
      idx.Put(k, 0.0, 1.0 + static_cast<double>(k % 10));
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(idx.EvictExpired(100.0));
  }
}
BENCHMARK(BM_TtlIndexEvictExpired);

void BM_ChordLookup(benchmark::State& state) {
  CounterRegistry counters;
  net::Network net(&counters);
  overlay::ChordOverlay chord(&net, Rng(6));
  uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<net::PeerId> members;
  for (uint32_t i = 0; i < n; ++i) {
    members.push_back(i);
    net.SetOnline(i, true);
  }
  chord.SetMembers(members);
  Rng pick(7);
  for (auto _ : state) {
    overlay::LookupResult r = chord.Lookup(
        static_cast<net::PeerId>(pick.UniformU64(n)), pick.Next());
    benchmark::DoNotOptimize(r.hops);
  }
}
BENCHMARK(BM_ChordLookup)->Arg(256)->Arg(1024)->Arg(4096);

// Successor search (ResponsibleMember = successor(KeyToNodeId(key))), the
// inner step of every finger repair, table build and lookup start.
void BM_ChordSuccessorIndex(benchmark::State& state) {
  CounterRegistry counters;
  net::Network net(&counters);
  overlay::ChordOverlay chord(&net, Rng(6));
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<net::PeerId> members(n);
  for (uint32_t i = 0; i < n; ++i) members[i] = i;
  chord.SetMembers(members);
  Rng pick(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chord.ResponsibleMember(pick.Next()));
  }
}
BENCHMARK(BM_ChordSuccessorIndex)->Arg(1000)->Arg(100000)->Arg(1000000);

// The maintenance planner alone: budget accrual and task-list build over
// 100k Chord members (every 4th offline), inline and on a 4-thread pool.
void BM_PlanMaintenanceRound(benchmark::State& state) {
  CounterRegistry counters;
  net::Network net(&counters);
  overlay::ChordOverlay chord(&net, Rng(6));
  constexpr uint32_t kMembers = 100000;
  std::vector<net::PeerId> members(kMembers);
  for (uint32_t i = 0; i < kMembers; ++i) {
    members[i] = i;
    net.SetOnline(i, i % 4 != 0);
  }
  chord.SetMembers(members);
  sim::ShardPool pool(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(chord.PlanMaintenanceRound(0.35, &pool));
    chord.FinishMaintenanceRound();
  }
}
BENCHMARK(BM_PlanMaintenanceRound)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

// The maintenance execute step alone: every task of a planned round run
// inline over Chord with 100k and 1M members (every 3rd offline), timed
// per task.  Planning and the finish fold are outside the timed region.
// Eight untimed rounds first repair most entries naming offline members
// (about e^-2.8 of them stay stale), so the timed rounds probe tables
// about as live as a churning run's.
void BM_MaintenanceExecute(benchmark::State& state) {
  CounterRegistry counters;
  net::Network net(&counters);
  overlay::ChordOverlay chord(&net, Rng(6));
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  std::vector<net::PeerId> members(n);
  for (uint32_t i = 0; i < n; ++i) {
    members[i] = i;
    net.SetOnline(i, i % 3 != 0);
  }
  chord.SetMembers(members);
  constexpr double kEnv = 0.35;
  for (int round = 0; round < 8; ++round) chord.RunMaintenanceRound(kEnv);
  Rng rng(8);
  uint64_t tasks = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const uint32_t num_tasks = chord.PlanMaintenanceRound(kEnv);
    state.ResumeTiming();
    for (uint32_t t = 0; t < num_tasks; ++t) {
      chord.ExecuteMaintenanceTask(t, rng);
    }
    state.PauseTiming();
    chord.FinishMaintenanceRound();
    state.ResumeTiming();
    tasks += num_tasks;
  }
  // Seconds per task, printed with an SI prefix (n = nanoseconds).
  state.counters["time_per_task"] = benchmark::Counter(
      static_cast<double>(tasks),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_MaintenanceExecute)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

// Bulk content placement (Section 3.1: keys replicated at random peers)
// at 1/10 of churn_1m's scale: 100k peers, 200k keys, repl 10.  This is
// the largest step of PdhtSystem construction at 1M peers.
void BM_ReplicaPlacementPlaceKeys(benchmark::State& state) {
  for (auto _ : state) {
    overlay::ReplicaPlacement placement(100000, 10, Rng(9));
    placement.PlaceKeys(200000);
    benchmark::DoNotOptimize(placement.num_keys());
  }
}
BENCHMARK(BM_ReplicaPlacementPlaceKeys)->Unit(benchmark::kMillisecond);

// The walk search's content oracle over the same placement.  Arg 0 is
// walk-like: one key probed at 128 random peers in a row (a walker's
// steps), then the next key.  Arg 1 draws a random key and peer per
// probe, so every probe lands on a cold key.
void BM_ReplicaPlacementPeerHoldsKey(benchmark::State& state) {
  constexpr uint32_t kPeers = 100000;
  constexpr uint64_t kKeys = 200000;
  overlay::ReplicaPlacement placement(kPeers, 10, Rng(9));
  placement.PlaceKeys(kKeys);
  const bool walk_like = state.range(0) == 0;
  state.SetLabel(walk_like ? "walk_like" : "random");
  Rng rng(10);
  uint64_t key = rng.UniformU64(kKeys);
  uint32_t step = 0;
  for (auto _ : state) {
    if (!walk_like || ++step == 128) {
      key = rng.UniformU64(kKeys);
      step = 0;
    }
    const auto peer = static_cast<net::PeerId>(rng.UniformU64(kPeers));
    benchmark::DoNotOptimize(placement.PeerHoldsKey(peer, key));
  }
}
BENCHMARK(BM_ReplicaPlacementPeerHoldsKey)->Arg(0)->Arg(1);

void BM_CostModelEvaluate(benchmark::State& state) {
  model::ScenarioParams p;
  model::CostModel m(p);
  double f = 1.0 / 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.Evaluate(f).partial);
  }
}
BENCHMARK(BM_CostModelEvaluate);

void BM_SelectionModelEvaluate(benchmark::State& state) {
  model::ScenarioParams p;
  model::SelectionModel sel(p);
  double f = 1.0 / 300;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.Evaluate(f).partial);
  }
}
BENCHMARK(BM_SelectionModelEvaluate);

}  // namespace

BENCHMARK_MAIN();
