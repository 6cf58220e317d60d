#include "layer_probes.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>

#include "core/ttl_index.h"
#include "net/delivery_model.h"
#include "net/network.h"
#include "overlay/structured_overlay.h"
#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/shard_pool.h"
#include "stats/counter.h"
#include "util/hash.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using pdht::Rng;
using pdht::net::PeerId;

double ElapsedNs(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Keeps timed loops from being folded away.
volatile uint64_t g_sink = 0;

/// Input-side randomness (keys, origins) follows --seed.
Rng ProbeRng(const Workload& w, uint64_t tag) {
  return Rng(pdht::Mix64(pdht::HashCombine(w.input_seed, tag)));
}

/// Structure-side randomness (overlay ids, online set) follows the
/// workload's fixed system seed, like the system under test.
Rng SystemRng(const Workload& w, uint64_t tag) {
  return Rng(pdht::Mix64(pdht::HashCombine(w.config.seed, tag)));
}

void Put(Results* out, const char* name, double value, uint64_t n) {
  (*out)[name] = Sampled{value, n};
}

/// Median of per-batch ns/op over `batches` batches of `ops` calls of fn.
template <typename Fn>
double MedianNsPerOp(int batches, int ops, Fn&& fn) {
  std::vector<double> per_op;
  per_op.reserve(batches);
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < ops; ++i) fn(i);
    per_op.push_back(ElapsedNs(t0) / ops);
  }
  return Median(per_op);
}

void ProbeOverlay(const Workload& w, const std::vector<PeerId>& members,
                  SpanRecorder& spans, Results* out,
                  std::vector<std::string>* failures) {
  const pdht::core::SystemConfig& c = w.config;
  ScopedSpan probe(spans, "probe.overlay");
  pdht::CounterRegistry counters;
  pdht::net::Network network(&counters);
  pdht::sim::EventQueue events;
  // Online set: the churn model's initial draw, as a system starts.
  pdht::sim::ChurnModel churn(static_cast<uint32_t>(c.params.num_peers),
                              c.churn, SystemRng(w, 0x6f6e6c6eULL));
  for (uint32_t p = 0; p < c.params.num_peers; ++p) {
    network.SetOnline(p, churn.IsOnline(p));
  }
  std::unique_ptr<pdht::net::LatencyDelivery> latency;
  if (c.delivery_model == pdht::net::DeliveryModelKind::kLatency) {
    // Same topology seed derivation as PdhtSystem (latency_seed 0 ties
    // the coordinate space to the run seed).
    const uint64_t topo_seed =
        c.latency_seed != 0
            ? c.latency_seed
            : pdht::Mix64(pdht::HashCombine(c.seed, 0x64656c6179ULL));
    latency =
        std::make_unique<pdht::net::LatencyDelivery>(c.latency, topo_seed);
    network.SetDeliveryModel(latency.get(), &events);
  }
  const pdht::net::DeliveryModel* model = latency.get();

  pdht::overlay::OverlayParams op;
  op.repl = c.params.repl;
  op.num_peers = c.params.num_peers;
  op.kademlia_bucket_size = c.kademlia_bucket_size;
  op.kademlia_alpha = c.kademlia_alpha;
  // The routing policy PdhtSystem installs for this configuration.
  pdht::overlay::RoutingPolicy rp;
  if (model != nullptr) {
    rp.proximity = c.proximity_routing && c.route_proximity;
    rp.timeout_costing = c.timeout_costing;
    rp.replica_route = c.replica_route;
    rp.replica_count = static_cast<uint32_t>(c.params.repl);
    if (rp.proximity || rp.replica_route) {
      rp.rtt = [model](PeerId a, PeerId b) { return model->RttMs(a, b); };
    }
  }

  std::unique_ptr<pdht::overlay::StructuredOverlay> overlay;
  {
    ScopedSpan s(spans, "overlay.MakeOverlay+SetMembers");
    const auto t0 = Clock::now();
    overlay = pdht::overlay::MakeOverlay(c.backend, &network, op,
                                         SystemRng(w, 0x6f766c79ULL));
    if (model != nullptr && c.proximity_routing) {
      overlay->SetPeerRtt(
          [model](PeerId a, PeerId b) { return model->RttMs(a, b); });
    }
    overlay->SetRoutingPolicy(rp);
    overlay->SetMembers(members);
    Put(out, "overlay.set_members_s", ElapsedNs(t0) / 1e9, 1);
  }

  std::vector<double> plan_ms, exec_ms, finish_ms, tasks, msgs;
  Rng maint_rng = ProbeRng(w, 0x6d61696eULL);
  for (uint32_t r = 0; r < w.maint_rounds; ++r) {
    const uint64_t m0 = network.TotalMessages();
    uint32_t n = 0;
    if (overlay->has_sharded_maintenance()) {
      auto t0 = Clock::now();
      {
        ScopedSpan s(spans, "overlay.PlanMaintenanceRound");
        n = overlay->PlanMaintenanceRound(c.params.env);
      }
      plan_ms.push_back(ElapsedNs(t0) / 1e6);
      t0 = Clock::now();
      {
        ScopedSpan s(spans, "overlay.ExecuteMaintenanceTask[round]");
        for (uint32_t t = 0; t < n; ++t) {
          overlay->ExecuteMaintenanceTask(t, maint_rng);
        }
      }
      exec_ms.push_back(ElapsedNs(t0) / 1e6);
      t0 = Clock::now();
      {
        ScopedSpan s(spans, "overlay.FinishMaintenanceRound");
        overlay->FinishMaintenanceRound();
      }
      finish_ms.push_back(ElapsedNs(t0) / 1e6);
    } else {
      // Serial-only backend: the whole round counts as execution.
      const auto t0 = Clock::now();
      ScopedSpan s(spans, "overlay.RunMaintenanceRound");
      overlay->RunMaintenanceRound(c.params.env);
      exec_ms.push_back(ElapsedNs(t0) / 1e6);
      plan_ms.push_back(0.0);
      finish_ms.push_back(0.0);
    }
    events.RunAll();
    tasks.push_back(n);
    msgs.push_back(static_cast<double>(network.TotalMessages() - m0));
  }
  const uint64_t rounds = w.maint_rounds;
  Put(out, "overlay.maint_plan_ms", Median(plan_ms), rounds);
  Put(out, "overlay.maint_exec_ms", Median(exec_ms), rounds);
  Put(out, "overlay.maint_finish_ms", Median(finish_ms), rounds);
  Put(out, "overlay.maint_tasks", Median(tasks), rounds);
  Put(out, "overlay.msgs_maint_per_round", Median(msgs), rounds);

  std::vector<double> lookup_us;
  lookup_us.reserve(w.lookup_probes);
  uint64_t hops = 0;
  uint64_t success = 0;
  Rng rng = ProbeRng(w, 0x6c6f6f6bULL);
  for (uint32_t i = 0; i < w.lookup_probes; ++i) {
    const PeerId origin = overlay->RandomOnlineMember(rng);
    const uint64_t key = rng.UniformU64(c.params.keys);
    if (origin == pdht::net::kInvalidPeer) continue;
    const auto t0 = Clock::now();
    pdht::overlay::LookupResult res;
    {
      ScopedSpan s(spans, "overlay.Lookup");
      res = overlay->Lookup(origin, key);
    }
    lookup_us.push_back(ElapsedNs(t0) / 1e3);
    hops += res.hops;
    success += res.success ? 1 : 0;
    if (i % 256 == 255) events.RunAll();  // keep the deferred queue short
  }
  events.RunAll();
  const double n_lookups = static_cast<double>(lookup_us.size());
  Put(out, "overlay.lookup_us_p50", Median(lookup_us),
      lookup_us.size());
  Put(out, "overlay.lookup_hops_mean",
      n_lookups > 0 ? static_cast<double>(hops) / n_lookups : 0.0,
      lookup_us.size());
  Put(out, "overlay.lookup_success_frac",
      n_lookups > 0 ? static_cast<double>(success) / n_lookups : 0.0,
      lookup_us.size());

  const std::string err = overlay->CheckInvariants();
  if (!err.empty()) {
    failures->push_back("standalone overlay CheckInvariants: " + err);
  }
}

void ProbeShardPool(const Workload& w, SpanRecorder& spans, Results* out) {
  ScopedSpan probe(spans, "probe.sim.shard_pool");
  const uint32_t threads = std::max<uint32_t>(1, w.config.sim_threads);
  pdht::sim::ShardPool pool(threads);
  // One empty task per thread that returns only once every task has
  // started, so each Run pays the full wake-up and join of all workers
  // (a plain no-op batch is claimed by the caller before they wake).
  std::atomic<uint32_t> started{0};
  const pdht::sim::ShardPool::TaskFn rendezvous = [&](uint32_t, uint32_t) {
    started.fetch_add(1, std::memory_order_acq_rel);
    while (started.load(std::memory_order_acquire) < threads) {
    }
  };
  constexpr int kRuns = 2000;
  std::vector<double> us;
  us.reserve(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    started.store(0, std::memory_order_relaxed);
    const auto t0 = Clock::now();
    {
      ScopedSpan s(spans, "sim.ShardPool::Run");
      pool.Run(threads, rendezvous);
    }
    us.push_back(ElapsedNs(t0) / 1e3);
  }
  Put(out, "sim.shard_pool.barrier_us", Median(us), kRuns);
}

void ProbeEventQueue(const Workload& w, double deferred_per_round,
                     SpanRecorder& spans, Results* out) {
  ScopedSpan probe(spans, "probe.sim.event_queue");
  const uint64_t per_round =
      static_cast<uint64_t>(std::llround(deferred_per_round));
  if (per_round == 0) {
    // Immediate delivery defers nothing: there is no queue work to time.
    Put(out, "sim.event_queue.ns_per_event", 0.0, 0);
    return;
  }
  pdht::sim::EventQueue queue;
  Rng rng = ProbeRng(w, 0x65767471ULL);
  std::vector<double> offsets(per_round);  // sub-round delivery delays
  for (double& d : offsets) d = rng.UniformDouble();
  constexpr int kRounds = 20;
  std::vector<double> ns;
  for (int r = 0; r < kRounds; ++r) {
    const double start = static_cast<double>(r);
    const auto t0 = Clock::now();
    ScopedSpan s(spans, "sim.EventQueue::ScheduleAt+DrainBoundary");
    for (uint64_t i = 0; i < per_round; ++i) {
      queue.ScheduleAt(start + offsets[i], [] { g_sink = g_sink + 1; },
                       static_cast<uint32_t>(i));
    }
    queue.DrainBoundary(start + 1.0);
    ns.push_back(ElapsedNs(t0) / static_cast<double>(per_round));
  }
  Put(out, "sim.event_queue.ns_per_event", Median(ns),
      kRounds * per_round);
}

void ProbeChurn(const Workload& w, SpanRecorder& spans, Results* out) {
  ScopedSpan probe(spans, "probe.sim.churn");
  const pdht::core::SystemConfig& c = w.config;
  pdht::sim::ChurnModel churn(static_cast<uint32_t>(c.params.num_peers),
                              c.churn, SystemRng(w, 0x63686e70ULL));
  uint64_t flips = 0;
  churn.AddObserver(
      [](void* ctx, uint32_t, bool, double) {
        ++*static_cast<uint64_t*>(ctx);
      },
      &flips);
  constexpr int kRounds = 200;
  std::vector<double> us;
  us.reserve(kRounds);
  for (int r = 1; r <= kRounds; ++r) {
    const auto t0 = Clock::now();
    ScopedSpan s(spans, "sim.ChurnModel::AdvanceTo");
    churn.AdvanceTo(static_cast<double>(r));
    us.push_back(ElapsedNs(t0) / 1e3);
  }
  Put(out, "sim.churn.advance_us", Median(us), kRounds);
  Put(out, "sim.churn.flips_per_round",
      static_cast<double>(flips) / kRounds, kRounds);
}

void ProbeCounters(const Workload& w, SpanRecorder& spans, Results* out) {
  ScopedSpan probe(spans, "probe.stats.counter_add");
  // A registry the size of a running system's (message types, outcome
  // tallies), hit in a seeded pseudo-random order.
  pdht::CounterRegistry registry;
  std::vector<pdht::CounterId> ids;
  for (int i = 0; i < 48; ++i) {
    ids.push_back(registry.Intern("msg.probe." + std::to_string(i)));
  }
  Rng rng = ProbeRng(w, 0x63746572ULL);
  std::vector<pdht::CounterId> order(4096);
  for (auto& id : order) id = ids[rng.UniformU64(ids.size())];
  const double ns = MedianNsPerOp(
      64, 1 << 16, [&](int i) { registry.Add(order[i & 4095]); });
  g_sink = g_sink + registry.Total();
  Put(out, "stats.counter_add_ns", ns, 64ull << 16);
}

}  // namespace

QueryBatch RunQueryBatch(pdht::core::PdhtSystem& sys, const Workload& w,
                         uint64_t n, uint64_t tag, SpanRecorder& spans) {
  QueryBatch b;
  b.call_us.reserve(n);
  Rng rng = ProbeRng(w, tag);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t key = sys.workload().SampleKey(rng);
    const auto t0 = Clock::now();
    pdht::core::QueryOutcome q;
    {
      ScopedSpan s(spans, "core.PdhtSystem::ExecuteQuery");
      q = sys.ExecuteQuery(key);
    }
    b.call_us.push_back(ElapsedNs(t0) / 1e3);
    ++b.n;
    b.found += q.found ? 1 : 0;
    b.from_index += q.answered_from_index ? 1 : 0;
    b.messages += q.index_messages + q.unstructured_messages;
  }
  return b;
}

void ProbeSystemLayers(pdht::core::PdhtSystem& sys, const Workload& w,
                       SpanRecorder& spans, Results* out) {
  {
    ScopedSpan probe(spans, "probe.stats.snapshot");
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      ScopedSpan s(spans, "stats.PdhtSystem::Snapshot");
      g_sink = g_sink + sys.Snapshot(w.window_rounds).series_tail.size();
      ms.push_back(ElapsedNs(t0) / 1e6);
    }
    Put(out, "stats.snapshot_ms", Median(ms), ms.size());
  }

  // Seeded keys at the workload's popularity, shared by the probes below.
  const pdht::metadata::QueryWorkload& workload = sys.workload();
  Rng rng = ProbeRng(w, 0x6b657973ULL);
  std::vector<uint64_t> keys(1 << 16);
  for (uint64_t& k : keys) k = workload.SampleKey(rng);
  const int mask = static_cast<int>(keys.size()) - 1;

  {
    ScopedSpan probe(spans, "probe.metadata.sample_key");
    uint64_t sum = 0;
    const double ns = MedianNsPerOp(
        32, 1 << 15, [&](int) { sum += workload.SampleKey(rng); });
    g_sink = g_sink + sum;
    Put(out, "metadata.sample_key_ns", ns, 32ull << 15);
  }

  const uint64_t stor = w.config.params.stor;
  const double ttl = sys.EffectiveKeyTtl();
  {
    // Query-driven refresh at one index of capacity stor: Touch on a
    // hit, Put (possibly displacing) on a miss.
    ScopedSpan probe(spans, "probe.core.ttl_index.put_touch");
    pdht::core::TtlIndex index(stor);
    double now = 0.0;
    const double ns = MedianNsPerOp(64, 4096, [&](int i) {
      const uint64_t key = keys[i & mask];
      if (!index.Touch(key, now, ttl)) index.Put(key, now, ttl);
      now += 1e-3;
    });
    Put(out, "core.ttl_index.put_touch_ns", ns, 64 * 4096);
  }
  {
    // A full index of stor keys with staggered expiries, all evicted.
    ScopedSpan probe(spans, "probe.core.ttl_index.evict");
    constexpr int kReps = 2000;
    std::vector<double> ns;
    ns.reserve(kReps);
    size_t next = 0;
    uint64_t evicted_total = 0;
    for (int r = 0; r < kReps; ++r) {
      pdht::core::TtlIndex index(stor);
      for (uint64_t j = 0; j < stor; ++j) {
        const double expiry = 1.0 + 1e-3 * static_cast<double>(j);
        index.Put(keys[next++ & mask], 0.0, expiry);
      }
      const auto t0 = Clock::now();
      const uint64_t evicted = index.EvictExpired(1e18);
      const double dt = ElapsedNs(t0);
      evicted_total += evicted;
      if (evicted > 0) ns.push_back(dt / static_cast<double>(evicted));
    }
    Put(out, "core.ttl_index.evict_ns_per_key", Median(ns),
        evicted_total);
  }
}

void ProbeStandaloneLayers(const Workload& w,
                           const std::vector<PeerId>& members,
                           double deferred_per_round, SpanRecorder& spans,
                           Results* out, std::vector<std::string>* failures) {
  ProbeOverlay(w, members, spans, out, failures);
  ProbeShardPool(w, spans, out);
  ProbeEventQueue(w, deferred_per_round, spans, out);
  ProbeChurn(w, spans, out);
  ProbeCounters(w, spans, out);
}

}  // namespace perfbench
