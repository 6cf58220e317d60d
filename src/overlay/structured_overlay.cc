#include "overlay/structured_overlay.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "overlay/can/can.h"
#include "overlay/dht/chord.h"
#include "overlay/dht/kademlia.h"
#include "overlay/pgrid/pgrid.h"
#include "sim/shard_pool.h"
#include "util/hash.h"

namespace pdht::overlay {

StructuredOverlay::StructuredOverlay(net::Network* network)
    : network_(network), driver_(network) {
  assert(network != nullptr);
}

LookupResult StructuredOverlay::Lookup(net::PeerId origin, uint64_t key) {
  return driver_.Route(*this, origin, key);
}

net::PeerId StructuredOverlay::RandomOnlineMember(Rng& rng) const {
  const std::vector<net::PeerId>& mem = members();
  if (mem.empty()) return net::kInvalidPeer;
  for (int attempt = 0; attempt < 64; ++attempt) {
    net::PeerId p = mem[rng.UniformU64(mem.size())];
    if (network_->IsOnline(p)) return p;
  }
  for (net::PeerId p : mem) {
    if (network_->IsOnline(p)) return p;
  }
  return net::kInvalidPeer;
}

uint64_t StructuredOverlay::RunMaintenanceRound(double env) {
  const uint32_t num_tasks = PlanMaintenanceRound(env);
  Rng& rng = MaintenanceRng();
  for (uint32_t task = 0; task < num_tasks; ++task) {
    ExecuteMaintenanceTask(task, rng);
  }
  return FinishMaintenanceRound();
}

/// Maintenance planner chunk: fixed size so the chunk partition -- and
/// with it every task offset -- is a pure function of the member count,
/// never of the pool.
constexpr uint32_t kMaintPlanChunk = 8192;

uint32_t StructuredOverlay::PlanMaintenanceRound(double env,
                                                 sim::ShardPool* pool) {
  const std::vector<net::PeerId>& mem = members();
  const uint32_t num_slots = static_cast<uint32_t>(mem.size());
  const uint32_t num_chunks =
      (num_slots + kMaintPlanChunk - 1) / kMaintPlanChunk;
  auto run_chunks = [&](const auto& body) {
    if (pool != nullptr) {
      pool->Run(num_chunks,
                [&body](uint32_t /*w*/, uint32_t chunk) { body(chunk); });
    } else {
      for (uint32_t chunk = 0; chunk < num_chunks; ++chunk) body(chunk);
    }
  };
  maint_budget_.resize(num_slots, 0.0);
  maint_probes_.resize(num_slots);
  maint_chunk_base_.assign(num_chunks, 0);
  // Pass A (parallel): accrue each member's budget, record its whole
  // probes, count the chunk's tasks.  Every array is indexed by slot, so
  // each chunk reads and writes only its own contiguous range.
  run_chunks([&](uint32_t chunk) {
    const uint32_t begin = chunk * kMaintPlanChunk;
    const uint32_t end = std::min(num_slots, begin + kMaintPlanChunk);
    uint32_t tasks = 0;
    for (uint32_t slot = begin; slot < end; ++slot) {
      maint_probes_[slot] = 0;
      const net::PeerId peer = mem[slot];
      if (!network_->IsOnline(peer)) continue;
      const size_t table_size = MemberTableSize(slot);
      if (table_size == 0) continue;
      double& budget = maint_budget_[slot];
      budget += env * static_cast<double>(table_size);
      // floor + subtract leaves the same residual as spending the budget
      // one probe at a time (subtracting an integer from a double this
      // size is exact).
      const uint32_t probes = static_cast<uint32_t>(budget);
      budget -= static_cast<double>(probes);
      maint_probes_[slot] = probes;
      if (probes > 0) ++tasks;
    }
    maint_chunk_base_[chunk] = tasks;
  });
  // Serial seam: exclusive prefix sum of the chunk counts = each chunk's
  // first task index.
  uint32_t total = 0;
  for (uint32_t& base : maint_chunk_base_) {
    const uint32_t tasks = base;
    base = total;
    total += tasks;
  }
  // At most one task per member: reserving for every slot means the list
  // never reallocates as its count drifts from round to round (each
  // exact-size regrowth would leave a freed multi-MB block behind).
  maint_tasks_.reserve(num_slots);
  maint_tasks_.resize(total);
  // Pass B (parallel): each chunk writes its tasks, in slot order, at its
  // offset.
  run_chunks([&](uint32_t chunk) {
    const uint32_t begin = chunk * kMaintPlanChunk;
    const uint32_t end = std::min(num_slots, begin + kMaintPlanChunk);
    uint32_t task = maint_chunk_base_[chunk];
    for (uint32_t slot = begin; slot < end; ++slot) {
      if (maint_probes_[slot] > 0) {
        maint_tasks_[task++] = MaintTask{slot, maint_probes_[slot]};
      }
    }
  });
  return total;
}

void StructuredOverlay::ExecuteMaintenanceTask(uint32_t task, Rng& rng) {
  const MaintTask t = maint_tasks_[task];
  const MaintenanceStats st =
      ProbeMember(t.slot, members()[t.slot], t.probes, rng);
  assert(CurrentLookupSlot() < maint_slot_stats_.size());
  MaintenanceStats& acc = maint_slot_stats_[CurrentLookupSlot()].stats;
  acc.probes_sent += st.probes_sent;
  acc.stale_detected += st.stale_detected;
  acc.repairs += st.repairs;
}

uint64_t StructuredOverlay::FinishMaintenanceRound() {
  uint64_t probes = 0;
  for (SlotMaintStats& s : maint_slot_stats_) {
    maint_stats_.probes_sent += s.stats.probes_sent;
    maint_stats_.stale_detected += s.stats.stale_detected;
    maint_stats_.repairs += s.stats.repairs;
    probes += s.stats.probes_sent;
    s.stats = MaintenanceStats{};
  }
  maint_tasks_.clear();
  return probes;
}

void StructuredOverlay::SendProbe(net::PeerId from, net::PeerId to) {
  net::Message probe;
  probe.type = net::MessageType::kRoutingProbe;
  probe.from = from;
  probe.to = to;
  network_->Send(probe);
}

void StructuredOverlay::ResponsiblePeersInto(
    uint64_t key, uint32_t count, std::vector<net::PeerId>* out) const {
  // "Index and content are replicated with the same factor" (Section 4)
  // and content replication is random.  The responsible member (the
  // lookup terminus) is replica 0 -- the insertion point -- and the
  // remaining count-1 replicas are hash-derived members, which spreads
  // the storage load uniformly.
  out->clear();
  const std::vector<net::PeerId>& mem = members();
  net::PeerId responsible = ResponsibleMember(key);
  if (responsible == net::kInvalidPeer || mem.empty()) return;
  uint32_t want = static_cast<uint32_t>(
      std::min<uint64_t>(count, mem.size()));
  out->reserve(want);
  out->push_back(responsible);
  uint64_t salt = 0;
  while (out->size() < want && salt < 16ull * want) {
    net::PeerId cand = mem[Mix64(HashCombine(key, ++salt)) % mem.size()];
    if (std::find(out->begin(), out->end(), cand) == out->end()) {
      out->push_back(cand);
    }
  }
}

namespace {

std::unique_ptr<StructuredOverlay> MakeChord(net::Network* network,
                                             const OverlayParams& /*params*/,
                                             Rng rng) {
  return std::make_unique<ChordOverlay>(network, rng);
}

std::unique_ptr<StructuredOverlay> MakePGrid(net::Network* network,
                                             const OverlayParams& params,
                                             Rng rng) {
  PGridConfig pc;
  pc.refs_per_level = 4;
  uint64_t population = std::max<uint64_t>(params.num_peers, 1);
  pc.max_leaf_peers = static_cast<uint32_t>(
      std::max<uint64_t>(1, std::min(params.repl, population)));
  return std::make_unique<PGridOverlay>(network, rng, pc);
}

std::unique_ptr<StructuredOverlay> MakeCan(net::Network* network,
                                           const OverlayParams& /*params*/,
                                           Rng rng) {
  return std::make_unique<CanOverlay>(network, rng);
}

std::unique_ptr<StructuredOverlay> MakeKademlia(net::Network* network,
                                                const OverlayParams& params,
                                                Rng rng) {
  return std::make_unique<KademliaOverlay>(
      network, rng, std::max<uint32_t>(1, params.kademlia_bucket_size),
      std::max<uint32_t>(1, params.kademlia_alpha));
}

/// Enum-keyed factory table.  A function-local static (not per-TU static
/// registrar objects) so registration survives static-library linking and
/// has no initialization-order hazards.
std::map<core::DhtBackend, OverlayFactory>& Registry() {
  static std::map<core::DhtBackend, OverlayFactory> registry = {
      {core::DhtBackend::kChord, &MakeChord},
      {core::DhtBackend::kPGrid, &MakePGrid},
      {core::DhtBackend::kCan, &MakeCan},
      {core::DhtBackend::kKademlia, &MakeKademlia},
  };
  return registry;
}

}  // namespace

bool RegisterOverlay(core::DhtBackend backend, OverlayFactory factory) {
  if (factory == nullptr) return false;
  return Registry().emplace(backend, factory).second;
}

bool IsRegisteredBackend(core::DhtBackend backend) {
  return Registry().count(backend) > 0;
}

std::vector<core::DhtBackend> RegisteredBackends() {
  std::vector<core::DhtBackend> out;
  out.reserve(Registry().size());
  for (const auto& [backend, factory] : Registry()) {
    (void)factory;
    out.push_back(backend);
  }
  return out;
}

std::unique_ptr<StructuredOverlay> MakeOverlay(core::DhtBackend backend,
                                               net::Network* network,
                                               const OverlayParams& params,
                                               Rng rng) {
  auto it = Registry().find(backend);
  if (it == Registry().end()) return nullptr;
  return it->second(network, params, rng);
}

std::unique_ptr<StructuredOverlay> MakeOverlay(const std::string& name,
                                               net::Network* network,
                                               const OverlayParams& params,
                                               Rng rng) {
  core::DhtBackend backend;
  if (!core::ParseDhtBackend(name, &backend)) return nullptr;
  return MakeOverlay(backend, network, params, rng);
}

}  // namespace pdht::overlay
