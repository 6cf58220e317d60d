#include "overlay/structured_overlay.h"

#include <algorithm>
#include <cassert>
#include <map>

#include "overlay/can/can.h"
#include "overlay/dht/chord.h"
#include "overlay/dht/kademlia.h"
#include "overlay/pgrid/pgrid.h"
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

uint32_t StructuredOverlay::PlanMaintenanceRound(double env) {
  maint_tasks_.clear();
  const std::vector<net::PeerId>& mem = members();
  for (size_t slot = 0; slot < mem.size(); ++slot) {
    const net::PeerId peer = mem[slot];
    if (!network_->IsOnline(peer)) continue;
    const size_t table_size = MemberTableSize(slot);
    if (table_size == 0) continue;
    if (peer >= maint_budget_.size()) maint_budget_.resize(peer + 1, 0.0);
    double& budget = maint_budget_[peer];
    budget += env * static_cast<double>(table_size);
    // floor + subtract leaves the same residual as spending the budget
    // one probe at a time (subtracting an integer from a double this
    // size is exact).
    const uint32_t probes = static_cast<uint32_t>(budget);
    budget -= static_cast<double>(probes);
    if (probes > 0) maint_tasks_.push_back(MaintTask{peer, probes, {}});
  }
  return static_cast<uint32_t>(maint_tasks_.size());
}

void StructuredOverlay::ExecuteMaintenanceTask(uint32_t task, Rng& rng) {
  MaintTask& t = maint_tasks_[task];
  t.stats = ProbeMember(t.peer, t.probes, rng);
}

uint64_t StructuredOverlay::FinishMaintenanceRound() {
  uint64_t probes = 0;
  for (const MaintTask& t : maint_tasks_) {
    maint_stats_.probes_sent += t.stats.probes_sent;
    maint_stats_.stale_detected += t.stats.stale_detected;
    maint_stats_.repairs += t.stats.repairs;
    probes += t.stats.probes_sent;
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
