#include "overlay/dht/chord.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "util/bits.h"
#include "util/hash.h"

namespace pdht::overlay {

ChordOverlay::ChordOverlay(net::Network* network, Rng rng,
                           uint32_t successor_list_size)
    : StructuredOverlay(network), maint_rng_(rng.Fork()),
      successor_list_size_(successor_list_size) {}

MaintenanceStats ChordOverlay::ProbeMember(size_t slot, net::PeerId peer,
                                           uint32_t probes, Rng& rng) {
  FingerTable* table = &ring_[slot].table;
  MaintenanceStats st;
  for (uint32_t i = 0; i < probes; ++i) {
    // The size is re-read per probe: a successor repair can shrink this
    // member's own list mid-task.
    const size_t total = table->size();
    if (total == 0) break;
    const size_t idx = static_cast<size_t>(rng.UniformU64(total));
    const FingerEntry& entry =
        idx < table->fingers().size()
            ? table->fingers()[idx]
            : table->successors()[idx - table->fingers().size()];
    if (entry.peer == net::kInvalidPeer) continue;
    SendProbe(peer, entry.peer);
    ++st.probes_sent;
    if (!network_->IsOnline(entry.peer)) {
      ++st.stale_detected;
      // Repair is free (piggybacked), per the paper's assumption.
      RepairEntry(slot, idx);
      ++st.repairs;
    }
  }
  return st;
}

uint64_t ChordOverlay::RoutingFingerprint() const {
  uint64_t h = 0x63686f7264ULL;  // "chord"
  for (const Member& m : ring_) {
    h = Mix64(HashCombine(h, HashCombine(m.id, m.peer)));
    for (const FingerEntry& f : m.table.fingers()) {
      h = Mix64(HashCombine(h, HashCombine(f.peer, f.peer_id)));
    }
    h = Mix64(HashCombine(h, m.table.successors().size()));
    for (const FingerEntry& s : m.table.successors()) {
      h = Mix64(HashCombine(h, HashCombine(s.peer, s.peer_id)));
    }
  }
  return h;
}

void ChordOverlay::SetMembers(const std::vector<net::PeerId>& members) {
  ring_.clear();
  members_cache_valid_ = false;
  ResetMaintenanceBudgets();
  ring_.reserve(members.size());
  for (net::PeerId p : members) {
    ring_.push_back(Member{PeerToNodeId(p), p, FingerTable{}});
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Member& a, const Member& b) { return a.id < b.id; });
  ReindexRing();
  for (auto& m : ring_) BuildTable(m);
  mean_rtt_ms_ = 0.0;
  if (has_peer_rtt() && ring_.size() >= 2) {
    // Sample the link-RTT scale once (deterministic pair sweep) for the
    // weighted route-PNS cost model.
    const size_t n = ring_.size();
    const size_t samples = std::min<size_t>(64, n);
    double sum = 0.0;
    for (size_t i = 0; i < samples; ++i) {
      const size_t a = (i * n) / samples;
      const size_t b = (a + n / 2) % n;
      if (a == b) continue;
      sum += PeerRtt(ring_[a].peer, ring_[b].peer);
    }
    mean_rtt_ms_ = sum / static_cast<double>(samples);
  }
}

double ChordOverlay::ProgressWeightMs() const {
  return mean_rtt_ms_ <= 0.0 ? 0.0 : 0.5 * mean_rtt_ms_ / 2.0;
}

size_t ChordOverlay::SuccessorIndex(NodeId id) const {
  assert(!ring_ids_.empty());
  // First member with member.id >= id; wraps to 0.  Ids in earlier
  // buckets are < id and ids in later ones > id, so the answer lies in
  // [start of id's bucket, start of the next one].
  const size_t b = BucketOf(id);
  const auto it = std::lower_bound(ring_ids_.begin() + bucket_start_[b],
                                   ring_ids_.begin() + bucket_start_[b + 1],
                                   id);
  if (it == ring_ids_.end()) return 0;
  return static_cast<size_t>(it - ring_ids_.begin());
}

void ChordOverlay::BuildTable(Member& m) {
  m.table.Clear();
  if (ring_.size() <= 1) return;
  // Fingers at offsets 2^63, 2^62, ... down to the ring's resolution.
  // ceil(log2(n)) + 2 fingers suffice to reach any region.
  int num_fingers = CeilLog2(ring_.size()) + 2;
  num_fingers = std::min(num_fingers, 56);
  auto& fingers = m.table.fingers();
  fingers.reserve(num_fingers);
  for (int i = 0; i < num_fingers; ++i) {
    NodeId offset = NodeId{1} << (63 - i);
    NodeId start = m.id + offset;  // wrapping add
    size_t si = SuccessorIndex(start);
    const Member& target = ring_[si];
    if (target.peer == m.peer) continue;  // self-pointer: useless entry
    fingers.push_back(FingerEntry{start, target.peer, target.id});
  }
  // Successor list.
  auto& succ = m.table.successors();
  const size_t my_idx = static_cast<size_t>(&m - ring_.data());
  succ.reserve(successor_list_size_);
  for (uint32_t k = 1;
       k <= successor_list_size_ && k < ring_.size(); ++k) {
    const Member& s = ring_[(my_idx + k) % ring_.size()];
    succ.push_back(FingerEntry{s.id, s.peer, s.id});
  }
}

void ChordOverlay::AddMember(net::PeerId peer) {
  if (IsMember(peer)) return;
  Member nm{PeerToNodeId(peer), peer, FingerTable{}};
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), nm.id,
      [](const Member& m, NodeId v) { return m.id < v; });
  size_t pos = static_cast<size_t>(it - ring_.begin());
  ring_.insert(it, std::move(nm));
  ReindexRing();
  members_cache_valid_ = false;
  ResetMaintenanceBudgets();
  BuildTable(ring_[pos]);
  // Join traffic: Chord's join costs O(log^2 n) messages to populate the
  // new node's table and notify affected nodes.  Count it explicitly.
  uint64_t join_msgs = 0;
  if (ring_.size() > 1) {
    int lg = CeilLog2(ring_.size());
    join_msgs = static_cast<uint64_t>(lg) * static_cast<uint64_t>(lg);
  }
  network_->CountOnly(net::MessageType::kJoin, join_msgs);
  // Repair other nodes' fingers that should now point to the new member.
  for (auto& m : ring_) {
    if (m.peer == peer) continue;
    for (auto& f : m.table.fingers()) {
      size_t si = SuccessorIndex(f.start);
      if (ring_[si].peer != f.peer) {
        f.peer = ring_[si].peer;
        f.peer_id = ring_[si].id;
      }
    }
  }
}

void ChordOverlay::RemoveMember(net::PeerId peer) {
  const uint32_t idx = RingIndexOf(peer);
  if (idx == kNotMember) return;
  ring_.erase(ring_.begin() + idx);
  ReindexRing();
  members_cache_valid_ = false;
  ResetMaintenanceBudgets();
  // Entries pointing at the departed peer are repaired lazily by
  // maintenance (or eagerly here for tests via RefreshNode).
}

bool ChordOverlay::IsMember(net::PeerId peer) const {
  return RingIndexOf(peer) != kNotMember;
}

void ChordOverlay::ReindexRing() {
  std::fill(ring_index_.begin(), ring_index_.end(), kNotMember);
  const size_t n = ring_.size();
  ring_ids_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const net::PeerId peer = ring_[i].peer;
    if (peer >= ring_index_.size()) ring_index_.resize(peer + 1, kNotMember);
    ring_index_[peer] = static_cast<uint32_t>(i);
    ring_ids_[i] = ring_[i].id;
  }
  bucket_bits_ = n <= 1 ? 0 : CeilLog2(n);
  const size_t buckets = size_t{1} << bucket_bits_;
  bucket_start_.resize(buckets + 1);
  size_t i = 0;
  for (size_t b = 0; b <= buckets; ++b) {
    while (i < n && BucketOf(ring_ids_[i]) < b) ++i;
    bucket_start_[b] = static_cast<uint32_t>(i);
  }
}

const std::vector<net::PeerId>& ChordOverlay::members_sorted_by_id() const {
  if (!members_cache_valid_) {
    members_cache_.clear();
    members_cache_.reserve(ring_.size());
    for (const auto& m : ring_) members_cache_.push_back(m.peer);
    members_cache_valid_ = true;
  }
  return members_cache_;
}

net::PeerId ChordOverlay::ResponsibleMember(uint64_t key) const {
  if (ring_.empty()) return net::kInvalidPeer;
  return ring_[SuccessorIndex(KeyToNodeId(key))].peer;
}

std::vector<net::PeerId> ChordOverlay::ResponsibleReplicas(
    uint64_t key, uint32_t count) const {
  std::vector<net::PeerId> out;
  if (ring_.empty()) return out;
  size_t idx = SuccessorIndex(KeyToNodeId(key));
  uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(count, ring_.size()));
  out.reserve(n);
  for (uint32_t k = 0; k < n; ++k) {
    out.push_back(ring_[(idx + k) % ring_.size()].peer);
  }
  return out;
}

ChordOverlay::Member* ChordOverlay::FindMember(net::PeerId peer) {
  const uint32_t idx = RingIndexOf(peer);
  return idx == kNotMember ? nullptr : &ring_[idx];
}

const ChordOverlay::Member* ChordOverlay::FindMember(
    net::PeerId peer) const {
  const uint32_t idx = RingIndexOf(peer);
  return idx == kNotMember ? nullptr : &ring_[idx];
}

bool ChordOverlay::StartLookup(net::PeerId origin, uint64_t key,
                               net::PeerId* responsible) {
  if (ring_.empty()) return false;
  assert(FindMember(origin) != nullptr && "lookup origin must be a member");
  (void)origin;
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  slot.target = KeyToNodeId(key);
  slot.owner = ring_[SuccessorIndex(slot.target)].peer;
  *responsible = slot.owner;
  return true;
}

bool ChordOverlay::AtDestination(net::PeerId peer, uint64_t /*key*/) const {
  return peer == lookup_slots_[CurrentLookupSlot()].owner;
}

uint32_t ChordOverlay::LookupHopLimit() const {
  return 4 * static_cast<uint32_t>(CeilLog2(ring_.size() + 1)) + 16;
}

void ChordOverlay::NextHops(const RouteState& state, uint64_t /*key*/,
                            std::vector<RouteCandidate>* out) {
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  const Member* cur = FindMember(state.cur);
  assert(cur != nullptr);
  // Table entries strictly between cur and the target, closest-preceding
  // first with ties by table index: the exact probe sequence the
  // skip-masked ClosestPreceding walk produced (duplicated peers stay
  // duplicated -- each entry is its own probe, as before).
  std::vector<HopEntry>& hop_scratch = slot.hop_scratch;
  hop_scratch.clear();
  uint32_t index = 0;
  auto consider = [&](const FingerEntry& e) {
    uint32_t my_index = index++;
    if (e.peer == net::kInvalidPeer) return;
    if (!InIntervalOpen(e.peer_id, cur->id, slot.target)) return;
    hop_scratch.push_back(
        HopEntry{RingDistance(e.peer_id, slot.target), my_index, e.peer});
  };
  for (const auto& f : cur->table.fingers()) consider(f);
  for (const auto& s : cur->table.successors()) consider(s);
  std::sort(hop_scratch.begin(), hop_scratch.end());
  // Progress: remaining clockwise distance in bits (exact log2, > 0
  // inside the open interval).  Only the weighted route-PNS scorer reads
  // it, so blind walks skip the libm call -- this loop is the innermost
  // lookup hot path.
  const bool want_progress = routing_policy().proximity;
  for (const HopEntry& e : hop_scratch) {
    const double progress =
        want_progress ? std::log2(static_cast<double>(e.dist)) : 0.0;
    // Successor-of-key detection: a hop to the key's owner ends the walk
    // (AtDestination would confirm next iteration -- same probes, same
    // success), and marking it lets the replica-failover phase spot
    // terminal-bound hops before gambling on that single peer.
    out->push_back(RouteCandidate{e.peer, progress, e.peer == slot.owner});
  }
  // Terminal-bound moment: no table entry lies inside (cur, target), so
  // cur is the key's closest predecessor and the next advance is the
  // owner itself -- which the in-interval filter above can never emit
  // (the owner sits at or past the target).  Under replica routing,
  // surface it as an explicit terminal candidate so the driver's
  // failover phase engages instead of gambling on that single peer.
  // Without replica routing the fallback scan reaches the same peer
  // (the owner is cur's immediate ring successor here) with identical
  // probe and terminal accounting, so the blind and PNS walks stay
  // byte-identical -- the recorded parity checksums depend on that.
  if (hop_scratch.empty() && routing_policy().replica_route) {
    out->push_back(RouteCandidate{slot.owner, 0.0, true});
  }
}

bool ChordOverlay::PrimaryHop(const RouteState& state, uint64_t /*key*/,
                              uint32_t k, RouteCandidate* out) {
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  if (k == 0) {
    slot.primary_cur = FindMember(state.cur);
    assert(slot.primary_cur != nullptr);
    slot.primary_skip = 0;
  }
  // Try progressively less aggressive entries (skip-masked): the k-th
  // candidate is the closest preceding entry among those not yet probed
  // and found dead this hop.
  const FingerEntry* next = slot.primary_cur->table.ClosestPreceding(
      slot.primary_cur->id, slot.target, slot.primary_skip);
  if (next == nullptr) return false;
  const int idx = slot.primary_cur->table.IndexOf(next);
  if (idx >= 0 && idx < 64) slot.primary_skip |= (uint64_t{1} << idx);
  out->peer = next->peer;
  out->progress = 0.0;  // unread on the blind path
  // Terminal iff the entry is the key's owner (successor-of-key): the
  // walk would stop there via AtDestination anyway, with identical
  // message and success accounting.
  out->terminal = next->peer == slot.owner;
  return true;
}

bool ChordOverlay::FallbackHop(const RouteState& state, uint64_t /*key*/,
                               uint32_t k, RouteCandidate* out) {
  // Every table entry toward the key is stale (or the table is empty):
  // walk ring successors in order -- linear but guaranteed.  An offline
  // owner is scanned past: its keys are served by its first online
  // successor, and a step at or past the target is terminal.
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  if (k == 0) {
    slot.fallback_base = RingIndexOf(state.cur);
    assert(slot.fallback_base != kNotMember);
  }
  if (k + 1 >= ring_.size()) return false;
  const Member& cand = ring_[(slot.fallback_base + 1 + k) % ring_.size()];
  out->peer = cand.peer;
  out->progress = static_cast<double>(k);  // ring order is not reorderable
  out->terminal = InIntervalOpenClosed(slot.target,
                                       ring_[slot.fallback_base].id, cand.id);
  return true;
}

FingerTable* ChordOverlay::TableOf(net::PeerId peer) {
  Member* m = FindMember(peer);
  return m == nullptr ? nullptr : &m->table;
}

const FingerTable* ChordOverlay::TableOf(net::PeerId peer) const {
  const Member* m = FindMember(peer);
  return m == nullptr ? nullptr : &m->table;
}

void ChordOverlay::RefreshNode(net::PeerId peer) {
  Member* m = FindMember(peer);
  if (m != nullptr) BuildTable(*m);
}

void ChordOverlay::RepairEntry(size_t slot, size_t idx) {
  Member* m = &ring_[slot];
  auto& fingers = m->table.fingers();
  if (idx < fingers.size()) {
    size_t si = SuccessorIndex(fingers[idx].start);
    // Point at the first *online* member at or after the finger start so
    // the repair actually removes the staleness.
    for (size_t k = 0; k < ring_.size(); ++k) {
      const Member& cand = ring_[(si + k) % ring_.size()];
      if (network_->IsOnline(cand.peer) || k + 1 == ring_.size()) {
        fingers[idx].peer = cand.peer;
        fingers[idx].peer_id = cand.id;
        break;
      }
    }
    return;
  }
  idx -= fingers.size();
  auto& succ = m->table.successors();
  if (idx < succ.size()) {
    // Rebuild the successor list from the next *online* members so the
    // repair actually removes staleness (an offline successor would be
    // re-detected immediately).
    succ.clear();
    for (size_t k = 1;
         k < ring_.size() && succ.size() < successor_list_size_; ++k) {
      const Member& s = ring_[(slot + k) % ring_.size()];
      if (!network_->IsOnline(s.peer)) continue;
      succ.push_back(FingerEntry{s.id, s.peer, s.id});
    }
  }
}

double ChordOverlay::StaleFingerFraction() const {
  uint64_t total = 0;
  uint64_t stale = 0;
  for (const auto& m : ring_) {
    if (!network_->IsOnline(m.peer)) continue;
    for (const auto& f : m.table.fingers()) {
      ++total;
      if (!network_->IsOnline(f.peer)) ++stale;
    }
    for (const auto& s : m.table.successors()) {
      ++total;
      if (!network_->IsOnline(s.peer)) ++stale;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(stale) / static_cast<double>(total);
}

std::string ChordOverlay::CheckInvariants() const {
  std::ostringstream err;
  for (size_t i = 1; i < ring_.size(); ++i) {
    if (!(ring_[i - 1].id < ring_[i].id)) {
      err << "ring not strictly sorted at index " << i;
      return err.str();
    }
  }
  size_t indexed = 0;
  for (net::PeerId peer = 0; peer < ring_index_.size(); ++peer) {
    const uint32_t idx = ring_index_[peer];
    if (idx == kNotMember) continue;
    ++indexed;
    if (idx >= ring_.size() || ring_[idx].peer != peer) {
      err << "ring_index_ inconsistent for peer " << peer;
      return err.str();
    }
  }
  if (indexed != ring_.size()) {
    err << "ring_index_ covers " << indexed << " of " << ring_.size()
        << " members";
    return err.str();
  }
  return "";
}

}  // namespace pdht::overlay
