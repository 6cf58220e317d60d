#include "overlay/dht/chord.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/bits.h"
#include "util/hash.h"

namespace pdht::overlay {

ChordOverlay::ChordOverlay(net::Network* network, Rng rng,
                           uint32_t successor_list_size)
    : StructuredOverlay(network), maint_rng_(rng.Fork()),
      successor_list_size_(successor_list_size) {
  if (successor_list_size > kMaxSuccessors) {
    throw std::invalid_argument("chord successor list longer than " +
                                std::to_string(kMaxSuccessors));
  }
}

uint32_t ChordOverlay::FingersFor(size_t n) {
  // Fingers at offsets 2^63, 2^62, ... down to the ring's resolution:
  // ceil(log2(n)) + 2 fingers suffice to reach any region.
  return n <= 1 ? 0 : static_cast<uint32_t>(std::min(CeilLog2(n) + 2, 56));
}

MaintenanceStats ChordOverlay::ProbeMember(size_t slot, net::PeerId peer,
                                           uint32_t probes, Rng& rng) {
  const net::PeerId* entries = &entry_peer_[slot * stride_];
  MaintenanceStats st;
  for (uint32_t i = 0; i < probes; ++i) {
    // The size is re-read per probe: a successor repair can shrink this
    // member's own list mid-task.
    const size_t total = MemberTableSize(slot);
    if (total == 0) break;
    const size_t idx = static_cast<size_t>(rng.UniformU64(total));
    const net::PeerId target = entries[idx];
    if (target == net::kInvalidPeer) continue;
    SendProbe(peer, target);
    ++st.probes_sent;
    if (!network_->IsOnline(target)) {
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
  for (size_t slot = 0; slot < ring_peers_.size(); ++slot) {
    h = Mix64(HashCombine(h, HashCombine(ring_ids_[slot], ring_peers_[slot])));
    const size_t base = slot * stride_;
    const size_t nf = num_fingers_[slot];
    const size_t ns = num_succ_[slot];
    for (size_t i = base; i < base + nf; ++i) {
      h = Mix64(HashCombine(h, HashCombine(entry_peer_[i], entry_id_[i])));
    }
    h = Mix64(HashCombine(h, ns));
    for (size_t i = base + nf; i < base + nf + ns; ++i) {
      h = Mix64(HashCombine(h, HashCombine(entry_peer_[i], entry_id_[i])));
    }
  }
  return h;
}

void ChordOverlay::SetMembers(const std::vector<net::PeerId>& members) {
  ResetMaintenanceBudgets();
  std::vector<std::pair<NodeId, net::PeerId>> ring;
  ring.reserve(members.size());
  for (net::PeerId p : members) ring.emplace_back(PeerToNodeId(p), p);
  std::sort(ring.begin(), ring.end());
  const size_t n = ring.size();
  ring_ids_.resize(n);
  ring_peers_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    ring_ids_[i] = ring[i].first;
    ring_peers_[i] = ring[i].second;
  }
  ReindexRing();
  stride_ = StrideFor(n);
  entry_peer_.assign(n * stride_, net::kInvalidPeer);
  entry_id_.assign(n * stride_, 0);
  finger_exp_.assign(n * stride_, 0);
  num_fingers_.assign(n, 0);
  num_succ_.assign(n, 0);
  for (size_t slot = 0; slot < n; ++slot) BuildTable(slot);
  mean_rtt_ms_ = 0.0;
  if (has_peer_rtt() && n >= 2) {
    // Sample the link-RTT scale once (deterministic pair sweep) for the
    // weighted route-PNS cost model.
    const size_t samples = std::min<size_t>(64, n);
    double sum = 0.0;
    for (size_t i = 0; i < samples; ++i) {
      const size_t a = (i * n) / samples;
      const size_t b = (a + n / 2) % n;
      if (a == b) continue;
      sum += PeerRtt(ring_peers_[a], ring_peers_[b]);
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

void ChordOverlay::BuildTable(size_t slot) {
  const size_t n = ring_ids_.size();
  const uint32_t max_fingers = FingersFor(n);
  size_t nf = 0;
  for (uint32_t i = 0; i < max_fingers; ++i) {
    const uint8_t exp = static_cast<uint8_t>(63 - i);
    const size_t target = SuccessorIndex(ring_ids_[slot] + (NodeId{1} << exp));
    if (target == slot) continue;  // self-pointer: useless entry
    finger_exp_[slot * stride_ + nf] = exp;
    SetEntry(slot, nf++, target);
  }
  size_t ns = 0;
  for (uint32_t k = 1; k <= successor_list_size_ && k < n; ++k) {
    SetEntry(slot, nf + ns++, (slot + k) % n);
  }
  num_fingers_[slot] = static_cast<uint8_t>(nf);
  num_succ_[slot] = static_cast<uint8_t>(ns);
}

void ChordOverlay::RelayoutTables(size_t pos, bool inserted) {
  const size_t n = ring_ids_.size();
  const uint32_t stride = std::max(stride_, StrideFor(n));
  std::vector<net::PeerId> peers(n * stride, net::kInvalidPeer);
  std::vector<NodeId> ids(n * stride, 0);
  std::vector<uint8_t> exps(n * stride, 0);
  if (inserted) {
    num_fingers_.insert(num_fingers_.begin() + pos, 0);
    num_succ_.insert(num_succ_.begin() + pos, 0);
  } else {
    num_fingers_.erase(num_fingers_.begin() + pos);
    num_succ_.erase(num_succ_.begin() + pos);
  }
  for (size_t slot = 0; slot < n; ++slot) {
    if (inserted && slot == pos) continue;  // built by the caller
    const size_t old = slot < pos ? slot : (inserted ? slot - 1 : slot + 1);
    const size_t len = MemberTableSize(slot);
    std::copy_n(entry_peer_.begin() + old * stride_, len,
                peers.begin() + slot * stride);
    std::copy_n(entry_id_.begin() + old * stride_, len,
                ids.begin() + slot * stride);
    std::copy_n(finger_exp_.begin() + old * stride_, len,
                exps.begin() + slot * stride);
  }
  entry_peer_.swap(peers);
  entry_id_.swap(ids);
  finger_exp_.swap(exps);
  stride_ = stride;
}

void ChordOverlay::AddMember(net::PeerId peer) {
  if (IsMember(peer)) return;
  const NodeId id = PeerToNodeId(peer);
  const size_t pos = static_cast<size_t>(
      std::lower_bound(ring_ids_.begin(), ring_ids_.end(), id) -
      ring_ids_.begin());
  ring_ids_.insert(ring_ids_.begin() + pos, id);
  ring_peers_.insert(ring_peers_.begin() + pos, peer);
  ReindexRing();
  ResetMaintenanceBudgets();
  RelayoutTables(pos, /*inserted=*/true);
  BuildTable(pos);
  // Join traffic: Chord's join costs O(log^2 n) messages to populate the
  // new node's table and notify affected nodes.  Count it explicitly.
  const size_t n = ring_ids_.size();
  uint64_t join_msgs = 0;
  if (n > 1) {
    int lg = CeilLog2(n);
    join_msgs = static_cast<uint64_t>(lg) * static_cast<uint64_t>(lg);
  }
  network_->CountOnly(net::MessageType::kJoin, join_msgs);
  // Repair other nodes' fingers that should now point to the new member.
  for (size_t slot = 0; slot < n; ++slot) {
    if (slot == pos) continue;
    for (size_t i = 0; i < num_fingers_[slot]; ++i) {
      const size_t target = SuccessorIndex(FingerStart(slot, i));
      if (entry_peer_[slot * stride_ + i] != ring_peers_[target]) {
        SetEntry(slot, i, target);
      }
    }
  }
}

void ChordOverlay::RemoveMember(net::PeerId peer) {
  const uint32_t idx = RingIndexOf(peer);
  if (idx == kNotMember) return;
  ring_ids_.erase(ring_ids_.begin() + idx);
  ring_peers_.erase(ring_peers_.begin() + idx);
  ReindexRing();
  ResetMaintenanceBudgets();
  RelayoutTables(idx, /*inserted=*/false);
  for (size_t slot = 0; slot < ring_ids_.size(); ++slot) {
    const size_t base = slot * stride_;
    const size_t nf = num_fingers_[slot];
    for (size_t i = 0; i < nf; ++i) {
      if (entry_peer_[base + i] == peer) {
        SetEntry(slot, i, SuccessorIndex(FingerStart(slot, i)));
      }
    }
    size_t ns = 0;
    for (size_t i = nf; i < nf + num_succ_[slot]; ++i) {
      if (entry_peer_[base + i] == peer) continue;
      entry_peer_[base + nf + ns] = entry_peer_[base + i];
      entry_id_[base + nf + ns] = entry_id_[base + i];
      ++ns;
    }
    num_succ_[slot] = static_cast<uint8_t>(ns);
  }
}

bool ChordOverlay::IsMember(net::PeerId peer) const {
  return RingIndexOf(peer) != kNotMember;
}

void ChordOverlay::ReindexRing() {
  std::fill(ring_index_.begin(), ring_index_.end(), kNotMember);
  const size_t n = ring_ids_.size();
  for (size_t i = 0; i < n; ++i) {
    const net::PeerId peer = ring_peers_[i];
    if (peer >= ring_index_.size()) ring_index_.resize(peer + 1, kNotMember);
    ring_index_[peer] = static_cast<uint32_t>(i);
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

net::PeerId ChordOverlay::ResponsibleMember(uint64_t key) const {
  if (ring_ids_.empty()) return net::kInvalidPeer;
  return ring_peers_[SuccessorIndex(KeyToNodeId(key))];
}

std::vector<net::PeerId> ChordOverlay::ResponsibleReplicas(
    uint64_t key, uint32_t count) const {
  std::vector<net::PeerId> out;
  const size_t n = ring_ids_.size();
  if (n == 0) return out;
  size_t idx = SuccessorIndex(KeyToNodeId(key));
  uint32_t want = static_cast<uint32_t>(std::min<size_t>(count, n));
  out.reserve(want);
  for (uint32_t k = 0; k < want; ++k) {
    out.push_back(ring_peers_[(idx + k) % n]);
  }
  return out;
}

bool ChordOverlay::StartLookup(net::PeerId origin, uint64_t key,
                               net::PeerId* responsible) {
  if (ring_ids_.empty()) return false;
  assert(IsMember(origin) && "lookup origin must be a member");
  (void)origin;
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  slot.target = KeyToNodeId(key);
  slot.owner = ring_peers_[SuccessorIndex(slot.target)];
  *responsible = slot.owner;
  return true;
}

bool ChordOverlay::AtDestination(net::PeerId peer, uint64_t /*key*/) const {
  return peer == lookup_slots_[CurrentLookupSlot()].owner;
}

uint32_t ChordOverlay::LookupHopLimit() const {
  return 4 * static_cast<uint32_t>(CeilLog2(ring_ids_.size() + 1)) + 16;
}

void ChordOverlay::NextHops(const RouteState& state, uint64_t /*key*/,
                            std::vector<RouteCandidate>* out) {
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  const uint32_t cur = RingIndexOf(state.cur);
  assert(cur != kNotMember);
  // Table entries strictly between cur and the target, closest-preceding
  // first with ties by table index: the exact probe sequence the
  // skip-masked ClosestPreceding walk produces (duplicated peers stay
  // duplicated -- each entry is its own probe).
  std::vector<HopEntry>& hop_scratch = slot.hop_scratch;
  hop_scratch.clear();
  const size_t base = size_t{cur} * stride_;
  const NodeId self = ring_ids_[cur];
  const uint32_t total = static_cast<uint32_t>(MemberTableSize(cur));
  for (uint32_t i = 0; i < total; ++i) {
    const net::PeerId peer = entry_peer_[base + i];
    const NodeId id = entry_id_[base + i];
    if (peer == net::kInvalidPeer) continue;
    if (!InIntervalOpen(id, self, slot.target)) continue;
    hop_scratch.push_back(HopEntry{RingDistance(id, slot.target), i, peer});
  }
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

int ChordOverlay::ClosestPreceding(size_t slot, NodeId target,
                                   uint64_t skip_mask) const {
  const size_t base = slot * stride_;
  const NodeId self = ring_ids_[slot];
  const size_t total = MemberTableSize(slot);
  int best = -1;
  NodeId best_dist = 0;
  for (size_t i = 0; i < total; ++i) {
    if (i < 64 && (skip_mask >> i) & 1) continue;
    if (entry_peer_[base + i] == net::kInvalidPeer) continue;
    // Candidate must lie strictly between self and target (clockwise) so
    // that every hop makes progress.
    const NodeId id = entry_id_[base + i];
    if (!InIntervalOpen(id, self, target)) continue;
    // Prefer the candidate closest to (i.e. least clockwise distance to)
    // the target: that is the "closest preceding" node.
    const NodeId dist = RingDistance(id, target);
    if (best < 0 || dist < best_dist) {
      best = static_cast<int>(i);
      best_dist = dist;
    }
  }
  return best;
}

bool ChordOverlay::PrimaryHop(const RouteState& state, uint64_t /*key*/,
                              uint32_t k, RouteCandidate* out) {
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  if (k == 0) {
    slot.primary_cur = RingIndexOf(state.cur);
    assert(slot.primary_cur != kNotMember);
    slot.primary_skip = 0;
  }
  // Try progressively less aggressive entries (skip-masked): the k-th
  // candidate is the closest preceding entry among those not yet probed
  // and found dead this hop.
  const int idx =
      ClosestPreceding(slot.primary_cur, slot.target, slot.primary_skip);
  if (idx < 0) return false;
  if (idx < 64) slot.primary_skip |= (uint64_t{1} << idx);
  out->peer = entry_peer_[size_t{slot.primary_cur} * stride_ + idx];
  out->progress = 0.0;  // unread on the blind path
  // Terminal iff the entry is the key's owner (successor-of-key): the
  // walk would stop there via AtDestination anyway, with identical
  // message and success accounting.
  out->terminal = out->peer == slot.owner;
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
  const size_t n = ring_ids_.size();
  if (k + 1 >= n) return false;
  const size_t cand = (slot.fallback_base + 1 + k) % n;
  out->peer = ring_peers_[cand];
  out->progress = static_cast<double>(k);  // ring order is not reorderable
  out->terminal = InIntervalOpenClosed(
      slot.target, ring_ids_[slot.fallback_base], ring_ids_[cand]);
  return true;
}

void ChordOverlay::RefreshNode(net::PeerId peer) {
  const uint32_t slot = RingIndexOf(peer);
  if (slot != kNotMember) BuildTable(slot);
}

void ChordOverlay::RepairEntry(size_t slot, size_t idx) {
  const size_t n = ring_ids_.size();
  const size_t nf = num_fingers_[slot];
  if (idx < nf) {
    const size_t start = SuccessorIndex(FingerStart(slot, idx));
    // Point at the first *online* member at or after the finger start so
    // the repair actually removes the staleness.
    for (size_t k = 0; k < n; ++k) {
      const size_t cand = (start + k) % n;
      if (network_->IsOnline(ring_peers_[cand]) || k + 1 == n) {
        SetEntry(slot, idx, cand);
        break;
      }
    }
    return;
  }
  if (idx - nf < num_succ_[slot]) {
    // Rebuild the successor list from the next *online* members so the
    // repair actually removes staleness (an offline successor would be
    // re-detected immediately).
    size_t ns = 0;
    for (size_t k = 1; k < n && ns < successor_list_size_; ++k) {
      const size_t s = (slot + k) % n;
      if (!network_->IsOnline(ring_peers_[s])) continue;
      SetEntry(slot, nf + ns++, s);
    }
    num_succ_[slot] = static_cast<uint8_t>(ns);
  }
}

double ChordOverlay::StaleFingerFraction() const {
  uint64_t total = 0;
  uint64_t stale = 0;
  for (size_t slot = 0; slot < ring_peers_.size(); ++slot) {
    if (!network_->IsOnline(ring_peers_[slot])) continue;
    const size_t base = slot * stride_;
    const size_t size = MemberTableSize(slot);
    for (size_t i = base; i < base + size; ++i) {
      ++total;
      if (!network_->IsOnline(entry_peer_[i])) ++stale;
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(stale) / static_cast<double>(total);
}

std::string ChordOverlay::CheckInvariants() const {
  std::ostringstream err;
  const size_t n = ring_ids_.size();
  if (ring_peers_.size() != n || num_fingers_.size() != n ||
      num_succ_.size() != n || entry_peer_.size() != n * stride_ ||
      entry_id_.size() != n * stride_ || finger_exp_.size() != n * stride_) {
    err << "array sizes disagree with " << n << " members at stride "
        << stride_;
    return err.str();
  }
  for (size_t i = 0; i < n; ++i) {
    if (ring_ids_[i] != PeerToNodeId(ring_peers_[i])) {
      err << "ring id of slot " << i << " is not its peer's id";
      return err.str();
    }
    if (i > 0 && !(ring_ids_[i - 1] < ring_ids_[i])) {
      err << "ring not strictly sorted at index " << i;
      return err.str();
    }
  }
  size_t indexed = 0;
  for (net::PeerId peer = 0; peer < ring_index_.size(); ++peer) {
    const uint32_t idx = ring_index_[peer];
    if (idx == kNotMember) continue;
    ++indexed;
    if (idx >= n || ring_peers_[idx] != peer) {
      err << "ring_index_ inconsistent for peer " << peer;
      return err.str();
    }
  }
  if (indexed != n) {
    err << "ring_index_ covers " << indexed << " of " << n << " members";
    return err.str();
  }
  for (size_t slot = 0; slot < n; ++slot) {
    const size_t base = slot * stride_;
    const size_t nf = num_fingers_[slot];
    const size_t ns = num_succ_[slot];
    if (ns > successor_list_size_ || nf + ns > stride_) {
      err << "slot " << slot << " holds " << nf << " fingers and " << ns
          << " successors at stride " << stride_;
      return err.str();
    }
    for (size_t i = 0; i < nf + ns; ++i) {
      const uint32_t target = RingIndexOf(entry_peer_[base + i]);
      if (target == kNotMember || ring_ids_[target] != entry_id_[base + i]) {
        err << "entry " << i << " of slot " << slot
            << " does not name a member under its ring id";
        return err.str();
      }
    }
    for (size_t i = 0; i < nf; ++i) {
      const uint8_t exp = finger_exp_[base + i];
      if (exp > 63 || (i > 0 && exp >= finger_exp_[base + i - 1])) {
        err << "finger " << i << " of slot " << slot
            << " has exponent " << int{exp} << " out of order";
        return err.str();
      }
    }
    NodeId prev = 0;
    for (size_t i = nf; i < nf + ns; ++i) {
      const NodeId dist = RingDistance(ring_ids_[slot], entry_id_[base + i]);
      if (dist <= prev) {
        err << "successor " << i - nf << " of slot " << slot
            << " is not clockwise past the previous one";
        return err.str();
      }
      prev = dist;
    }
  }
  return "";
}

}  // namespace pdht::overlay
