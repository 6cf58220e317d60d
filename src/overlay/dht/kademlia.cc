#include "overlay/dht/kademlia.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/bits.h"
#include "util/hash.h"

namespace pdht::overlay {

namespace {

/// Index of the highest bit where a and b differ (63 = MSB); requires
/// a != b.
int BucketIndex(NodeId a, NodeId b) { return FloorLog2(a ^ b); }

}  // namespace

KademliaOverlay::KademliaOverlay(net::Network* network, Rng rng,
                                 uint32_t bucket_size, uint32_t alpha)
    : StructuredOverlay(network), rng_(rng), bucket_size_(bucket_size),
      alpha_(alpha) {
  assert(bucket_size >= 1);
  assert(alpha >= 1);
}

void KademliaOverlay::SetMembers(const std::vector<net::PeerId>& members) {
  nodes_.clear();
  member_list_.clear();
  sorted_ids_.clear();
  ResetMaintenanceBudgets();
  if (members.empty()) return;
  member_list_ = members;
  std::sort(member_list_.begin(), member_list_.end(),
            [](net::PeerId a, net::PeerId b) {
              return PeerToNodeId(a) < PeerToNodeId(b);
            });
  sorted_ids_.reserve(member_list_.size());
  for (net::PeerId p : member_list_) {
    sorted_ids_.push_back(PeerToNodeId(p));
    nodes_[p] = NodeState{PeerToNodeId(p), {}};
  }
  for (net::PeerId p : member_list_) BuildBuckets(p, rng_);
}

std::pair<size_t, size_t> KademliaOverlay::BucketRange(NodeId id,
                                                      int bucket) const {
  // Members in [id ^ 2^bucket .. id ^ (2^(bucket+1) - 1)]: ids sharing
  // the 63-bucket leading bits of `id` and differing at bit `bucket`.
  // That range is contiguous in sorted id order, so two binary searches
  // suffice.
  NodeId lo = (id ^ (NodeId{1} << bucket)) &
              ~((NodeId{1} << bucket) - 1);  // flip bit, clear tail
  NodeId hi = lo | ((NodeId{1} << bucket) - 1);
  auto first = std::lower_bound(sorted_ids_.begin(), sorted_ids_.end(), lo);
  auto last = std::upper_bound(first, sorted_ids_.end(), hi);
  return {static_cast<size_t>(first - sorted_ids_.begin()),
          static_cast<size_t>(last - sorted_ids_.begin())};
}

void KademliaOverlay::BuildBuckets(net::PeerId peer, Rng& rng) {
  NodeState& st = nodes_.at(peer);
  st.buckets.assign(64, {});
  // Scratch reused across this peer's buckets (local: rejoins rebuild
  // distinct peers concurrently).
  std::vector<std::pair<double, net::PeerId>> by_rtt;
  std::vector<net::PeerId> shuffled;
  for (int b = 0; b < 64; ++b) {
    const auto [first, last] = BucketRange(st.id, b);
    const auto cands = member_list_.begin() + static_cast<long>(first);
    const auto cands_end = member_list_.begin() + static_cast<long>(last);
    std::vector<net::PeerId>& bucket = st.buckets[b];
    if (last - first <= bucket_size_) {
      bucket.assign(cands, cands_end);
    } else if (has_peer_rtt()) {
      // Proximity-aware selection: every candidate of this bucket makes
      // identical routing progress, so keep the k cheapest links.  RTTs
      // are materialized once per candidate (the oracle is a hash-and-
      // hypot evaluation, too costly for O(n log n) comparator calls);
      // the (rtt, id) key is a strict total order over distinct peers,
      // so selecting the k smallest and sorting only those keeps exactly
      // the entries, in the order, a full sort would.  No RNG draw
      // happens on this path, so the RTT-blind stream is untouched.
      by_rtt.clear();
      for (auto it = cands; it != cands_end; ++it) {
        by_rtt.emplace_back(PeerRtt(peer, *it), *it);
      }
      const auto kth = by_rtt.begin() + bucket_size_;
      std::nth_element(by_rtt.begin(), kth, by_rtt.end());
      std::sort(by_rtt.begin(), kth);
      bucket.reserve(bucket_size_);
      for (auto it = by_rtt.begin(); it != kth; ++it) {
        bucket.push_back(it->second);
      }
    } else {
      shuffled.assign(cands, cands_end);
      rng.Shuffle(shuffled.data(), shuffled.size());
      bucket.assign(shuffled.begin(), shuffled.begin() + bucket_size_);
    }
  }
}

bool KademliaOverlay::IsMember(net::PeerId peer) const {
  return nodes_.count(peer) > 0;
}

net::PeerId KademliaOverlay::ClosestMemberTo(NodeId target) const {
  if (sorted_ids_.empty()) return net::kInvalidPeer;
  // Binary-trie descent over the sorted id array: at each bit follow
  // target's branch when it is populated, else the other one.  The XOR
  // metric makes this exact (higher differing bits dominate), which a
  // plain nearest-in-sorted-order probe would not be.
  size_t lo = 0;
  size_t hi = sorted_ids_.size();
  NodeId prefix = 0;
  for (int b = 63; b >= 0 && hi - lo > 1; --b) {
    NodeId branch = prefix | (NodeId{1} << b);
    size_t mid = static_cast<size_t>(
        std::lower_bound(sorted_ids_.begin() + static_cast<long>(lo),
                         sorted_ids_.begin() + static_cast<long>(hi),
                         branch) -
        sorted_ids_.begin());
    const bool want_one = (target >> b) & 1;
    if (want_one ? mid < hi : mid > lo) {
      // Target's branch is populated: follow it.
      if (want_one) {
        lo = mid;
        prefix = branch;
      } else {
        hi = mid;
      }
    } else {
      // Forced onto the other branch.
      if (want_one) {
        hi = mid;
      } else {
        lo = mid;
        prefix = branch;
      }
    }
  }
  return member_list_[lo];
}

net::PeerId KademliaOverlay::ResponsibleMember(uint64_t key) const {
  return ClosestMemberTo(KeyToNodeId(key));
}

bool KademliaOverlay::StartLookup(net::PeerId origin, uint64_t key,
                                  net::PeerId* responsible) {
  if (member_list_.empty()) return false;
  assert(nodes_.count(origin) > 0 && "lookup origin must be a member");
  (void)origin;
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  slot.target = KeyToNodeId(key);
  slot.owner = ClosestMemberTo(slot.target);
  *responsible = slot.owner;
  return true;
}

bool KademliaOverlay::AtDestination(net::PeerId peer,
                                    uint64_t /*key*/) const {
  return peer == lookup_slots_[CurrentLookupSlot()].owner;
}

uint32_t KademliaOverlay::LookupHopLimit() const {
  return 4 * static_cast<uint32_t>(CeilLog2(member_list_.size() + 1)) + 16;
}

void KademliaOverlay::NextHops(const RouteState& state, uint64_t /*key*/,
                               std::vector<RouteCandidate>* out) {
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  const NodeState& cur = nodes_.at(state.cur);
  const NodeId cur_dist = cur.id ^ slot.target;
  // Contacts strictly closer to the target than we are, nearest first.
  // Distances are materialized once so the sort does no map lookups.
  std::vector<std::pair<NodeId, net::PeerId>>& closer = slot.closer_scratch;
  closer.clear();
  for (const auto& bucket : cur.buckets) {
    for (net::PeerId c : bucket) {
      NodeId d = nodes_.at(c).id ^ slot.target;
      if (d < cur_dist) closer.emplace_back(d, c);
    }
  }
  std::sort(closer.begin(), closer.end());
  for (size_t i = 0; i < closer.size(); ++i) {
    // Progress: the emission rank (distinct by construction), so the
    // driver's equal-progress route-PNS reorder is deliberately inert
    // for Kademlia -- with table-build PNS already keeping buckets
    // RTT-cheap, any candidate-level RTT-vs-distance trade measurably
    // inflates hops more than it saves per hop; Kademlia's route-PNS
    // win is the proximity entry selection in PdhtSystem::DhtEntryPoint
    // instead.
    out->push_back(
        RouteCandidate{closer[i].second, static_cast<double>(i), false});
  }
}

bool KademliaOverlay::FallbackHop(const RouteState& state, uint64_t /*key*/,
                                  uint32_t k, RouteCandidate* out) {
  // Greedy exhausted (table empty or all closer contacts offline): scan
  // the membership in XOR order, nearest first, until an online member
  // turns up -- the owner's closest online stand-in.  Reaching the
  // walk's own peer means it *is* the closest online member (the driver
  // ends routing there without a message).
  LookupSlot& slot = lookup_slots_[CurrentLookupSlot()];
  std::vector<std::pair<NodeId, net::PeerId>>& by_dist =
      slot.by_dist_scratch;
  if (k == 0) {
    by_dist.clear();
    by_dist.reserve(member_list_.size());
    for (size_t i = 0; i < member_list_.size(); ++i) {
      by_dist.emplace_back(sorted_ids_[i] ^ slot.target, member_list_[i]);
    }
    std::sort(by_dist.begin(), by_dist.end());
  }
  if (k >= by_dist.size()) return false;
  out->peer = by_dist[k].second;
  out->progress = static_cast<double>(k);  // XOR order is not reorderable
  out->terminal = false;
  (void)state;
  return true;
}

MaintenanceStats KademliaOverlay::ProbeMember(size_t /*slot*/,
                                              net::PeerId peer,
                                              uint32_t probes, Rng& rng) {
  NodeState& st = nodes_.at(peer);
  // Bucket sizes never change during a round (repair swaps contacts in
  // place), so the per-probe pick domain is fixed at entry.
  const size_t table_size = TableSize(peer);
  MaintenanceStats stats;
  if (table_size == 0) return stats;
  for (uint32_t i = 0; i < probes; ++i) {
    // Pick a uniformly random contact across the (ragged) buckets.
    size_t idx = static_cast<size_t>(rng.UniformU64(table_size));
    size_t b = 0;
    while (idx >= st.buckets[b].size()) {
      idx -= st.buckets[b].size();
      ++b;
    }
    net::PeerId contact = st.buckets[b][idx];
    SendProbe(peer, contact);
    ++stats.probes_sent;
    if (!network_->IsOnline(contact)) {
      ++stats.stale_detected;
      // Repair is free (piggybacked): swap in an online member of the
      // same bucket not already referenced, if one exists.  With the
      // PeerRtt hook installed the *cheapest* such replacement wins
      // (proximity-aware repair); blind repair keeps first-found.
      const auto [first, last] = BucketRange(st.id, static_cast<int>(b));
      net::PeerId best = net::kInvalidPeer;
      double best_rtt = 0.0;
      for (size_t c = first; c < last; ++c) {
        const net::PeerId cand = member_list_[c];
        if (!network_->IsOnline(cand)) continue;
        if (std::find(st.buckets[b].begin(), st.buckets[b].end(), cand) !=
            st.buckets[b].end()) {
          continue;
        }
        if (!has_peer_rtt()) {
          best = cand;
          break;
        }
        const double rtt = PeerRtt(peer, cand);
        if (best == net::kInvalidPeer || rtt < best_rtt ||
            (rtt == best_rtt && cand < best)) {
          best = cand;
          best_rtt = rtt;
        }
      }
      if (best != net::kInvalidPeer) {
        st.buckets[b][idx] = best;
        ++stats.repairs;
      }
    }
  }
  return stats;
}

uint64_t KademliaOverlay::RoutingFingerprint() const {
  uint64_t h = 0x6b61646d6cULL;  // "kadml"
  for (net::PeerId peer : member_list_) {
    const NodeState& st = nodes_.at(peer);
    h = Mix64(HashCombine(h, HashCombine(st.id, peer)));
    for (const auto& bucket : st.buckets) {
      h = Mix64(HashCombine(h, bucket.size()));
      for (net::PeerId c : bucket) h = Mix64(HashCombine(h, c));
    }
  }
  return h;
}

size_t KademliaOverlay::TableSize(net::PeerId peer) const {
  auto it = nodes_.find(peer);
  if (it == nodes_.end()) return 0;
  size_t n = 0;
  for (const auto& bucket : it->second.buckets) n += bucket.size();
  return n;
}

std::vector<net::PeerId> KademliaOverlay::ContactsOf(
    net::PeerId peer) const {
  std::vector<net::PeerId> out;
  auto it = nodes_.find(peer);
  if (it == nodes_.end()) return out;
  out.reserve(TableSize(peer));
  for (const auto& bucket : it->second.buckets) {
    out.insert(out.end(), bucket.begin(), bucket.end());
  }
  return out;
}

std::string KademliaOverlay::CheckInvariants() const {
  std::ostringstream err;
  for (size_t i = 1; i < sorted_ids_.size(); ++i) {
    if (!(sorted_ids_[i - 1] < sorted_ids_[i])) {
      err << "member ids not strictly sorted at index " << i;
      return err.str();
    }
  }
  for (const auto& [peer, st] : nodes_) {
    if (st.buckets.size() != 64) {
      err << "peer " << peer << " has " << st.buckets.size() << " buckets";
      return err.str();
    }
    for (int b = 0; b < 64; ++b) {
      if (st.buckets[b].size() > bucket_size_) {
        err << "peer " << peer << " bucket " << b << " over capacity";
        return err.str();
      }
      for (net::PeerId c : st.buckets[b]) {
        auto it = nodes_.find(c);
        if (it == nodes_.end()) {
          err << "peer " << peer << " references non-member " << c;
          return err.str();
        }
        if (BucketIndex(st.id, it->second.id) != b) {
          err << "peer " << peer << " filed contact " << c
              << " in bucket " << b << ", expected "
              << BucketIndex(st.id, it->second.id);
          return err.str();
        }
      }
    }
  }
  return "";
}

}  // namespace pdht::overlay
