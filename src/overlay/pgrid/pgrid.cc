#include "overlay/pgrid/pgrid.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <sstream>

#include "overlay/dht/id.h"
#include "util/bits.h"
#include "util/hash.h"

namespace pdht::overlay {

PGridOverlay::PGridOverlay(net::Network* network, Rng rng, PGridConfig config)
    : StructuredOverlay(network), rng_(rng), config_(config) {
  assert(config_.refs_per_level >= 1);
  assert(config_.max_leaf_peers >= 1);
}

void PGridOverlay::SetMembers(const std::vector<net::PeerId>& members) {
  paths_.clear();
  member_list_ = members;
  ResetMaintenanceBudgets();
  if (members.empty()) return;
  // Recursive halving: split the (shuffled) member set until groups are at
  // most max_leaf_peers, assigning '0' to one half and '1' to the other.
  std::vector<net::PeerId> shuffled = members;
  rng_.Shuffle(shuffled.data(), shuffled.size());
  std::function<void(size_t, size_t, TriePath)> assign =
      [&](size_t lo, size_t hi, TriePath path) {
        size_t n = hi - lo;
        if (n <= config_.max_leaf_peers || path.length() >= 62) {
          for (size_t i = lo; i < hi; ++i) {
            paths_[shuffled[i]] = NodeState{path, {}};
          }
          return;
        }
        size_t mid = lo + n / 2;
        assign(lo, mid, path.Child(0));
        assign(mid, hi, path.Child(1));
      };
  assign(0, shuffled.size(), TriePath{});
  BuildRoutingTables();
}

uint64_t PGridOverlay::BuildByExchanges(
    const std::vector<net::PeerId>& members, uint64_t max_exchanges) {
  paths_.clear();
  member_list_ = members;
  ResetMaintenanceBudgets();
  for (net::PeerId p : members) paths_[p] = NodeState{TriePath{}, {}};
  if (members.size() < 2) return 0;

  // P-Grid bootstrap: random pairwise meetings.  When two peers with the
  // same path meet, they split (one takes '0', the other '1') provided the
  // leaf population allows it; when their paths diverge they recurse into
  // referencing each other (we only track paths here; references are
  // rebuilt after convergence).  Splitting stops when a peer's leaf group
  // would drop below max_leaf_peers coverage of the opposite side, which
  // we approximate with a target depth of ceil(log2(n / max_leaf_peers)).
  const int target_depth = CeilLog2(
      std::max<uint64_t>(1, members.size() / config_.max_leaf_peers));
  uint64_t exchanges = 0;
  uint64_t stable_streak = 0;
  while (exchanges < max_exchanges && stable_streak < members.size() * 4) {
    net::PeerId a = members[rng_.UniformU64(members.size())];
    net::PeerId b = members[rng_.UniformU64(members.size())];
    if (a == b) continue;
    ++exchanges;
    network_->CountOnly(net::MessageType::kExchange, 1);
    NodeState& sa = paths_[a];
    NodeState& sb = paths_[b];
    // Meet at the longest common prefix of the two paths.
    int cpl = 0;
    int max_cpl = std::min(sa.path.length(), sb.path.length());
    while (cpl < max_cpl && sa.path.Bit(cpl) == sb.path.Bit(cpl)) ++cpl;
    bool a_ends = cpl == sa.path.length();
    bool b_ends = cpl == sb.path.length();
    if (a_ends && b_ends) {
      // Same path: split if below target depth.
      if (sa.path.length() < target_depth) {
        sa.path = sa.path.Child(0);
        sb.path = sb.path.Child(1);
        stable_streak = 0;
      } else {
        ++stable_streak;
      }
    } else if (a_ends != b_ends) {
      // One path is a strict prefix of the other: the shallower peer
      // specializes to the unoccupied side.
      NodeState& shallow = a_ends ? sa : sb;
      NodeState& deep = a_ends ? sb : sa;
      int bit = deep.path.Bit(cpl);
      shallow.path = shallow.path.Child(1 - bit);
      stable_streak = 0;
    } else {
      ++stable_streak;  // diverged: reference exchange only
    }
  }
  BuildRoutingTables();
  return exchanges;
}

std::vector<net::PeerId> PGridOverlay::PeersUnder(
    const TriePath& prefix) const {
  std::vector<net::PeerId> out;
  for (const auto& [peer, st] : paths_) {
    if (prefix.IsPrefixOf(st.path)) out.push_back(peer);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void PGridOverlay::BuildRefsFor(NodeState& st, Rng& rng) {
  st.levels.assign(static_cast<size_t>(st.path.length()), LevelRefs{});
  for (int l = 0; l < st.path.length(); ++l) {
    // Candidates: peers under the sibling prefix at level l.
    std::vector<net::PeerId> cands = PeersUnder(st.path.SiblingAt(l));
    rng.Shuffle(cands.data(), cands.size());
    uint32_t want = std::min<uint32_t>(config_.refs_per_level,
                                       static_cast<uint32_t>(cands.size()));
    st.levels[l].refs.assign(cands.begin(), cands.begin() + want);
  }
}

void PGridOverlay::BuildRoutingTables() {
  for (auto& [peer, st] : paths_) {
    (void)peer;
    BuildRefsFor(st, rng_);
  }
}

bool PGridOverlay::IsMember(net::PeerId peer) const {
  return paths_.count(peer) > 0;
}

const TriePath& PGridOverlay::PathOf(net::PeerId peer) const {
  static const TriePath kEmpty;
  auto it = paths_.find(peer);
  return it == paths_.end() ? kEmpty : it->second.path;
}

std::vector<net::PeerId> PGridOverlay::ResponsiblePeers(uint64_t key) const {
  std::vector<net::PeerId> out;
  ResponsiblePeersInto(key, std::numeric_limits<uint32_t>::max(), &out);
  return out;
}

void PGridOverlay::ResponsiblePeersInto(
    uint64_t key, uint32_t count, std::vector<net::PeerId>* out) const {
  uint64_t key_id = KeyToNodeId(key);
  out->clear();
  for (const auto& [peer, st] : paths_) {
    if (st.path.IsPrefixOfKey(key_id)) out->push_back(peer);
  }
  std::sort(out->begin(), out->end());
  if (out->size() > count) out->resize(count);
}

net::PeerId PGridOverlay::ResponsibleMember(uint64_t key) const {
  // Smallest peer id of the responsible leaf group (the same
  // representative ResponsiblePeers(key).front() used to yield), found
  // without materializing the group.
  uint64_t key_id = KeyToNodeId(key);
  net::PeerId best = net::kInvalidPeer;
  for (const auto& [peer, st] : paths_) {
    if (peer < best && st.path.IsPrefixOfKey(key_id)) best = peer;
  }
  return best;
}

bool PGridOverlay::StartLookup(net::PeerId origin, uint64_t key,
                               net::PeerId* responsible) {
  if (paths_.empty()) return false;
  assert(paths_.count(origin) > 0 && "lookup origin must be a member");
  (void)origin;
  lookup_slots_[CurrentLookupSlot()].key_id = KeyToNodeId(key);
  *responsible = ResponsibleMember(key);
  return true;
}

bool PGridOverlay::AtDestination(net::PeerId peer, uint64_t /*key*/) const {
  return paths_.at(peer).path.IsPrefixOfKey(
      lookup_slots_[CurrentLookupSlot()].key_id);
}

uint32_t PGridOverlay::LookupHopLimit() const { return 64 + 16; }

void PGridOverlay::NextHops(const RouteState& state, uint64_t /*key*/,
                            std::vector<RouteCandidate>* out) {
  const NodeState& st = paths_.at(state.cur);
  // References at the first differing level; all point to the key's side
  // of the trie and land >= 1 level deeper, so they form one progress
  // class (interchangeable for route-time PNS).
  int l = st.path.CommonPrefixWithKey(
      lookup_slots_[CurrentLookupSlot()].key_id);
  assert(l < static_cast<int>(st.levels.size()));
  for (net::PeerId ref : st.levels[static_cast<size_t>(l)].refs) {
    out->push_back(RouteCandidate{ref, static_cast<double>(l), false});
  }
}

size_t PGridOverlay::TableSize(net::PeerId peer) const {
  auto it = paths_.find(peer);
  if (it == paths_.end()) return 0;
  size_t total = 0;
  for (const auto& lvl : it->second.levels) total += lvl.refs.size();
  return total;
}

MaintenanceStats PGridOverlay::ProbeMember(size_t /*slot*/, net::PeerId peer,
                                           uint32_t probes, Rng& rng) {
  NodeState& st = paths_.at(peer);
  const size_t table = TableSize(peer);
  MaintenanceStats stats;
  for (uint32_t p = 0; p < probes; ++p) {
    // Pick a random reference uniformly across levels.
    size_t idx = rng.UniformU64(table);
    for (auto& lvl : st.levels) {
      if (idx < lvl.refs.size()) {
        net::PeerId target = lvl.refs[idx];
        SendProbe(peer, target);
        ++stats.probes_sent;
        if (!network_->IsOnline(target)) {
          ++stats.stale_detected;
          // Re-pick a live peer from the same sibling subtree.
          int level = static_cast<int>(&lvl - st.levels.data());
          auto cands = PeersUnder(st.path.SiblingAt(level));
          for (int a = 0; a < 16 && !cands.empty(); ++a) {
            net::PeerId cand = cands[rng.UniformU64(cands.size())];
            if (network_->IsOnline(cand) && cand != target) {
              lvl.refs[idx] = cand;
              ++stats.repairs;
              break;
            }
          }
        }
        break;
      }
      idx -= lvl.refs.size();
    }
  }
  return stats;
}

uint64_t PGridOverlay::RoutingFingerprint() const {
  uint64_t h = 0x7067726964ULL;  // "pgrid"
  for (net::PeerId peer : member_list_) {
    auto it = paths_.find(peer);
    if (it == paths_.end()) continue;
    const NodeState& st = it->second;
    h = Mix64(HashCombine(h, HashCombine(peer, st.path.msb_bits())));
    h = Mix64(HashCombine(h, static_cast<uint64_t>(st.path.length())));
    for (const auto& lvl : st.levels) {
      h = Mix64(HashCombine(h, lvl.refs.size()));
      for (net::PeerId ref : lvl.refs) h = Mix64(HashCombine(h, ref));
    }
  }
  return h;
}

void PGridOverlay::RejoinNode(net::PeerId peer, Rng& rng) {
  // find, not operator[]: rejoins run concurrently on distinct peers.
  auto it = paths_.find(peer);
  if (it != paths_.end()) BuildRefsFor(it->second, rng);
}

double PGridOverlay::StaleReferenceFraction() const {
  uint64_t total = 0;
  uint64_t stale = 0;
  for (const auto& [peer, st] : paths_) {
    if (!network_->IsOnline(peer)) continue;
    for (const auto& lvl : st.levels) {
      for (net::PeerId ref : lvl.refs) {
        ++total;
        if (!network_->IsOnline(ref)) ++stale;
      }
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(stale) / static_cast<double>(total);
}

std::string PGridOverlay::CheckInvariants() const {
  // Prefix-freeness: no member's path is a strict prefix of another's
  // (they would both claim the same keys ambiguously) -- except identical
  // paths, which are replicas and allowed.
  for (const auto& [pa, sa] : paths_) {
    for (const auto& [pb, sb] : paths_) {
      if (pa == pb) continue;
      if (sa.path.length() < sb.path.length() &&
          sa.path.IsPrefixOf(sb.path)) {
        std::ostringstream err;
        err << "path of peer " << pa << " (" << sa.path.ToString()
            << ") is a strict prefix of peer " << pb << " ("
            << sb.path.ToString() << ")";
        return err.str();
      }
    }
  }
  // Coverage: probe a sample of key ids; each must have >= 1 responsible.
  for (uint64_t k = 0; k < 64; ++k) {
    uint64_t key_id = KeyToNodeId(k * 0x123456789ULL + 7);
    bool covered = false;
    for (const auto& [peer, st] : paths_) {
      (void)peer;
      if (st.path.IsPrefixOfKey(key_id)) {
        covered = true;
        break;
      }
    }
    if (!covered && !paths_.empty()) {
      return "key space not covered";
    }
  }
  return "";
}

}  // namespace pdht::overlay
