#include "overlay/can/can.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <functional>
#include <sstream>

#include "util/hash.h"

namespace pdht::overlay {

namespace {

/// Torus distance between coordinates a and b in [0, 1).
double TorusDist(double a, double b) {
  double d = std::abs(a - b);
  return std::min(d, 1.0 - d);
}

/// Distance from coordinate x to interval [lo, hi) on the torus.
double TorusDistToInterval(double x, double lo, double hi) {
  if (x >= lo && x < hi) return 0.0;
  return std::min(TorusDist(x, lo), TorusDist(x, hi));
}

/// 1-D intervals abut on the unit torus.
bool Abuts(double lo_a, double hi_a, double lo_b, double hi_b) {
  auto close = [](double u, double v) { return std::abs(u - v) < 1e-12; };
  if (close(hi_a, lo_b) || close(hi_b, lo_a)) return true;
  // Wrap-around adjacency at 0/1.
  if (close(hi_a, 1.0) && close(lo_b, 0.0)) return true;
  if (close(hi_b, 1.0) && close(lo_a, 0.0)) return true;
  return false;
}

/// 1-D intervals overlap (positively) -- used for the non-split dims.
bool Overlaps(double lo_a, double hi_a, double lo_b, double hi_b) {
  return lo_a < hi_b - 1e-12 && lo_b < hi_a - 1e-12;
}

}  // namespace

bool CanZone::Contains(const CanPoint& p) const {
  for (int d = 0; d < kCanDims; ++d) {
    if (p.x[d] < lo[d] || p.x[d] >= hi[d]) return false;
  }
  return true;
}

CanPoint CanZone::Center() const {
  CanPoint c;
  for (int d = 0; d < kCanDims; ++d) c.x[d] = 0.5 * (lo[d] + hi[d]);
  return c;
}

bool CanZone::IsNeighbor(const CanZone& other) const {
  // A (d-1)-face is shared iff the zones abut in exactly one dimension and
  // their extents overlap in every other dimension (corner contact is not
  // adjacency in CAN).
  int abut_only = 0;
  for (int d = 0; d < kCanDims; ++d) {
    bool overlaps = Overlaps(lo[d], hi[d], other.lo[d], other.hi[d]);
    bool abuts = Abuts(lo[d], hi[d], other.lo[d], other.hi[d]);
    if (overlaps) continue;
    if (abuts) {
      ++abut_only;
    } else {
      return false;  // separated in this dimension
    }
  }
  return abut_only == 1;
}

double CanZone::Volume() const {
  double v = 1.0;
  for (int d = 0; d < kCanDims; ++d) v *= hi[d] - lo[d];
  return v;
}

CanOverlay::CanOverlay(net::Network* network, Rng rng)
    : StructuredOverlay(network), rng_(rng) {}

void CanOverlay::SetMembers(const std::vector<net::PeerId>& members) {
  zones_.clear();
  neighbors_.clear();
  ResetMaintenanceBudgets();
  member_list_ = members;
  if (members.empty()) return;

  std::vector<net::PeerId> shuffled = members;
  rng_.Shuffle(shuffled.data(), shuffled.size());

  // Recursive halving, splitting dimensions round-robin -- the balanced
  // equivalent of CAN's incremental zone splits.
  std::function<void(size_t, size_t, CanZone, int)> assign =
      [&](size_t lo_i, size_t hi_i, CanZone zone, int dim) {
        size_t n = hi_i - lo_i;
        if (n == 1) {
          zones_[shuffled[lo_i]] = zone;
          return;
        }
        size_t mid_i = lo_i + n / 2;
        double mid = 0.5 * (zone.lo[dim] + zone.hi[dim]);
        CanZone left = zone;
        left.hi[dim] = mid;
        CanZone right = zone;
        right.lo[dim] = mid;
        int next = (dim + 1) % kCanDims;
        assign(lo_i, mid_i, left, next);
        assign(mid_i, hi_i, right, next);
      };
  CanZone unit;
  for (int d = 0; d < kCanDims; ++d) {
    unit.lo[d] = 0.0;
    unit.hi[d] = 1.0;
  }
  assign(0, shuffled.size(), unit, 0);

  // Neighbor lists (O(n^2) construction; fine for simulation scales).
  for (net::PeerId a : member_list_) {
    auto& nbrs = neighbors_[a];
    const CanZone& za = zones_.at(a);
    for (net::PeerId b : member_list_) {
      if (a == b) continue;
      if (za.IsNeighbor(zones_.at(b))) nbrs.push_back(b);
    }
  }
}

bool CanOverlay::IsMember(net::PeerId peer) const {
  return zones_.count(peer) > 0;
}

const CanZone& CanOverlay::ZoneOf(net::PeerId peer) const {
  static const CanZone kEmpty{};
  auto it = zones_.find(peer);
  return it == zones_.end() ? kEmpty : it->second;
}

const std::vector<net::PeerId>& CanOverlay::NeighborsOf(
    net::PeerId peer) const {
  auto it = neighbors_.find(peer);
  return it == neighbors_.end() ? empty_ : it->second;
}

CanPoint CanOverlay::KeyToPoint(uint64_t key) {
  CanPoint p;
  uint64_t h = Mix64(key ^ 0xCA11AB1E5EEDULL);
  for (int d = 0; d < kCanDims; ++d) {
    // 32 bits per coordinate (kCanDims == 2).
    uint64_t bits = (h >> (32 * d)) & 0xFFFFFFFFULL;
    p.x[d] = static_cast<double>(bits) / 4294967296.0;
  }
  return p;
}

net::PeerId CanOverlay::ResponsibleMember(uint64_t key) const {
  CanPoint p = KeyToPoint(key);
  for (const auto& [peer, zone] : zones_) {
    if (zone.Contains(p)) return peer;
  }
  return net::kInvalidPeer;
}

double CanOverlay::DistanceToZone(const CanPoint& p, const CanZone& z) {
  double sum = 0.0;
  for (int d = 0; d < kCanDims; ++d) {
    double dd = TorusDistToInterval(p.x[d], z.lo[d], z.hi[d]);
    sum += dd * dd;
  }
  return sum;
}

bool CanOverlay::StartLookup(net::PeerId origin, uint64_t key,
                             net::PeerId* responsible) {
  if (zones_.empty()) return false;
  assert(IsMember(origin) && "lookup origin must be a member");
  LookupSlot& slot = CurrentSlot();
  slot.point = KeyToPoint(key);
  *responsible = ResponsibleMember(key);
  ++slot.visit_gen;
  MarkVisited(origin);
  return true;
}

bool CanOverlay::AtDestination(net::PeerId peer, uint64_t /*key*/) const {
  auto it = zones_.find(peer);
  return it != zones_.end() && it->second.Contains(CurrentSlot().point);
}

uint32_t CanOverlay::LookupHopLimit() const {
  // Greedy routing advances every hop (~n^(1/d) per dim); the slack
  // accommodates churn detours.
  return 8 * static_cast<uint32_t>(
                 std::ceil(std::pow(static_cast<double>(zones_.size()),
                                    1.0 / kCanDims))) +
         16;
}

void CanOverlay::NextHops(const RouteState& state, uint64_t /*key*/,
                          std::vector<RouteCandidate>* out) {
  LookupSlot& slot = CurrentSlot();
  const CanPoint& point = slot.point;
  const double cur_dist = DistanceToZone(point, zones_.at(state.cur));
  // Neighbors in order of increasing distance-to-target: every
  // progressing neighbor, then at most one unvisited non-progressing
  // detour (the visited set prevents detour loops when greedy progress
  // is blocked by offline zones).
  std::vector<net::PeerId>& order = slot.sort_scratch;
  order = NeighborsOf(state.cur);
  std::sort(order.begin(), order.end(),
            [&](net::PeerId a, net::PeerId b) {
              return DistanceToZone(point, zones_.at(a)) <
                     DistanceToZone(point, zones_.at(b));
            });
  bool emitted_detour = false;
  for (net::PeerId cand : order) {
    const double d = DistanceToZone(point, zones_.at(cand));
    if (!(d < cur_dist)) {
      if (emitted_detour || Visited(cand)) continue;
      emitted_detour = true;
    }
    // Progress metric: the remaining torus distance itself -- exact ties
    // (symmetric zone geometry) are the only interchangeable candidates.
    out->push_back(RouteCandidate{cand, d, false});
  }
}

MaintenanceStats CanOverlay::ProbeMember(size_t /*slot*/, net::PeerId peer,
                                         uint32_t probes, Rng& rng) {
  const auto& nbrs = NeighborsOf(peer);
  MaintenanceStats stats;
  for (uint32_t p = 0; p < probes; ++p) {
    net::PeerId target = nbrs[rng.UniformU64(nbrs.size())];
    SendProbe(peer, target);
    ++stats.probes_sent;
    if (!network_->IsOnline(target)) ++stats.stale_detected;
  }
  return stats;
}

uint64_t CanOverlay::RoutingFingerprint() const {
  auto double_bits = [](double d) {
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
  };
  uint64_t h = 0x63616eULL;  // "can"
  for (net::PeerId peer : member_list_) {
    auto zit = zones_.find(peer);
    if (zit == zones_.end()) continue;
    h = Mix64(HashCombine(h, peer));
    for (int d = 0; d < kCanDims; ++d) {
      h = Mix64(HashCombine(h, double_bits(zit->second.lo[d])));
      h = Mix64(HashCombine(h, double_bits(zit->second.hi[d])));
    }
    const auto& nbrs = NeighborsOf(peer);
    h = Mix64(HashCombine(h, nbrs.size()));
    for (net::PeerId n : nbrs) h = Mix64(HashCombine(h, n));
  }
  return h;
}

size_t CanOverlay::TableSize(net::PeerId peer) const {
  return NeighborsOf(peer).size();
}

std::string CanOverlay::CheckInvariants() const {
  double volume = 0.0;
  for (const auto& [peer, zone] : zones_) {
    (void)peer;
    volume += zone.Volume();
  }
  if (std::abs(volume - 1.0) > 1e-9 && !zones_.empty()) {
    std::ostringstream err;
    err << "zone volumes sum to " << volume << ", expected 1";
    return err.str();
  }
  // Sampled coverage + uniqueness.
  for (uint64_t k = 0; k < 128; ++k) {
    CanPoint p = KeyToPoint(k * 0x9e3779b9ULL + 3);
    int owners = 0;
    for (const auto& [peer, zone] : zones_) {
      (void)peer;
      if (zone.Contains(p)) ++owners;
    }
    if (owners != 1 && !zones_.empty()) {
      std::ostringstream err;
      err << "point has " << owners << " owners";
      return err.str();
    }
  }
  return "";
}

}  // namespace pdht::overlay
