// Peer churn model.
//
// "P2P clients are extremely transient in nature [ChRa03]" -- the paper's
// routing-maintenance cost cRtn exists precisely because peers continuously
// join and leave.  We model each peer's availability as an alternating
// renewal process with exponentially distributed online sessions (mean
// `mean_online_s`) and offline gaps (mean `mean_offline_s`), matching the
// session-length modelling used for the [MaCa03] maintenance analysis.
// The stationary availability is mean_on / (mean_on + mean_off).
//
// This synthetic churn is our substitute for the Gnutella trace the paper
// cites (see DESIGN.md "Substitutions"): it exercises the identical code
// path -- stale routing entries appear at a controllable rate and must be
// detected by probing.
//
// Correlated failures (sim/scenario.h) layer a *forced-outage mask* on
// top of the i.i.d. renewal processes: ForceOffline(peer) pins a peer's
// effective state offline until Heal(peer), regardless of its underlying
// session state.  The mask is deliberately non-invasive to the renewal
// machinery -- the underlying sessions keep flipping (and keep drawing
// from the Rng stream) while a peer is forced down, so the random stream
// and post-heal trajectories are bit-identical whether or not an outage
// was injected; observers simply don't hear about flips of masked peers
// (their effective state isn't changing).

#ifndef PDHT_SIM_CHURN_H_
#define PDHT_SIM_CHURN_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pdht::sim {

struct ChurnConfig {
  double mean_online_s = 3600.0;   ///< mean online session length.
  double mean_offline_s = 1800.0;  ///< mean offline gap.
  /// If false, peers never leave (static network; useful for protocol
  /// correctness tests that separate routing logic from churn).
  bool enabled = true;

  double StationaryAvailability() const {
    if (!enabled) return 1.0;
    return mean_online_s / (mean_online_s + mean_offline_s);
  }

  /// Empty when self-consistent: both means finite and > 0 (a zero mean
  /// makes every session 0 s long, so AdvanceTo never finishes).
  std::string Validate() const;
};

/// Tracks the on/off state of `n` peers in simulated time.
///
/// Usage: call AdvanceTo(t) before reading states; transitions between the
/// previous and new time are applied in order.  Observers (the overlays)
/// register callbacks to react to state flips (e.g. invalidating routing
/// entries).
class ChurnModel {
 public:
  using TransitionFn = void (*)(void* ctx, uint32_t peer, bool online,
                                double when);

  ChurnModel(uint32_t num_peers, const ChurnConfig& config, Rng rng);

  /// Applies all transitions up to and including time `t`.
  void AdvanceTo(double t);

  /// Effective state: the renewal-process state masked by any forced
  /// outage.
  bool IsOnline(uint32_t peer) const {
    return online_[peer] && !forced_off_[peer];
  }
  uint32_t num_peers() const { return static_cast<uint32_t>(online_.size()); }
  uint32_t online_count() const { return online_count_; }
  const ChurnConfig& config() const { return config_; }
  double now() const { return now_; }

  /// Registers a transition observer (plain function + context to keep the
  /// hot path allocation-free).  Observers fire in registration order.
  void AddObserver(TransitionFn fn, void* ctx);

  // --- Forced outages (correlated-failure scenarios) -------------------

  /// Pins `peer`'s effective state offline until Heal, independent of its
  /// renewal process (which keeps running underneath -- see the header
  /// comment's determinism note).  Fires the offline observers iff the
  /// effective state actually flips.  Idempotent; consumes no randomness.
  void ForceOffline(uint32_t peer);

  /// Lifts a forced outage; fires the online observers iff the peer's
  /// underlying session state makes it effectively online again.
  /// Idempotent; consumes no randomness.
  void Heal(uint32_t peer);

  bool IsForcedOffline(uint32_t peer) const { return forced_off_[peer]; }

  /// Fraction of peers currently online.
  double OnlineFraction() const;

  /// Expected number of state flips per peer per second under the config
  /// (used to validate the model statistically).
  double ExpectedTransitionRate() const;

 private:
  void ScheduleNext(uint32_t peer);

  struct PendingFlip {
    double when;
    uint32_t peer;
    bool operator>(const PendingFlip& o) const {
      if (when != o.when) return when > o.when;
      return peer > o.peer;
    }
  };

  ChurnConfig config_;
  Rng rng_;
  std::vector<bool> online_;      ///< underlying renewal-process state
  std::vector<bool> forced_off_;  ///< forced-outage mask (scenarios)
  std::priority_queue<PendingFlip, std::vector<PendingFlip>,
                      std::greater<PendingFlip>>
      heap_;
  std::vector<std::pair<TransitionFn, void*>> observers_;
  uint32_t online_count_ = 0;
  double now_ = 0.0;
};

}  // namespace pdht::sim

#endif  // PDHT_SIM_CHURN_H_
