#include "sim/churn.h"

#include <cassert>
#include <cmath>

namespace pdht::sim {

std::string ChurnConfig::Validate() const {
  if (!(std::isfinite(mean_online_s) && mean_online_s > 0.0)) {
    return "churn.mean_online_s must be finite and > 0";
  }
  if (!(std::isfinite(mean_offline_s) && mean_offline_s > 0.0)) {
    return "churn.mean_offline_s must be finite and > 0";
  }
  return "";
}

ChurnModel::ChurnModel(uint32_t num_peers, const ChurnConfig& config, Rng rng)
    : config_(config),
      rng_(rng),
      online_(num_peers, true),
      forced_off_(num_peers, false) {
  online_count_ = num_peers;
  if (!config_.enabled) return;
  // Start every peer online with a fresh session; staggering the first
  // flips with full session lengths converges to the stationary
  // distribution after ~one mean session.
  for (uint32_t p = 0; p < num_peers; ++p) {
    // Start a fraction of peers offline according to the stationary
    // availability so measurements are valid from round 0.
    double avail = config_.StationaryAvailability();
    if (!rng_.Bernoulli(avail)) {
      online_[p] = false;
      --online_count_;
    }
    ScheduleNext(p);
  }
}

void ChurnModel::ScheduleNext(uint32_t peer) {
  double mean =
      online_[peer] ? config_.mean_online_s : config_.mean_offline_s;
  double dt = rng_.Exponential(1.0 / mean);
  heap_.push(PendingFlip{now_ + dt, peer});
}

void ChurnModel::AdvanceTo(double t) {
  if (t <= now_) return;  // the clock never runs backwards
  if (!config_.enabled) {
    now_ = t;
    return;
  }
  while (!heap_.empty() && heap_.top().when <= t) {
    PendingFlip f = heap_.top();
    heap_.pop();
    now_ = f.when;
    bool new_state = !online_[f.peer];
    online_[f.peer] = new_state;
    // A forced-offline peer's underlying sessions keep flipping (and
    // ScheduleNext keeps consuming the same Rng draws as an outage-free
    // run), but its *effective* state stays pinned offline: the count
    // and the observers only track effective flips.
    if (!forced_off_[f.peer]) {
      if (new_state) {
        ++online_count_;
      } else {
        assert(online_count_ > 0);
        --online_count_;
      }
      for (auto& [fn, ctx] : observers_) fn(ctx, f.peer, new_state, f.when);
    }
    ScheduleNext(f.peer);
  }
  now_ = t;
}

void ChurnModel::ForceOffline(uint32_t peer) {
  if (forced_off_[peer]) return;
  forced_off_[peer] = true;
  if (online_[peer]) {
    assert(online_count_ > 0);
    --online_count_;
    for (auto& [fn, ctx] : observers_) fn(ctx, peer, false, now_);
  }
}

void ChurnModel::Heal(uint32_t peer) {
  if (!forced_off_[peer]) return;
  forced_off_[peer] = false;
  if (online_[peer]) {
    ++online_count_;
    for (auto& [fn, ctx] : observers_) fn(ctx, peer, true, now_);
  }
}

void ChurnModel::AddObserver(TransitionFn fn, void* ctx) {
  observers_.emplace_back(fn, ctx);
}

double ChurnModel::OnlineFraction() const {
  if (online_.empty()) return 0.0;
  return static_cast<double>(online_count_) /
         static_cast<double>(online_.size());
}

double ChurnModel::ExpectedTransitionRate() const {
  if (!config_.enabled) return 0.0;
  // Alternating renewal process: one on->off and one off->on flip per
  // full cycle of expected length (mean_on + mean_off).
  return 2.0 / (config_.mean_online_s + config_.mean_offline_s);
}

}  // namespace pdht::sim
