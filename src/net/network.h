// Simulated network with message accounting and pluggable delivery.
//
// Design decision #5 (DESIGN.md): protocols do not count their own
// messages; every send goes through Network::Send, which attributes the
// message to the per-type counter registry.  This prevents a protocol
// implementation from under-reporting its cost and gives the benches a
// single source of truth.
//
// Accounting is allocation-free: the constructor interns one CounterId
// per MessageType plus "msg.total", so the per-message cost of Send is
// two array increments (no string construction, no map walk).  Send is
// defined inline here because it sits on the innermost simulation loop.
//
// Delivery model: pluggable (net/delivery_model.h).  The default is
// immediate -- the message is handed to the destination's handler
// synchronously, which is all the paper's message-count metric needs --
// and Send keeps that path inline and branch-cheap.  Installing a
// non-immediate model (SetDeliveryModel) routes delivery through
// SendDeferred: the model's per-link one-way delay is charged to the
// message, recorded into a per-message-type latency histogram and into
// the running total_latency_s() (which PdhtSystem brackets to measure
// per-lookup RTT), and the handler invocation is deferred through the
// simulation EventQueue so the message lands at its scheduled time.
// Message *counts* are identical under every model: the model decides
// when a handler runs, never whether a message is charged.
//
// Sends to offline peers are counted (the bytes hit the wire) but flagged
// undelivered -- additionally tallied under "net.lost" -- which is what
// makes stale routing entries costly and probing worthwhile.  Send's
// boolean reports the destination's liveness at *send* time; under
// deferred delivery a peer that churns offline mid-flight silently drops
// the message at arrival ("net.delivery.dropped").

#ifndef PDHT_NET_NETWORK_H_
#define PDHT_NET_NETWORK_H_

#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "net/delivery_model.h"
#include "net/message.h"
#include "stats/counter.h"
#include "stats/histogram.h"

namespace pdht::sim {
class EventQueue;
}  // namespace pdht::sim

namespace pdht::net {

/// Interface implemented by anything that can receive messages.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void HandleMessage(const Message& msg) = 0;
};

/// Per-shard accounting lane for the sharded round engine.
///
/// While a lane is bound to the calling thread (Network::BeginLane), Send/
/// CountOnly/ChargeProbeTimeout stop touching the shared CounterRegistry,
/// latency sum, histograms and event queue; instead they accumulate into
/// the lane: counter increments into `counter_delta` (a flat per-CounterId
/// buffer, merged later with CounterRegistry::MergeDelta -- integer adds
/// commute), and order-sensitive effects (deferred deliveries, timeout
/// waits, both of which feed floating-point sums, capped histograms and
/// event scheduling) into the `deferred` log, which the engine replays
/// serially in task order via Network::CommitDeferred so results are
/// bit-identical to a serial run.  Lane mode requires handler-free
/// delivery (the PDHT system runs all protocol logic at system level);
/// binding a lane while handlers are registered is unsupported.
struct ShardLane {
  struct Deferred {
    Message msg;     ///< valid when `timeout` is false
    double seconds;  ///< link delay (send) or probe-timeout wait
    bool timeout;
  };
  std::vector<uint64_t> counter_delta;  ///< CounterId -> pending increment
  std::vector<Deferred> deferred;       ///< order-sensitive effect log
  double latency_s = 0.0;  ///< per-task bracket accumulator (the engine
                           ///< zeroes it at task start so RTT deltas are
                           ///< scheduling-invariant); the authoritative
                           ///< latency replays from `deferred` at commit

  void Prepare(size_t num_counters) {
    counter_delta.assign(num_counters, 0);
    deferred.clear();
    latency_s = 0.0;
  }
};

class Network {
 public:
  /// `counters` must outlive the network.
  explicit Network(CounterRegistry* counters);

  /// Registers/replaces the handler for `peer`.  Peers without handlers
  /// swallow deliveries (counted, not processed).  First registration
  /// brings the peer online; later SetOnline calls are never clobbered.
  void Register(PeerId peer, MessageHandler* handler);

  /// Marks a peer online/offline.  Offline peers receive nothing.
  void SetOnline(PeerId peer, bool online);
  bool IsOnline(PeerId peer) const {
    return peer < online_.size() && online_[peer];
  }

  /// Peers currently online.  Maintained where the bit flips (SetOnline/
  /// Register), so callers sizing rejection-sampling loops or bailing out
  /// of an all-offline network need no bookkeeping of their own.
  uint32_t online_count() const {
    return static_cast<uint32_t>(online_list_.size());
  }

  /// The i-th currently-online peer, i in [0, online_count()).  Backed by
  /// a dense index maintained where the online bit flips (swap-remove on
  /// departure), so uniform draws over online peers are O(1) instead of
  /// rejection sampling over the id space -- which degrades badly at low
  /// online fractions and is hostile to sharded phases.  The ordering is
  /// an implementation detail, but it is a deterministic function of the
  /// online/offline flip history, so draws against it are reproducible.
  PeerId OnlinePeerAt(uint32_t i) const { return online_list_[i]; }

  /// Installs a delivery model (both must outlive the network; pass
  /// nullptr model to restore the built-in immediate path).  `events` is
  /// required for non-immediate models -- deferred deliveries are
  /// scheduled on it -- and may be nullptr otherwise.  Immediate models
  /// keep Send's inline synchronous path, so installing one is free.
  void SetDeliveryModel(const DeliveryModel* model, sim::EventQueue* events);

  const DeliveryModel* delivery_model() const { return delivery_; }
  /// True when deliveries are deferred through the event queue.
  bool deferred_delivery() const { return deferred_; }

  /// Sends `msg`; counts it under MessageTypeName(msg.type) and "msg.total".
  /// Returns true iff the destination was online at send time; a
  /// registered handler, if any, is invoked on delivery (synchronously,
  /// or at the model's scheduled arrival time when delivery is deferred).
  /// Peers never seen by Register/SetOnline are unreachable.
  bool Send(const Message& msg) {
    if (ShardLane* lane = tls_lane_; lane != nullptr) {
      // Lane mode: counter increments into the lane's delta buffer;
      // deferred sends are logged for serial replay.  Immediate delivery
      // in lane mode is accounting-only: lane phases require handler-free
      // peers (all PDHT protocol logic runs at system level), so the
      // delivered/lost outcome is the whole effect.
      lane->counter_delta[type_ids_[TypeIndex(msg.type)]] += 1;
      lane->counter_delta[total_id_] += 1;
      if (msg.to >= handlers_.size() || !online_[msg.to]) {
        lane->counter_delta[lost_id_] += 1;
        return false;
      }
      if (deferred_) {
        LaneSendDeferred(*lane, msg);
      } else {
        assert(handlers_[msg.to] == nullptr);
      }
      return true;
    }
    counters_->Add(type_ids_[TypeIndex(msg.type)]);
    counters_->Add(total_id_);
    if (msg.to >= handlers_.size() || !online_[msg.to]) {
      counters_->Add(lost_id_);
      return false;
    }
    if (deferred_) return SendDeferred(msg);
    // An online peer receives the message whether or not a handler object
    // is attached; most protocol logic in this library runs at system
    // level and only needs the delivered/lost outcome.
    MessageHandler* h = handlers_[msg.to];
    if (h != nullptr) h->HandleMessage(msg);
    return true;
  }

  /// Counts a message without delivering it.  Used for aggregate traffic
  /// the simulation accounts for statistically rather than hop-by-hop
  /// (e.g. duplication overhead factors).  Statistical traffic has no
  /// link, so no latency is charged under any delivery model.
  void CountOnly(MessageType type, uint64_t n = 1) {
    if (ShardLane* lane = tls_lane_; lane != nullptr) {
      lane->counter_delta[type_ids_[TypeIndex(type)]] += n;
      lane->counter_delta[total_id_] += n;
      return;
    }
    counters_->Add(type_ids_[TypeIndex(type)], n);
    counters_->Add(total_id_, n);
  }

  // --- Shard lanes (sharded round engine) -------------------------------

  /// Binds `lane` to the calling thread: until EndLane, this thread's
  /// Send/CountOnly/ChargeProbeTimeout accumulate into the lane instead of
  /// shared state (see ShardLane).  The lane must have been Prepare()d
  /// with counters()->NumCounters().  Per-thread, not per-network: a
  /// thread drives one system's phase at a time.
  void BeginLane(ShardLane* lane) { tls_lane_ = lane; }
  void EndLane() { tls_lane_ = nullptr; }

  /// Serially replays one logged order-sensitive effect from a lane, in
  /// task order, at the merge barrier: charges the latency sum, records
  /// the latency histogram sample and schedules the deferred arrival
  /// (or, for a timeout entry, just the latency charge).  Counter
  /// increments are NOT re-applied here -- they were captured in the
  /// lane's counter_delta and merged separately.
  void CommitDeferred(const ShardLane::Deferred& d);

  uint64_t TotalMessages() const { return counters_->Value(total_id_); }

  /// Total messages as observed by the *calling thread*: the shared
  /// counter plus the bound lane's pending delta, if any.  Query tasks in
  /// the sharded engine bracket this exactly like the serial path
  /// brackets TotalMessages() -- the shared counter is frozen during a
  /// parallel phase, so the before/after delta is the task's own traffic.
  uint64_t ObservedTotalMessages() const {
    uint64_t v = counters_->Value(total_id_);
    if (const ShardLane* lane = tls_lane_; lane != nullptr) {
      v += lane->counter_delta[total_id_];
    }
    return v;
  }

  /// Charged latency as observed by the calling thread (shared sum plus
  /// the bound lane's accumulator); the lane-mode analogue of bracketing
  /// total_latency_s().
  double ObservedLatencyS() const {
    const ShardLane* lane = tls_lane_;
    return lane != nullptr ? latency_sum_s_ + lane->latency_s
                           : latency_sum_s_;
  }
  uint64_t MessagesOfType(MessageType type) const {
    return counters_->Value(type_ids_[TypeIndex(type)]);
  }
  /// The interned id a message type is counted under (for callers that
  /// track per-round deltas without string lookups).
  CounterId CounterIdOf(MessageType type) const {
    return type_ids_[TypeIndex(type)];
  }
  CounterRegistry* counters() { return counters_; }

  // --- Latency accounting (populated only under deferred delivery) -----

  /// Running sum of every charged link delay, in seconds.  Callers
  /// bracket a protocol exchange (before/after delta) to measure its
  /// serialized path latency, e.g. PdhtSystem's per-lookup RTT samples.
  double total_latency_s() const { return latency_sum_s_; }

  /// Charges the delivery model's probe-detection timeout for a failed
  /// probe round from `from` toward `to` -- timeout-aware failed-probe
  /// costing (overlay::RoutingPolicy::timeout_costing): the sender
  /// waited ProbeTimeoutSeconds before giving up on the link, so that
  /// wait joins total_latency_s() (and thereby the per-lookup RTT
  /// brackets) and is tallied under "net.timeout".  A no-op under
  /// immediate delivery or a zero-timeout model.
  void ChargeProbeTimeout(PeerId from, PeerId to);

  /// Probe timeouts charged so far (the "net.timeout" counter).
  uint64_t TimeoutCount() const { return counters_->Value(timeout_id_); }
  /// The interned id timeouts are counted under (for per-round series).
  CounterId timeout_counter_id() const { return timeout_id_; }

  /// Tallies one replica-failover event under "net.failover": a dead
  /// terminal replica was skipped in favour of the next live one
  /// (overlay::RoutingPolicy::replica_route).  Timeout waits for the
  /// skipped replicas are charged separately via ChargeProbeTimeout.
  void CountFailover() {
    if (ShardLane* lane = tls_lane_; lane != nullptr) {
      lane->counter_delta[failover_id_] += 1;
      return;
    }
    counters_->Add(failover_id_);
  }

  /// Replica failovers so far (the "net.failover" counter).
  uint64_t FailoverCount() const { return counters_->Value(failover_id_); }
  /// The interned id failovers are counted under (for per-round series).
  CounterId failover_counter_id() const { return failover_id_; }

  /// Installs (or clears, with nullptr) the adaptive-RTO estimator fed
  /// by observed deferred-delivery delays (2x the one-way link delay as
  /// the round-trip proxy).  Not owned; must outlive the network.
  /// Determinism: Observe() fires only at serial points -- SendDeferred
  /// on the serial path and CommitDeferred's in-task-order replay --
  /// never from LaneSend inside a parallel phase, so estimator state is
  /// frozen while workers read it and results are shard-count invariant.
  void SetRttObserver(PeerRtoEstimator* obs) { rtt_observer_ = obs; }

  /// Per-message-type one-way link-delay samples, in milliseconds.
  const Histogram& TypeLatencyMs(MessageType type) const {
    return type_latency_ms_[TypeIndex(type)];
  }

  /// Messages handed to the event queue / dropped because the
  /// destination churned offline mid-flight.
  uint64_t DeferredCount() const { return counters_->Value(deferred_id_); }
  uint64_t DroppedCount() const { return counters_->Value(dropped_id_); }

  size_t num_registered() const { return handlers_.size(); }

 private:
  /// kCount (and anything out of range) maps to the "msg.invalid" slot,
  /// mirroring MessageTypeName's fallback.
  static size_t TypeIndex(MessageType type) {
    size_t i = static_cast<size_t>(type);
    return i < kNumTypes - 1 ? i : kNumTypes - 1;
  }

  static constexpr size_t kNumTypes =
      static_cast<size_t>(MessageType::kCount) + 1;

  /// Grows the per-peer arrays to cover `peer`; new slots are offline and
  /// unseen (the Send contract: never-seen peers are unreachable).
  void EnsureSlot(PeerId peer);

  /// The non-immediate delivery path: charges the model's link delay,
  /// records the latency sample and schedules the handler invocation on
  /// the event queue.  Out of line -- it only runs when a latency model
  /// is installed, and keeping it out of Send keeps the inline fast path
  /// small.
  bool SendDeferred(const Message& msg);

  /// Lane-mode deferred send: charges the model's delay into the lane
  /// and logs the message for CommitDeferred.  Out of line, like
  /// SendDeferred: it only runs when a latency model is installed.
  void LaneSendDeferred(ShardLane& lane, const Message& msg);

  /// Schedules the arrival of a (possibly lane-logged) deferred message.
  void ScheduleArrival(const Message& msg, double delay_s);

  CounterRegistry* counters_;
  std::array<CounterId, kNumTypes> type_ids_;
  CounterId total_id_;
  CounterId lost_id_;      ///< "net.lost": sends to offline/unseen peers
  CounterId deferred_id_;  ///< "net.delivery.deferred"
  CounterId dropped_id_;   ///< "net.delivery.dropped"
  CounterId timeout_id_;   ///< "net.timeout": charged probe timeouts
  CounterId failover_id_;  ///< "net.failover": replica failover events
  // Struct-of-arrays peer state: parallel flat arrays indexed by PeerId,
  // plus a dense list of online peers for O(1) uniform draws.
  std::vector<MessageHandler*> handlers_;
  std::vector<bool> online_;
  std::vector<bool> seen_;            ///< touched by Register/SetOnline
  std::vector<PeerId> online_list_;   ///< dense: the online peers
  std::vector<uint32_t> online_pos_;  ///< peer -> index in online_list_

  // constinit: no dynamic initialization, so every access (inline Send
  // included) reads the slot directly instead of through a TLS wrapper.
  static constinit thread_local ShardLane* tls_lane_;

  const DeliveryModel* delivery_ = nullptr;  ///< not owned; null = immediate
  sim::EventQueue* events_ = nullptr;        ///< not owned
  PeerRtoEstimator* rtt_observer_ = nullptr;  ///< not owned; null = no RTO
  bool deferred_ = false;  ///< delivery_ != null && !delivery_->immediate()
  double latency_sum_s_ = 0.0;
  std::array<Histogram, kNumTypes> type_latency_ms_;
};

}  // namespace pdht::net

#endif  // PDHT_NET_NETWORK_H_
