#include "net/network.h"

#include <cassert>

#include "net/rtt_estimator.h"
#include "sim/event_queue.h"

namespace pdht::net {

constinit thread_local ShardLane* Network::tls_lane_ = nullptr;

namespace {
constexpr uint32_t kNotOnline = UINT32_MAX;
}  // namespace

Network::Network(CounterRegistry* counters) : counters_(counters) {
  assert(counters != nullptr);
  // Intern every message-type counter up front so Send never touches a
  // string.  Interning is idempotent, so sharing the registry between
  // networks (or with string-keyed users) is fine.
  for (size_t i = 0; i < kNumTypes; ++i) {
    type_ids_[i] =
        counters_->Intern(MessageTypeName(static_cast<MessageType>(i)));
  }
  total_id_ = counters_->Intern("msg.total");
  // Delivery-outcome counters live under "net.", not "msg.": they tally
  // outcomes of already-counted messages, so folding them into the
  // "msg." prefix groups would double-charge the cost series.
  lost_id_ = counters_->Intern("net.lost");
  deferred_id_ = counters_->Intern("net.delivery.deferred");
  dropped_id_ = counters_->Intern("net.delivery.dropped");
  timeout_id_ = counters_->Intern("net.timeout");
  failover_id_ = counters_->Intern("net.failover");
  // One latency sample lands here per deferred message -- an unbounded
  // stream at paper scale -- so bound the per-type retention; moments
  // stay exact and quantiles degrade to systematic-subsample estimates.
  for (Histogram& h : type_latency_ms_) h.SetSampleCap(1 << 16);
}

void Network::EnsureSlot(PeerId peer) {
  if (peer >= handlers_.size()) {
    handlers_.resize(peer + 1, nullptr);
    online_.resize(peer + 1, false);
    seen_.resize(peer + 1, false);
    online_pos_.resize(peer + 1, kNotOnline);
  }
}

void Network::Register(PeerId peer, MessageHandler* handler) {
  EnsureSlot(peer);
  if (!seen_[peer]) {
    // First contact: a registered peer defaults online.  Peers only
    // *gap-covered* by a larger id stay unseen and unreachable.
    seen_[peer] = true;
    online_[peer] = true;
    online_pos_[peer] = static_cast<uint32_t>(online_list_.size());
    online_list_.push_back(peer);
  }
  handlers_[peer] = handler;
}

void Network::SetOnline(PeerId peer, bool online) {
  EnsureSlot(peer);
  seen_[peer] = true;
  if (online_[peer] == online) return;
  online_[peer] = online;
  if (online) {
    online_pos_[peer] = static_cast<uint32_t>(online_list_.size());
    online_list_.push_back(peer);
  } else {
    // Swap-remove from the dense list; the displaced tail peer inherits
    // the vacated slot.
    uint32_t pos = online_pos_[peer];
    PeerId tail = online_list_.back();
    online_list_[pos] = tail;
    online_pos_[tail] = pos;
    online_list_.pop_back();
    online_pos_[peer] = kNotOnline;
  }
}

void Network::SetDeliveryModel(const DeliveryModel* model,
                               sim::EventQueue* events) {
  delivery_ = model;
  events_ = events;
  deferred_ = model != nullptr && !model->immediate();
  assert(!deferred_ || events != nullptr);
}

void Network::ChargeProbeTimeout(PeerId from, PeerId to) {
  if (!deferred_) return;  // immediate delivery has no latency axis
  const double s = delivery_->ProbeTimeoutSeconds(from, to);
  if (s <= 0.0) return;
  if (ShardLane* lane = tls_lane_; lane != nullptr) {
    lane->counter_delta[timeout_id_] += 1;
    lane->latency_s += s;
    lane->deferred.push_back(ShardLane::Deferred{Message{}, s, true});
    return;
  }
  latency_sum_s_ += s;
  counters_->Add(timeout_id_);
}

void Network::ScheduleArrival(const Message& msg, double delay_s) {
  auto arrival = [this, msg] {
    // Arrival: the destination may have churned offline mid-flight; the
    // message was charged at send time, so the drop is free but tallied.
    // The tally is lane-aware because tagged arrivals may run inside the
    // partitioned boundary drain, where each worker holds a bound lane
    // and the commutative deltas merge after (serial drains have no lane
    // bound and hit the registry directly, as before).
    if (msg.to < handlers_.size() && online_[msg.to]) {
      MessageHandler* h = handlers_[msg.to];
      if (h != nullptr) h->HandleMessage(msg);
    } else if (ShardLane* lane = tls_lane_; lane != nullptr) {
      lane->counter_delta[dropped_id_] += 1;
    } else {
      counters_->Add(dropped_id_);
    }
  };
  if (msg.to >= handlers_.size() || handlers_[msg.to] == nullptr) {
    // Handler-free destination (the PDHT system runs all protocol logic
    // at system level): the arrival's only possible effect is the
    // commutative drop tally above, so tag it with the destination for
    // the partitioned boundary drain.  A registered handler is
    // order-sensitive by assumption and keeps the event serial-only.
    events_->ScheduleAfter(delay_s, std::move(arrival), msg.to);
  } else {
    events_->ScheduleAfter(delay_s, std::move(arrival));
  }
}

bool Network::SendDeferred(const Message& msg) {
  const double delay = delivery_->LinkDelaySeconds(msg.from, msg.to);
  latency_sum_s_ += delay;
  type_latency_ms_[TypeIndex(msg.type)].Add(delay * 1e3);
  counters_->Add(deferred_id_);
  // Successful delivery = an implicit RTT sample for the destination
  // (2x one-way as the round-trip proxy).  Serial path: safe to mutate.
  if (rtt_observer_ != nullptr) rtt_observer_->Observe(msg.to, 2e3 * delay);
  ScheduleArrival(msg, delay);
  return true;
}

void Network::LaneSendDeferred(ShardLane& lane, const Message& msg) {
  // Charge the model's delay into the lane only; the shared latency sum,
  // histogram sample and event scheduling happen at the merge barrier
  // (CommitDeferred), serially and in task order.
  const double delay = delivery_->LinkDelaySeconds(msg.from, msg.to);
  lane.counter_delta[deferred_id_] += 1;
  lane.latency_s += delay;
  lane.deferred.push_back(ShardLane::Deferred{msg, delay, false});
}

void Network::CommitDeferred(const ShardLane::Deferred& d) {
  latency_sum_s_ += d.seconds;
  if (d.timeout) return;
  // Replayed serially in global task order, so lane-mode runs feed the
  // estimator the same sample sequence as a serial run.  Timeout entries
  // returned above: Karn's rule, a timed-out probe contributes no sample
  // (and its `seconds` is a wait, not a link delay).
  if (rtt_observer_ != nullptr) {
    rtt_observer_->Observe(d.msg.to, 2e3 * d.seconds);
  }
  type_latency_ms_[TypeIndex(d.msg.type)].Add(d.seconds * 1e3);
  ScheduleArrival(d.msg, d.seconds);
}

}  // namespace pdht::net
