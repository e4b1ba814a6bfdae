#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tornado {

Network::Network(EventLoop* loop, CostModel cost, uint64_t seed,
                 uint32_t shard, uint32_t num_shards,
                 MetricRegistry* shared_metrics)
    : loop_(loop),
      cost_(cost),
      seed_(seed),
      shard_(shard),
      num_shards_(num_shards) {
  TCHECK_LT(shard_, num_shards_ == 0 ? 1 : num_shards_);
  if (shared_metrics != nullptr) {
    metrics_ = shared_metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricRegistry>();
    metrics_ = owned_metrics_.get();
  }
  c_sent_ = &metrics_->CounterHandle(metric::kMessagesSent);
  c_delivered_ = &metrics_->CounterHandle(metric::kMessagesDelivered);
  c_retransmitted_ = &metrics_->CounterHandle(metric::kMessagesRetransmitted);
  c_deduped_ = &metrics_->CounterHandle(metric::kMessagesDeduped);
  c_transport_acks_ = &metrics_->CounterHandle(metric::kTransportAcks);
  c_dropped_link_ = &metrics_->CounterHandle(metric::kMessagesDroppedLink);
  c_acks_dropped_link_ = &metrics_->CounterHandle(metric::kAcksDroppedLink);
}

void Network::AddNodeEntry(Node* node, HostId host, double speed_factor) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  NodeState state;
  state.node = node;
  state.host = host;
  state.speed = speed_factor;
  // Per-node jitter stream derived from (seed, id) alone: every instance
  // — serial or any shard of a parallel run — reproduces node i's stream
  // bit-for-bit, which is what keeps same-seed traces identical across
  // shard counts (docs/PARSIM.md).
  state.rng = Rng(seed_ + 0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(id) + 1));
  nodes_.push_back(std::move(state));
  if (host >= hosts_.size()) hosts_.resize(host + 1);
}

void Network::ResizeLinks() {
  // Clusters register every node before traffic flows, so this runs once,
  // at the first channel lookup, and moves nothing.
  const size_t old_n = link_stride_;
  const size_t n = nodes_.size();
  std::vector<std::vector<Channel>> links(n * n);
  for (size_t src = 0; src < old_n; ++src) {
    for (size_t dst = 0; dst < old_n; ++dst) {
      links[src * n + dst] = std::move(links_[src * old_n + dst]);
    }
  }
  links_ = std::move(links);
  link_stride_ = n;
}

Network::Channel* Network::FindChannel(NodeId src, NodeId dst,
                                       uint32_t src_inc, uint32_t dst_inc) {
  std::vector<Channel>& link = Link(src, dst);
  // The newest incarnation pair is the one traffic uses; search from it.
  for (auto it = link.rbegin(); it != link.rend(); ++it) {
    if (it->src_inc == src_inc && it->dst_inc == dst_inc) return &*it;
  }
  return nullptr;
}

Network::Channel& Network::ChannelFor(NodeId src, NodeId dst,
                                      uint32_t src_inc, uint32_t dst_inc) {
  if (Channel* c = FindChannel(src, dst, src_inc, dst_inc)) return *c;
  std::vector<Channel>& link = Link(src, dst);
  link.emplace_back();
  link.back().src_inc = src_inc;
  link.back().dst_inc = dst_inc;
  return link.back();
}

void Network::RegisterNode(Node* node, HostId host, double speed_factor) {
  TCHECK(node != nullptr);
  TCHECK(OwnsHost(host)) << "node registered on a shard that does not own "
                            "host " << host;
  Bind(node, static_cast<NodeId>(nodes_.size()), this);
  AddNodeEntry(node, host, speed_factor);
}

void Network::RegisterMirror(HostId host) {
  TCHECK(!OwnsHost(host)) << "mirror registered on the owning shard";
  AddNodeEntry(nullptr, host, 1.0);
}

double Network::SampleLatency(NodeId node) {
  const double jitter = nodes_[node].rng.NextDouble(1.0 - cost_.net_jitter,
                                                    1.0 + cost_.net_jitter);
  return cost_.net_latency * jitter;
}

void Network::Send(NodeId src, NodeId dst, PayloadPtr payload, bool reliable) {
  TCHECK_LT(src, nodes_.size());
  TCHECK_LT(dst, nodes_.size());
  NodeState& sender = nodes_[src];
  TCHECK(sender.node != nullptr) << "Send from a node this shard does not own";
  if (!sender.alive) return;
  c_sent_->fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->OnSend(src, dst, *payload);

  uint64_t seq = 0;
  if (reliable) {
    const uint32_t dst_inc = nodes_[dst].incarnation;
    Channel& c = ChannelFor(src, dst, sender.incarnation, dst_inc);
    SendChannel& ch = c.send;
    ApplyDueAcks(ch);
    seq = ch.next_seq++;
    PendingSend pending;
    pending.dst = dst;
    pending.dst_inc = dst_inc;
    pending.payload = payload;
    pending.timeout = cost_.ack_timeout;
    pending.deadline = loop_->now() + cost_.ack_timeout;
    const double deadline = pending.deadline;
    ch.window.push_back(std::move(pending));
    ++ch.live;
    EnsureChannelTimer(src, dst, c, deadline);
  }
  TransmitToHost(src, dst, sender.incarnation, seq, std::move(payload),
                 reliable, /*retransmit=*/false);
}

void Network::TransmitToHost(NodeId src, NodeId dst, uint32_t src_inc,
                             uint64_t seq, PayloadPtr payload, bool reliable,
                             bool retransmit) {
  if (IsLinkDown(src, dst)) {
    // The copy dies at the sending host: no NIC time, no latency sample.
    // Reliable channels retry from their retransmit timer and succeed
    // once the link is restored; unreliable copies are simply lost.
    c_dropped_link_->fetch_add(1, std::memory_order_relaxed);
    return;
  }
  NodeState& sender = nodes_[src];
  NodeState& receiver = nodes_[dst];
  if (retransmit) c_retransmitted_->fetch_add(1, std::memory_order_relaxed);

  const uint32_t dst_inc = receiver.incarnation;
  double arrival = loop_->now();
  if (sender.host == receiver.host) {
    arrival += cost_.local_latency;
  } else {
    // Serialize through the sending host's NIC, cross the wire, then
    // serialize through the receiving host's NIC. NIC contention is what
    // saturates aggregate throughput when many workers share few hosts.
    HostState& egress = hosts_[sender.host];
    double start = std::max(arrival, egress.egress_busy);
    egress.egress_busy = start + cost_.nic_wire_time;
    arrival = egress.egress_busy + SampleLatency(src);
    if (!OwnsHost(receiver.host)) {
      // Another shard owns the receiving host: the copy leaves this
      // shard's horizon here. `arrival >= now + nic_wire_time + minimum
      // latency`, strictly beyond the conservative window's lookahead, so
      // the barrier merge injects it into a future the destination shard
      // has not simulated yet (docs/PARSIM.md).
      CrossShardPacket p;
      p.kind = CrossShardPacket::Kind::kWireArrival;
      p.time = arrival;
      p.src = src;
      p.dst = dst;
      p.src_inc = src_inc;
      p.dst_inc = dst_inc;
      p.src_shard = shard_;
      p.emit_seq = next_emit_seq_++;
      p.seq = seq;
      p.payload = std::move(payload);
      p.reliable = reliable;
      outbox_.push_back(std::move(p));
      return;
    }
  }

  loop_->ScheduleAt(arrival, [this, src, dst, src_inc, dst_inc, seq,
                              payload = std::move(payload), reliable,
                              cross_host = sender.host != receiver.host]() {
    if (cross_host) {
      HostState& ingress = hosts_[nodes_[dst].host];
      const double start = std::max(loop_->now(), ingress.ingress_busy);
      ingress.ingress_busy = start + cost_.nic_wire_time;
      loop_->ScheduleAt(
          ingress.ingress_busy,
          [this, src, dst, src_inc, dst_inc, seq, payload, reliable]() {
            ArriveAtNode(src, dst, src_inc, dst_inc, seq, payload, reliable);
          });
    } else {
      ArriveAtNode(src, dst, src_inc, dst_inc, seq, payload, reliable);
    }
  });
}

std::vector<CrossShardPacket> Network::TakeOutbox() {
  std::vector<CrossShardPacket> out;
  out.swap(outbox_);
  return out;
}

void Network::InjectCrossShard(CrossShardPacket p) {
  TCHECK_LT(p.dst, nodes_.size());
  TCHECK(OwnsNode(p.kind == CrossShardPacket::Kind::kWireArrival ? p.dst
                                                                 : p.src));
  // The conservative window guarantees injected events land strictly in
  // this shard's future; equality would mean the lookahead bound broke.
  TCHECK_GT(p.time, loop_->now());
  switch (p.kind) {
    case CrossShardPacket::Kind::kWireArrival:
      // Mirrors the cross_host branch of the transmit lambda exactly:
      // charge the receiving NIC at the wire-arrival instant, then hand
      // the copy to the node. Identical arithmetic, identical event
      // shapes, hence identical traces.
      loop_->ScheduleAt(p.time, [this, src = p.src, dst = p.dst,
                                 src_inc = p.src_inc, dst_inc = p.dst_inc,
                                 seq = p.seq, payload = std::move(p.payload),
                                 reliable = p.reliable]() {
        HostState& ingress = hosts_[nodes_[dst].host];
        const double start = std::max(loop_->now(), ingress.ingress_busy);
        ingress.ingress_busy = start + cost_.nic_wire_time;
        loop_->ScheduleAt(
            ingress.ingress_busy,
            [this, src, dst, src_inc, dst_inc, seq, payload, reliable]() {
              ArriveAtNode(src, dst, src_inc, dst_inc, seq, payload, reliable);
            });
      });
      break;
    case CrossShardPacket::Kind::kAckApply: {
      // The ack joins the sender's records; it takes effect at `p.time`
      // the next time the sender reads its window. Its predecessor on
      // this channel landed before the receiver sent this one, so it is
      // due and applying it keeps at most one record queued.
      Channel* c = FindChannel(p.src, p.dst, p.src_inc, p.dst_inc);
      if (c == nullptr) break;
      SendChannel* ch = AckTarget(p.src, *c);
      if (ch == nullptr) break;
      ApplyDueAcks(*ch);
      TCHECK_LT(ch->num_acks, 2u);
      AckRecord& record = ch->acks[ch->num_acks++];
      record.apply = p.time;
      record.cumulative = p.cumulative;
      record.sacks = std::move(p.sacks);
      break;
    }
  }
}

void Network::ArriveAtNode(NodeId src, NodeId dst, uint32_t src_inc,
                           uint32_t dst_inc, uint64_t seq, PayloadPtr payload,
                           bool reliable) {
  NodeState& receiver = nodes_[dst];
  TCHECK(receiver.node != nullptr) << "arrival at a mirror entry";
  if (!receiver.alive) return;  // Dropped; the sender will retransmit.
  if (receiver.incarnation != dst_inc) {
    // The receiver restarted since this copy was transmitted; its channel
    // state (sequence space) was reset, so the stale copy must not be
    // interpreted under the new numbering. Retransmissions pick up the new
    // incarnation.
    return;
  }

  if (!reliable) {
    EnqueueAtNode(src, dst, std::move(payload));
    return;
  }

  Channel& c = ChannelFor(src, dst, src_inc, dst_inc);
  RecvChannel& rc = c.recv;
  // Tie rule: a follow-up whose capture time is this instant was captured
  // before this arrival.
  if (rc.followup_pending && rc.ack_pending_until <= loop_->now()) {
    PromoteFollowup(src, dst, c);
  }

  // TCP-like per-channel semantics: drop duplicates, hold out-of-order
  // arrivals, deliver in sequence order. Delivery happens before the ack
  // below is captured, so the ack always covers this arrival.
  if (seq <= rc.contiguous || rc.held.count(seq) > 0) {
    c_deduped_->fetch_add(1, std::memory_order_relaxed);
  } else if (seq == rc.contiguous + 1) {
    // In order: delivered without a map node, then whatever it unblocks.
    ++rc.contiguous;
    EnqueueAtNode(src, dst, std::move(payload));
    while (!rc.held.empty() && rc.held.begin()->first == rc.contiguous + 1) {
      HeldMessage next = std::move(rc.held.begin()->second);
      rc.held.erase(rc.held.begin());
      ++rc.contiguous;
      EnqueueAtNode(next.src, dst, std::move(next.payload));
    }
  } else {
    rc.held.emplace(seq, HeldMessage{src, std::move(payload)});
  }

  // Transport-level acknowledgement back to the sender (unreliable and
  // cheap; a lost ack only causes a duplicate, which dedup absorbs).
  // Coalesced: one in-flight ack per channel, carrying the receive state
  // (cumulative + held sequences) captured *now*; arrivals while it is in
  // flight fold into one follow-up instead of sending their own acks. The
  // jitter sample is drawn per arrival (from the receiver's stream) so the
  // RNG stream — and with it every downstream virtual-clock timestamp — is
  // identical whether or not an arrival's ack was folded into another.
  const double ack_lat = SampleLatency(dst);
  if (IsLinkDown(dst, src)) {
    // Asymmetric-cut case: data still flows src -> dst, but the ack's
    // reverse path is down, so the ack is lost at the receiving host and
    // the sender keeps retransmitting into dedup (a gray failure). The
    // jitter sample above is still drawn to keep the RNG stream stable.
    // A pending follow-up still captures at its own time, so it covers
    // this arrival too: re-capture it, keeping its latency sample.
    c_acks_dropped_link_->fetch_add(1, std::memory_order_relaxed);
    if (rc.followup_pending && OwnsNode(src)) {
      WriteAckRecord(src, c, /*append=*/false, rc.followup_apply);
    }
    return;
  }
  const double now = loop_->now();
  if (now >= rc.ack_pending_until) {
    c_transport_acks_->fetch_add(1, std::memory_order_relaxed);
    rc.ack_pending_until = now + ack_lat;
    if (OwnsNode(src)) {
      WriteAckRecord(src, c, /*append=*/true, rc.ack_pending_until);
    } else {
      EmitAck(src, dst, c, rc.ack_pending_until);
    }
    return;
  }
  // Folded into the follow-up, which captures when the in-flight ack
  // lands. The newest arrival's latency sample is the one it travels with.
  const bool first_fold = !rc.followup_pending;
  rc.followup_pending = true;
  rc.followup_apply = rc.ack_pending_until + ack_lat;
  if (first_fold) c_transport_acks_->fetch_add(1, std::memory_order_relaxed);
  if (OwnsNode(src)) {
    WriteAckRecord(src, c, first_fold, rc.followup_apply);
  } else if (first_fold) {
    // A record cannot be rewritten across a window barrier, so a sender
    // on another shard gets the follow-up from a receiver-side event.
    loop_->ScheduleAt(rc.ack_pending_until,
                      [this, src, dst, src_inc, dst_inc]() {
                        AckFollowup(src, dst, src_inc, dst_inc);
                      });
  }
}

void Network::WriteAckRecord(NodeId src, Channel& c, bool append,
                             double apply) {
  SendChannel* ch = AckTarget(src, c);
  if (ch == nullptr) return;
  if (append) {
    // Every older record is due by now except, for a new follow-up, the
    // in-flight one it follows; applying the due ones keeps at most two.
    ApplyDueAcks(*ch);
    TCHECK_LT(ch->num_acks, 2u);
    ++ch->num_acks;
  }
  TCHECK_GT(ch->num_acks, 0u);
  AckRecord& record = ch->acks[ch->num_acks - 1];
  record.apply = apply;
  CaptureAck(c.recv, record);
}

Network::SendChannel* Network::AckTarget(NodeId src, Channel& c) {
  // An ack for a dead or restarted sender is void: its window is gone.
  const NodeState& sender = nodes_[src];
  if (!sender.alive || sender.incarnation != c.src_inc) return nullptr;
  return &c.send;
}

void Network::CaptureAck(const RecvChannel& rc, AckRecord& record) {
  record.cumulative = rc.contiguous;
  record.sacks.clear();
  for (const auto& [held_seq, held] : rc.held) {
    (void)held;
    record.sacks.push_back(held_seq);
  }
}

void Network::PromoteFollowup(NodeId src, NodeId dst, Channel& c) {
  // The in-flight ack has landed: the follow-up, captured at that
  // instant, is in flight now. A same-shard sender already holds it as a
  // record; a sender on another shard is sent it now. The receive state
  // has not changed since the capture instant (arrivals promote first).
  RecvChannel& rc = c.recv;
  rc.followup_pending = false;
  rc.ack_pending_until = rc.followup_apply;
  if (!OwnsNode(src)) EmitAck(src, dst, c, rc.ack_pending_until);
}

void Network::EmitAck(NodeId src, NodeId dst, const Channel& c,
                      double apply_time) {
  // The sender lives on another shard: the captured ack travels as plain
  // data through the barrier merge. `ack_lat >= minimum network latency >
  // window lookahead`, so it lands strictly beyond the current window.
  CrossShardPacket p;
  p.kind = CrossShardPacket::Kind::kAckApply;
  p.time = apply_time;
  p.src = src;
  p.dst = dst;
  p.src_inc = c.src_inc;
  p.dst_inc = c.dst_inc;
  p.src_shard = shard_;
  p.emit_seq = next_emit_seq_++;
  AckRecord ack;
  CaptureAck(c.recv, ack);
  p.cumulative = ack.cumulative;
  p.sacks = std::move(ack.sacks);
  outbox_.push_back(std::move(p));
}

void Network::AckFollowup(NodeId src, NodeId dst, uint32_t src_inc,
                          uint32_t dst_inc) {
  // The receiver restarted while the ack was in flight (its channel state
  // is gone, and the pending follow-up dies with it), or an arrival at
  // this instant already promoted the follow-up.
  Channel* c = FindChannel(src, dst, src_inc, dst_inc);
  if (c == nullptr) return;
  if (!c->recv.followup_pending || c->recv.ack_pending_until > loop_->now()) {
    return;
  }
  PromoteFollowup(src, dst, *c);
}

void Network::EnqueueAtNode(NodeId src, NodeId dst, PayloadPtr payload) {
  c_delivered_->fetch_add(1, std::memory_order_relaxed);
  if (observer_ != nullptr) observer_->OnDeliver(src, dst, *payload);
  nodes_[dst].inbox.push_back(InboxEntry{src, std::move(payload), nullptr});
  SchedulePump(dst);
}

void Network::TrimWindow(SendChannel& ch) {
  while (!ch.window.empty() && ch.window.front().done) {
    ch.window.pop_front();
    ++ch.base_seq;
  }
}

void Network::ApplyDueAcks(SendChannel& ch) {
  // Tie rule: an ack due at the same instant as a send or a retransmit
  // scan takes effect first.
  const double now = loop_->now();
  uint32_t applied = 0;
  while (applied < ch.num_acks && ch.acks[applied].apply <= now) {
    ApplyAck(ch, ch.acks[applied]);
    ++applied;
  }
  if (applied == 0) return;
  if (applied < ch.num_acks) std::swap(ch.acks[0], ch.acks[1]);
  ch.num_acks -= applied;
}

void Network::ApplyAck(SendChannel& ch, const AckRecord& ack) {
  // Cumulative prefix: everything at or below `cumulative` is received.
  while (!ch.window.empty() && ch.base_seq <= ack.cumulative) {
    if (!ch.window.front().done) --ch.live;
    ch.window.pop_front();
    ++ch.base_seq;
  }
  // Selective part: sequences the receiver held out-of-order when the ack
  // was captured (already sorted — rc.held iterates in sequence order).
  for (const uint64_t held_seq : ack.sacks) {
    if (held_seq < ch.base_seq) continue;
    const size_t idx = static_cast<size_t>(held_seq - ch.base_seq);
    if (idx >= ch.window.size()) continue;
    PendingSend& p = ch.window[idx];
    if (!p.done) {
      p.done = true;
      p.payload.reset();
      --ch.live;
    }
  }
  TrimWindow(ch);
  if (ch.live == 0) {
    ch.window.clear();
    ch.base_seq = ch.next_seq;
  }
  // The armed timer stays, even on an empty window: acks only remove
  // deadlines, so it still lower-bounds the earliest live one.
}

void Network::EnsureChannelTimer(NodeId src, NodeId dst, Channel& c,
                                 double deadline) {
  SendChannel& ch = c.send;
  if (ch.timer != 0 && ch.timer_deadline <= deadline) return;
  if (ch.timer != 0) loop_->Cancel(ch.timer);
  ch.timer_deadline = deadline;
  ch.timer = loop_->ScheduleAt(
      deadline, [this, src, dst, src_inc = c.src_inc, dst_inc = c.dst_inc]() {
        ChannelTimerFired(src, dst, src_inc, dst_inc);
      });
}

void Network::ChannelTimerFired(NodeId src, NodeId dst, uint32_t src_inc,
                                uint32_t dst_inc) {
  Channel* c = FindChannel(src, dst, src_inc, dst_inc);
  if (c == nullptr) return;
  SendChannel& ch = c->send;
  ch.timer = 0;
  // KillNode cancels a dead incarnation's timers; nothing to do if one
  // slipped through.
  if (AckTarget(src, *c) == nullptr) return;
  ApplyDueAcks(ch);

  const double now = loop_->now();
  double next_deadline = 0.0;
  bool has_next = false;
  // Receiver-restart migrations are deferred: Send() may grow the link's
  // channel list, so nothing may touch `ch` after the first migration.
  std::vector<std::pair<NodeId, PayloadPtr>> migrate;

  for (size_t i = 0; i < ch.window.size(); ++i) {
    PendingSend& p = ch.window[i];
    if (p.done) continue;
    if (p.deadline > now) {
      if (!has_next || p.deadline < next_deadline) next_deadline = p.deadline;
      has_next = true;
      continue;
    }
    const uint64_t seq = ch.base_seq + i;
    if (nodes_[p.dst].incarnation != p.dst_inc) {
      // The receiver restarted: this channel is dead. Migrate the message
      // onto a fresh channel toward the new incarnation (at-least-once
      // across receiver restarts, Section 5.3).
      c_retransmitted_->fetch_add(1, std::memory_order_relaxed);
      migrate.emplace_back(p.dst, std::move(p.payload));
      p.done = true;
      --ch.live;
      continue;
    }
    if (++p.retries > 64) {
      TLOG_WARN << "dropping message after 64 retransmissions (dst=" << p.dst
                << ")";
      p.done = true;
      p.payload.reset();
      --ch.live;
      continue;
    }
    p.timeout = std::min(p.timeout * 2.0, cost_.ack_timeout_max);
    p.deadline = now + p.timeout;
    if (!has_next || p.deadline < next_deadline) next_deadline = p.deadline;
    has_next = true;
    TransmitToHost(src, p.dst, src_inc, seq, p.payload, /*reliable=*/true,
                   /*retransmit=*/true);
  }
  TrimWindow(ch);
  if (ch.live == 0) {
    ch.window.clear();
    ch.base_seq = ch.next_seq;
  } else if (has_next) {
    EnsureChannelTimer(src, dst, *c, next_deadline);
  }

  for (auto& [migrate_dst, payload] : migrate) {
    Send(src, migrate_dst, std::move(payload), /*reliable=*/true);
  }
}

void Network::ScheduleOnNode(NodeId id, double delay,
                             std::function<void()> fn) {
  TCHECK_LT(id, nodes_.size());
  TCHECK(OwnsNode(id)) << "timer on a node this shard does not own";
  const uint32_t inc = nodes_[id].incarnation;
  loop_->Schedule(delay, [this, id, inc, fn = std::move(fn)]() {
    NodeState& ns = nodes_[id];
    if (!ns.alive || ns.incarnation != inc) return;
    ns.inbox.push_back(InboxEntry{id, nullptr, fn});
    SchedulePump(id);
  });
}

void Network::SchedulePump(NodeId id) {
  NodeState& ns = nodes_[id];
  if (ns.pump_scheduled || ns.inbox.empty()) return;
  ns.pump_scheduled = true;
  const uint32_t inc = ns.incarnation;
  const double start = std::max(loop_->now(), ns.busy_until);
  loop_->ScheduleAt(start, [this, id, inc]() { Pump(id, inc); });
}

void Network::Pump(NodeId id, uint32_t incarnation) {
  NodeState& ns = nodes_[id];
  ns.pump_scheduled = false;
  if (!ns.alive || ns.incarnation != incarnation || ns.inbox.empty()) return;

  InboxEntry entry = std::move(ns.inbox.front());
  ns.inbox.pop_front();

  handler_extra_cost_ = 0.0;
  if (entry.timer_fn) {
    entry.timer_fn();
  } else {
    ns.node->OnMessage(entry.src, *entry.payload);
  }
  // delay_factor is 1.0 outside straggler injection, so the expression —
  // and with it every same-seed virtual timestamp — is unchanged then.
  const double service =
      (cost_.per_message_cpu / ns.speed + handler_extra_cost_ / ns.speed) *
      ns.delay_factor;
  handler_extra_cost_ = 0.0;
  ns.busy_until = loop_->now() + service;

  if (!ns.inbox.empty() && ns.alive && ns.incarnation == incarnation) {
    SchedulePump(id);
  }
}

void Network::KillNode(NodeId id) {
  TCHECK_LT(id, nodes_.size());
  NodeState& ns = nodes_[id];
  if (!ns.alive) return;
  ns.alive = false;
  if (ns.node == nullptr) return;  // Mirror: the owning shard does the rest.
  ns.inbox.clear();
  // The crashed process loses its send-side channel state: cancel its
  // (single, per-channel) retransmission timers and drop its windows and
  // ack records. A channel whose receiving half is also unused here goes.
  for (NodeId dst = 0; dst < nodes_.size(); ++dst) {
    std::vector<Channel>& link = Link(id, dst);
    for (Channel& c : link) {
      if (c.send.timer != 0) loop_->Cancel(c.send.timer);
      c.send = SendChannel();
    }
    std::erase_if(link, [&](const Channel& c) {
      return !OwnsNode(dst) || nodes_[dst].incarnation != c.dst_inc;
    });
  }
  TLOG_INFO << "node " << id << " killed at t=" << loop_->now();
  if (observer_ != nullptr) observer_->OnNodeKilled(id);
}

void Network::RecoverNode(NodeId id) {
  TCHECK_LT(id, nodes_.size());
  NodeState& ns = nodes_[id];
  if (ns.alive) return;
  ns.alive = true;
  ns.incarnation++;
  if (ns.node == nullptr) return;  // Mirror: the owning shard does the rest.
  ns.busy_until = loop_->now();
  ns.inbox.clear();
  ns.pump_scheduled = false;
  // Receiver-side channel state of old incarnations is garbage now; the
  // incarnation bump means senders open fresh channels (and migrate their
  // unacknowledged messages onto them at the next retransmission). A
  // follow-up ack whose capture time is still ahead dies with it; one
  // already captured stays in flight. A channel whose sending half is
  // also unused here goes.
  const double now = loop_->now();
  for (NodeId src = 0; src < nodes_.size(); ++src) {
    std::vector<Channel>& link = Link(src, id);
    for (Channel& c : link) {
      if (c.recv.followup_pending && c.recv.ack_pending_until > now &&
          OwnsNode(src)) {
        // The follow-up is the sender's newest record (if the sender
        // still holds the channel's window).
        SendChannel* ch = AckTarget(src, c);
        if (ch != nullptr) {
          TCHECK_GT(ch->num_acks, 0u);
          --ch->num_acks;
        }
      }
      c.recv = RecvChannel();
    }
    std::erase_if(link, [&](const Channel& c) {
      return !OwnsNode(src) || !nodes_[src].alive ||
             nodes_[src].incarnation != c.src_inc;
    });
  }
  TLOG_INFO << "node " << id << " recovered at t=" << loop_->now();
  if (observer_ != nullptr) observer_->OnNodeRecovered(id);
  ns.node->OnRestart();
}

bool Network::IsAlive(NodeId id) const {
  TCHECK_LT(id, nodes_.size());
  return nodes_[id].alive;
}

void Network::SetLinkDown(NodeId src, NodeId dst, bool down) {
  TCHECK_LT(src, nodes_.size());
  TCHECK_LT(dst, nodes_.size());
  if (down) {
    if (down_links_.insert(LinkKey(src, dst)).second && shard_ == 0) {
      TLOG_INFO << "link " << src << " -> " << dst << " down at t="
                << loop_->now();
    }
  } else if (down_links_.erase(LinkKey(src, dst)) > 0 && shard_ == 0) {
    TLOG_INFO << "link " << src << " -> " << dst << " restored at t="
              << loop_->now();
  }
}

void Network::SetNodeDelayFactor(NodeId id, double factor) {
  TCHECK_LT(id, nodes_.size());
  TCHECK_GT(factor, 0.0);
  nodes_[id].delay_factor = factor;
  if (nodes_[id].node == nullptr) return;  // Mirror; owner logs.
  TLOG_INFO << "node " << id << " delay factor = " << factor
            << " at t=" << loop_->now();
}

}  // namespace tornado
