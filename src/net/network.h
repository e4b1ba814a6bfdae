#ifndef TORNADO_NET_NETWORK_H_
#define TORNADO_NET_NETWORK_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "net/payload.h"
#include "runtime/substrate.h"
#include "sim/cost_model.h"
#include "sim/event_loop.h"

namespace tornado {

/// Transitional alias: the observer interface moved to the substrate seam
/// (runtime/substrate.h) when the transport became pluggable.
using NetworkObserver = TransportObserver;

/// A cross-shard transport event, produced by a sharded Network instance
/// when the receiving endpoint lives on another shard's event loop
/// (docs/PARSIM.md). The parallel backend collects these at window
/// barriers, merges them across shards by (time, src_shard, emit_seq) —
/// a total order every run reproduces — and injects each into the
/// destination shard's Network.
///
/// Two kinds exist because the transport has exactly two cross-node
/// interactions: a wire arrival at the receiving host's NIC, and a
/// transport ack reaching the sender. Everything else (pumps, timers,
/// retransmissions) is local to the endpoint's own shard.
struct CrossShardPacket {
  enum class Kind { kWireArrival, kAckApply };

  Kind kind = Kind::kWireArrival;
  double time = 0.0;  // virtual arrival / apply time at the destination
  NodeId src = 0;
  NodeId dst = 0;
  uint32_t src_inc = 0;
  uint32_t dst_inc = 0;
  uint32_t src_shard = 0;  // emitting shard; merge-order component
  uint64_t emit_seq = 0;   // per-instance emission counter; merge tiebreak

  // kWireArrival payload.
  uint64_t seq = 0;
  PayloadPtr payload;
  bool reliable = false;

  // kAckApply payload: receive state captured when the ack was sent.
  uint64_t cumulative = 0;
  std::vector<uint64_t> sacks;
};

/// The simulated cluster fabric: node registry, host NICs, reliable
/// channels (per-channel sequence numbers, transport acks, retransmission
/// with exponential backoff, receiver-side dedup) and failure injection.
/// This is the Transport implementation behind runtime::SimSubstrate.
///
/// This is the substitute for Storm's transportation layer (Section 5.1):
/// "it packages the messages from higher layers ... and ensures that
/// messages are delivered without any error", plus Section 5.3's
/// "when a sent message is not acknowledged in certain time, it will be
/// resent to ensure at-least-once message passing".
///
/// Sharding (docs/PARSIM.md): one Network instance serves one shard of
/// the cluster. A node on host `h` belongs to shard `h % num_shards`, so
/// same-host traffic (and the host's NIC state) never crosses shards.
/// Each instance holds an index-aligned `nodes_` vector covering the
/// whole cluster: owned entries carry the live Node*, the rest are
/// *mirrors* (node == nullptr) carrying only the host, the liveness flag
/// and the incarnation — refreshed at window barriers, which is exact
/// because failures and recoveries only ever execute at barriers. The
/// serial backend is the num_shards == 1 instance that owns everything,
/// so both backends run this exact code path.
///
/// Determinism across shard counts comes from per-node RNG streams: every
/// instance derives node i's latency stream from (seed, i) alone, data /
/// retransmit jitter is drawn from the *sender's* stream (sender-side
/// code) and ack jitter from the *receiver's* stream (receiver-side
/// code), so the draw order inside each stream is the per-node event
/// order, which the windowed merge reproduces exactly.
class Network final : public Transport {
 public:
  /// `shared_metrics` may point at a registry shared by all shards of a
  /// parallel run (counters are atomics, so cross-shard bumps are safe);
  /// when null the instance owns a private registry (the serial case).
  Network(EventLoop* loop, CostModel cost, uint64_t seed = 1,
          uint32_t shard = 0, uint32_t num_shards = 1,
          MetricRegistry* shared_metrics = nullptr);

  /// Registers a node on a host. Node ids are assigned densely by the
  /// caller and must be unique. The node must outlive the network.
  void RegisterNode(Node* node, HostId host, double speed_factor = 1.0) override;

  /// Registers a mirror entry for a node owned by another shard: takes
  /// the next dense node id but carries no Node*. Keeps `nodes_` index-
  /// aligned across instances; the parallel backend interleaves
  /// RegisterNode / RegisterMirror so every instance agrees on ids.
  void RegisterMirror(HostId host);

  /// Sends `payload` from `src` to `dst`. No-op if the sender is dead.
  /// `src` must be owned by this instance.
  void Send(NodeId src, NodeId dst, PayloadPtr payload, bool reliable) override;

  /// Schedules `fn` on `node`'s service queue after `delay` seconds.
  void ScheduleOnNode(NodeId node, double delay,
                      std::function<void()> fn) override;

  /// Charges extra cost to the handler currently running (if any).
  void AddHandlerCost(double seconds) override {
    handler_extra_cost_ += seconds;
  }

  /// Failure injection. Killing a node drops its inbox, its in-memory
  /// state and all unacknowledged outgoing messages; peers keep
  /// retransmitting into the void until recovery or retry exhaustion.
  /// On a mirror entry only the liveness flag / incarnation flips — the
  /// owning instance does the real work (the parallel backend broadcasts
  /// these calls to every instance, always at a window barrier).
  void KillNode(NodeId id) override;
  void RecoverNode(NodeId id) override;
  bool IsAlive(NodeId id) const override;

  /// Link-level fault injection (one direction): while down, copies from
  /// `src` to `dst` are dropped at the sending host before any NIC or
  /// latency modeling, and transport acks whose reverse path is down are
  /// lost the same way. Reliable senders keep retransmitting (backoff
  /// capped) and the channel heals when the link is restored. The down
  /// set is replicated to every shard (data checked sender-side, acks
  /// receiver-side).
  void SetLinkDown(NodeId src, NodeId dst, bool down) override;
  bool IsLinkDown(NodeId src, NodeId dst) const {
    return !down_links_.empty() && down_links_.count(LinkKey(src, dst)) > 0;
  }

  /// Straggler injection: multiplies `id`'s message service time by
  /// `factor` from now on (1.0 restores nominal; registration
  /// speed_factor still applies multiplicatively).
  void SetNodeDelayFactor(NodeId id, double factor) override;

  double now() const override { return loop_->now(); }
  EventLoop* loop() { return loop_; }
  const CostModel& cost() const { return cost_; }
  MetricRegistry& metrics() override { return *metrics_; }
  size_t node_count() const override { return nodes_.size(); }

  /// Subscribes `observer` to transport events (nullptr detaches). The
  /// observer must outlive the network; at most one is supported — the
  /// trace layer fans out internally if it ever needs to.
  void set_observer(TransportObserver* observer) override {
    observer_ = observer;
  }

  /// Messages accepted by Send but not yet handed to a service queue
  /// (in-flight or lost-awaiting-retransmission); the time-series sampler
  /// graphs this as transport backlog.
  int64_t InFlightCount() const override {
    return metrics_->Get(metric::kMessagesSent) -
           metrics_->Get(metric::kMessagesDelivered);
  }

  /// Service-queue depth of `id` (undelivered inbox entries).
  size_t InboxDepth(NodeId id) const override {
    return id < nodes_.size() ? nodes_[id].inbox.size() : 0;
  }

  /// Drains the cross-shard packets emitted since the last call. Serial
  /// instances never produce any. Called by the parallel backend at
  /// window barriers, from the driver thread, with this shard quiesced.
  std::vector<CrossShardPacket> TakeOutbox();
  bool outbox_empty() const { return outbox_.empty(); }

  /// Injects a packet routed to a node this instance owns: schedules the
  /// NIC-ingress charge of a wire arrival at `p.time` on this shard's
  /// loop, or appends a captured ack to the sender's channel as a record
  /// that takes effect at `p.time` (no event). Barrier-only, like
  /// TakeOutbox.
  void InjectCrossShard(CrossShardPacket p);

 private:
  struct InboxEntry {
    NodeId src = 0;
    PayloadPtr payload;                // null for timer entries
    std::function<void()> timer_fn;    // set for timer entries
  };

  struct NodeState {
    Node* node = nullptr;  // null = mirror owned by another shard
    HostId host = 0;
    double speed = 1.0;
    double delay_factor = 1.0;  // straggler multiplier, schedule-driven
    bool alive = true;
    uint32_t incarnation = 0;
    Rng rng{0};  // latency jitter stream; derived from (seed, node id)
    std::deque<InboxEntry> inbox;
    double busy_until = 0.0;
    bool pump_scheduled = false;
  };

  struct HostState {
    double egress_busy = 0.0;
    double ingress_busy = 0.0;
  };

  // Sender-side reliable channel bookkeeping. Sequence numbers are dense
  // (next_seq++ per send), so the unacked set is a contiguous window
  // [base_seq, base_seq + window.size()) held in a deque — no per-message
  // map nodes — with `done` marking acked/dropped holes until the front
  // can advance. One deadline-ordered retransmit timer serves the whole
  // channel: it is armed at (a lower bound of) the earliest live deadline,
  // and when it fires it applies the due acks, retransmits what is still
  // overdue and re-arms only while sends are outstanding. Acks can only
  // push the earliest deadline later, so the timer is never cancelled on
  // ack, not even when the window drains: an idle channel keeps its armed
  // timer and pays one spurious wakeup for it.
  struct PendingSend {
    NodeId dst = 0;
    uint32_t dst_inc = 0;  // receiver incarnation the channel targets
    PayloadPtr payload;
    double timeout = 0.0;   // current backoff
    double deadline = 0.0;  // absolute next-retransmit time
    int retries = 0;
    bool done = false;  // acked (or dropped); awaiting front advance
  };
  // A transport ack on its way to the sender: the receive state (cumulative
  // prefix + held out-of-order seqs) the receiver captured, taking effect
  // at `apply`. Acks are records, not events: the sender applies every
  // record with `apply <= now` before it reads its window (Send and the
  // retransmit scan), which is all an ack can influence.
  struct AckRecord {
    double apply = 0.0;
    uint64_t cumulative = 0;
    std::vector<uint64_t> sacks;
  };
  struct SendChannel {
    uint64_t next_seq = 1;
    uint64_t base_seq = 1;  // seq of window.front()
    std::deque<PendingSend> window;
    size_t live = 0;  // window entries with done == false
    EventId timer = 0;
    double timer_deadline = 0.0;
    // Unapplied acks in apply order: at most the in-flight one and one
    // follow-up whose capture time has not passed yet.
    AckRecord acks[2];
    uint32_t num_acks = 0;
  };

  // Receiver-side ordered-delivery bookkeeping: reliable channels behave
  // like TCP streams — duplicates are dropped and out-of-order arrivals are
  // held until the sequence gap fills. Transport acks are coalesced: one
  // ack is in flight per channel, carrying the receive state captured when
  // it was sent. Arrivals while it is in flight fold into one follow-up,
  // captured when the in-flight ack lands (`ack_pending_until`) and sent
  // then. The receive state changes only on arrivals, so each folded
  // arrival simply re-captures the follow-up; an arrival at or after the
  // capture time first promotes the follow-up to in-flight.
  struct HeldMessage {
    NodeId src = 0;
    PayloadPtr payload;
  };
  struct RecvChannel {
    uint64_t contiguous = 0;               // all seq <= this delivered
    std::map<uint64_t, HeldMessage> held;  // arrived out of order
    double ack_pending_until = -1.0;  // apply time of the in-flight ack
    bool followup_pending = false;    // a follow-up captures at that time
    double followup_apply = 0.0;      // and takes effect at this one
  };

  // A channel is one "TCP connection": it exists between specific
  // incarnations of the two endpoints. Either endpoint restarting starts a
  // fresh channel with a fresh sequence space. Each side is used only by
  // the shard owning that endpoint, so on a serial instance a receiver
  // hands its ack to the sender's half of the same entry.
  struct Channel {
    uint32_t src_inc = 0;
    uint32_t dst_inc = 0;
    SendChannel send;
    RecvChannel recv;
  };

  static uint64_t LinkKey(NodeId src, NodeId dst) {
    return (static_cast<uint64_t>(src) << 32) | dst;
  }

  bool OwnsHost(HostId host) const {
    return num_shards_ <= 1 || host % num_shards_ == shard_;
  }
  bool OwnsNode(NodeId id) const { return nodes_[id].node != nullptr; }

  void AddNodeEntry(Node* node, HostId host, double speed_factor);
  std::vector<Channel>& Link(NodeId src, NodeId dst) {
    if (link_stride_ != nodes_.size()) ResizeLinks();
    return links_[static_cast<size_t>(src) * link_stride_ + dst];
  }
  void ResizeLinks();
  Channel* FindChannel(NodeId src, NodeId dst, uint32_t src_inc,
                       uint32_t dst_inc);
  Channel& ChannelFor(NodeId src, NodeId dst, uint32_t src_inc,
                      uint32_t dst_inc);
  void TransmitToHost(NodeId src, NodeId dst, uint32_t src_inc, uint64_t seq,
                      PayloadPtr payload, bool reliable, bool retransmit);
  void ArriveAtNode(NodeId src, NodeId dst, uint32_t src_inc,
                    uint32_t dst_inc, uint64_t seq, PayloadPtr payload,
                    bool reliable);
  void EnqueueAtNode(NodeId src, NodeId dst, PayloadPtr payload);
  SendChannel* AckTarget(NodeId src, Channel& c);
  void WriteAckRecord(NodeId src, Channel& c, bool append, double apply);
  void PromoteFollowup(NodeId src, NodeId dst, Channel& c);
  void EmitAck(NodeId src, NodeId dst, const Channel& c, double apply_time);
  void AckFollowup(NodeId src, NodeId dst, uint32_t src_inc,
                   uint32_t dst_inc);
  static void CaptureAck(const RecvChannel& rc, AckRecord& record);
  void ApplyDueAcks(SendChannel& ch);
  static void ApplyAck(SendChannel& ch, const AckRecord& ack);
  void EnsureChannelTimer(NodeId src, NodeId dst, Channel& c,
                          double deadline);
  void ChannelTimerFired(NodeId src, NodeId dst, uint32_t src_inc,
                         uint32_t dst_inc);
  static void TrimWindow(SendChannel& ch);
  void SchedulePump(NodeId id);
  void Pump(NodeId id, uint32_t incarnation);
  double SampleLatency(NodeId node);

  EventLoop* loop_;
  CostModel cost_;
  uint64_t seed_;
  uint32_t shard_;
  uint32_t num_shards_;
  std::unique_ptr<MetricRegistry> owned_metrics_;  // serial default
  MetricRegistry* metrics_;
  // Pre-resolved counter handles: one atomic add per event, no registry
  // lock on the hot path (the registry may be shared across shard threads).
  metric::Counter* c_sent_;
  metric::Counter* c_delivered_;
  metric::Counter* c_retransmitted_;
  metric::Counter* c_deduped_;
  metric::Counter* c_transport_acks_;
  metric::Counter* c_dropped_link_;
  metric::Counter* c_acks_dropped_link_;
  std::vector<NodeState> nodes_;
  std::vector<HostState> hosts_;
  // Channels per (src, dst) pair, indexed src * link_stride_ + dst; each
  // entry holds one channel per incarnation pair seen on that link. The
  // table follows the node count lazily (ResizeLinks).
  std::vector<std::vector<Channel>> links_;
  size_t link_stride_ = 0;
  std::set<uint64_t> down_links_;  // LinkKey(src, dst) of one-way cuts
  std::vector<CrossShardPacket> outbox_;
  uint64_t next_emit_seq_ = 0;
  double handler_extra_cost_ = 0.0;
  NetworkObserver* observer_ = nullptr;
};

}  // namespace tornado

#endif  // TORNADO_NET_NETWORK_H_
