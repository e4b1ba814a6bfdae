#include "runtime/thread_substrate.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace tornado {

namespace {

// Slot index lives in the low 32 bits offset by one (so TimerId 0 stays
// the null sentinel), generation in the high 32 — same packing as the
// event loop's EventId.
constexpr TimerId PackTimerId(uint32_t slot, uint32_t gen) {
  return (static_cast<uint64_t>(gen) << 32) |
         (static_cast<uint64_t>(slot) + 1);
}

void SleepSeconds(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace

// --- ThreadScheduler ---

ThreadScheduler::ThreadScheduler(const Clock* clock) : clock_(clock) {
  thread_ = std::thread([this]() { Run(); });
}

ThreadScheduler::~ThreadScheduler() { Stop(); }

TimerId ThreadScheduler::ArmLocked(double when, std::function<void()> fn) {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  slots_[slot].armed = true;
  const TimerId id = PackTimerId(slot, slots_[slot].gen);
  queue_.emplace(when, Pending{id, std::move(fn)});
  return id;
}

bool ThreadScheduler::DisarmLocked(TimerId id) {
  if (id == 0) return false;
  const uint32_t slot = static_cast<uint32_t>(id & 0xFFFFFFFFULL) - 1;
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  Slot& s = slots_[slot];
  if (!s.armed || s.gen != gen) return false;  // stale handle
  s.armed = false;
  ++s.gen;
  free_slots_.push_back(slot);
  return true;
}

TimerId ThreadScheduler::ScheduleAfter(double delay, std::function<void()> fn) {
  return ScheduleAt(clock_->now() + std::max(delay, 0.0), std::move(fn));
}

TimerId ThreadScheduler::ScheduleAt(double when, std::function<void()> fn) {
  const MutexLock lock(&mu_);
  const TimerId id = ArmLocked(when, std::move(fn));
  cv_.NotifyOne();
  return id;
}

void ThreadScheduler::Cancel(TimerId id) {
  const MutexLock lock(&mu_);
  DisarmLocked(id);
  // The queue entry is dropped lazily when its deadline comes up.
}

void ThreadScheduler::Stop() {
  {
    const MutexLock lock(&mu_);
    if (stop_) return;
    stop_ = true;
    cv_.NotifyOne();
  }
  if (thread_.joinable()) thread_.join();
}

void ThreadScheduler::Run() {
  // Manual Lock/Unlock rather than a scoped guard: the loop drops mu_
  // around each callback, and the thread-safety analysis follows the
  // explicit pairing across the loop's branches.
  mu_.Lock();
  while (!stop_) {
    if (queue_.empty()) {
      cv_.Wait(&mu_);
      continue;
    }
    const double due = queue_.begin()->first;
    const double now_s = clock_->now();
    if (due > now_s) {
      cv_.WaitFor(&mu_, due - now_s);
      continue;
    }
    Pending p = std::move(queue_.begin()->second);
    queue_.erase(queue_.begin());
    if (!DisarmLocked(p.id)) continue;  // cancelled while queued
    mu_.Unlock();
    p.fn();
    mu_.Lock();
  }
  mu_.Unlock();
}

// --- ThreadTransport ---

ThreadTransport::ThreadTransport(const Clock* clock, const SubstrateRng* rng)
    : clock_(clock), rng_(rng) {
  // Pre-intern every well-known counter: node threads may bump any of
  // these concurrently. Interning is mutex-guarded now, but resolving
  // handles up front keeps the per-message cost at one atomic add.
  for (const char* name :
       {metric::kUpdatesCommitted, metric::kPreparesSent, metric::kAcksSent,
        metric::kMessagesSent, metric::kMessagesDelivered,
        metric::kMessagesRetransmitted, metric::kMessagesDeduped,
        metric::kTransportAcks, metric::kVersionsFlushed,
        metric::kReportSessionsVisited, metric::kInputsGathered,
        metric::kUpdatesBlocked, metric::kIterationsTerminated}) {
    metrics_.CounterHandle(name);
  }
  sent_counter_ = &metrics_.CounterHandle(metric::kMessagesSent);
  delivered_counter_ = &metrics_.CounterHandle(metric::kMessagesDelivered);
}

ThreadTransport::~ThreadTransport() { Stop(); }

void ThreadTransport::RegisterNode(Node* node, HostId host,
                                   double /*speed_factor*/) {
  TCHECK(node != nullptr);
  TCHECK(!open_.load()) << "register all nodes before Open()";
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto rec = std::make_unique<NodeRec>(
      rng_->StreamSeed(SubstrateRng::kThreadStream + id));
  rec->node = node;
  rec->host = host;
  Bind(node, id, this);
  NodeRec* nr = rec.get();
  nodes_.push_back(std::move(rec));
  nr->thread = std::thread([this, nr]() { Worker(nr); });
}

void ThreadTransport::Send(NodeId src, NodeId dst, PayloadPtr payload,
                           bool /*reliable*/) {
  // In-process mailboxes are lossless and FIFO per sender, so reliable
  // and unreliable channels coincide.
  TCHECK_LT(dst, nodes_.size());
  sent_counter_->fetch_add(1);
  if (TransportObserver* obs = observer_.load()) {
    obs->OnSend(src, dst, *payload);
  }
  NodeRec& nr = *nodes_[dst];
  {
    const MutexLock lock(&nr.mu);
    nr.queue.push_back(Entry{src, std::move(payload), nullptr});
  }
  nr.cv.NotifyOne();
}

void ThreadTransport::ScheduleOnNode(NodeId node, double delay,
                                     std::function<void()> fn) {
  TCHECK_LT(node, nodes_.size());
  NodeRec& nr = *nodes_[node];
  const double when = clock_->now() + std::max(delay, 0.0);
  {
    const MutexLock lock(&nr.mu);
    nr.timers.emplace(when, Entry{node, nullptr, std::move(fn)});
  }
  nr.cv.NotifyOne();
}

void ThreadTransport::KillNode(NodeId /*id*/) {
  TCHECK(false) << "thread transport does not support failure injection";
}

void ThreadTransport::RecoverNode(NodeId /*id*/) {
  TCHECK(false) << "thread transport does not support failure injection";
}

bool ThreadTransport::IsAlive(NodeId id) const {
  TCHECK_LT(id, nodes_.size());
  return true;
}

void ThreadTransport::SetLinkDown(NodeId /*src*/, NodeId /*dst*/,
                                  bool /*down*/) {
  TCHECK(false) << "thread transport does not support failure injection";
}

void ThreadTransport::SetNodeDelayFactor(NodeId /*id*/, double /*factor*/) {
  TCHECK(false) << "thread transport does not support failure injection";
}

int64_t ThreadTransport::InFlightCount() const {
  return sent_counter_->load() - delivered_counter_->load();
}

size_t ThreadTransport::InboxDepth(NodeId id) const {
  if (id >= nodes_.size()) return 0;
  NodeRec& nr = *nodes_[id];
  const MutexLock lock(&nr.mu);
  return nr.queue.size();
}

void ThreadTransport::Open() {
  open_.store(true);
  for (auto& nr : nodes_) {
    const MutexLock lock(&nr->mu);
    nr->cv.NotifyOne();
  }
}

void ThreadTransport::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& nr : nodes_) {
    {
      const MutexLock lock(&nr->mu);
      nr->stop = true;
    }
    nr->cv.NotifyOne();
  }
  for (auto& nr : nodes_) {
    if (nr->thread.joinable()) nr->thread.join();
  }
}

void ThreadTransport::Worker(NodeRec* nr) {
  // Manual Lock/Unlock for the same reason as ThreadScheduler::Run: the
  // lock is dropped around every handler invocation.
  nr->mu.Lock();
  // Start gate: nothing is consumed until the driver finishes wiring and
  // calls Open(). Taking nr->mu here is also the happens-before edge that
  // publishes all pre-Open driver writes to this thread.
  while (!open_.load() && !nr->stop) nr->cv.Wait(&nr->mu);

  while (!nr->stop) {
    const double now_s = clock_->now();
    while (!nr->timers.empty() && nr->timers.begin()->first <= now_s) {
      nr->queue.push_back(std::move(nr->timers.begin()->second));
      nr->timers.erase(nr->timers.begin());
    }
    if (nr->queue.empty()) {
      if (nr->timers.empty()) {
        nr->cv.Wait(&nr->mu);
      } else {
        nr->cv.WaitFor(&nr->mu, nr->timers.begin()->first - now_s);
      }
      continue;
    }
    Entry entry = std::move(nr->queue.front());
    nr->queue.pop_front();
    nr->mu.Unlock();
    if (entry.timer_fn) {
      entry.timer_fn();
    } else {
      delivered_counter_->fetch_add(1);
      if (TransportObserver* obs = observer_.load()) {
        obs->OnDeliver(entry.src, nr->node->id(), *entry.payload);
      }
      nr->node->OnMessage(entry.src, *entry.payload);
    }
    nr->mu.Lock();
  }
  // Stop-time drain: Send() is lossless, so messages accepted before the
  // stop flag must still reach their handler even when the run ends
  // mid-burst — otherwise InFlightCount never reaches zero and a sender's
  // "accepted" contract is silently broken. One sweep over the entries
  // present at stop: pending timers are dropped (they model future work),
  // and so is anything enqueued *by* a drain handler — the sweep must
  // terminate. Handlers run unlocked, exactly like the main loop.
  std::deque<Entry> drain;
  drain.swap(nr->queue);
  nr->mu.Unlock();
  for (Entry& entry : drain) {
    if (entry.timer_fn) continue;
    delivered_counter_->fetch_add(1);
    if (TransportObserver* obs = observer_.load()) {
      obs->OnDeliver(entry.src, nr->node->id(), *entry.payload);
    }
    nr->node->OnMessage(entry.src, *entry.payload);
  }
}

// --- ThreadSubstrate ---

bool ThreadSubstrate::RunUntil(const std::function<bool()>& pred,
                               double timeout, double check_every) {
  const double deadline = wall_clock_.now() + timeout;
  // Poll granularity: check_every wall seconds, clamped so a coarse
  // virtual-time default (0.01) still reacts quickly and a tight one
  // does not busy-spin.
  const double poll = std::min(std::max(check_every, 0.001), 0.05);
  while (wall_clock_.now() < deadline) {
    if (pred()) return true;
    SleepSeconds(poll);
  }
  return pred();
}

void ThreadSubstrate::RunFor(double seconds) { SleepSeconds(seconds); }

}  // namespace tornado
