#include "sim/event_loop.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace tornado {

namespace {
// 4-ary layout: children of i are 4i+1 .. 4i+4. Wider nodes halve the tree
// depth versus a binary heap, and a node's four 16-byte children fill
// exactly one 64-byte cache line.
constexpr size_t kArity = 4;
// Slot indices occupy the low 24 bits of a packed heap key: up to ~16.7M
// *concurrently pending* events (total events are unbounded — slots
// recycle). The remaining 40 bits of insertion sequence allow ~10^12
// events per loop lifetime.
constexpr size_t kMaxSlots = 1u << 24;
}  // namespace

EventId EventLoop::Schedule(double delay, Callback fn) {
  if (delay < 0.0) delay = 0.0;
  return ScheduleAt(now_ + delay, std::move(fn));
}

EventId EventLoop::ScheduleAt(double time, Callback fn) {
  // The clamp also folds -0.0 onto the clock, so every queued time is +0.0
  // or positive and its bit pattern orders like the value. A NaN fails
  // every comparison, so it lands here too instead of breaking heap order.
  if (!(time > now_)) {
    TCHECK(!std::isnan(time)) << "event scheduled at a NaN time";
    time = now_;
  }

  uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    index = static_cast<uint32_t>(slots_.size());
    TCHECK_LT(slots_.size(), kMaxSlots) << "too many concurrent events";
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.seq = next_seq_++;

  Push(HeapEntry{std::bit_cast<uint64_t>(time), (slot.seq << 24) | index});
  ++live_;
  return (static_cast<uint64_t>(slot.gen) << 32) | index;
}

void EventLoop::Cancel(EventId id) {
  const uint32_t index = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (index >= slots_.size()) return;
  Slot& slot = slots_[index];
  if (slot.gen != gen || !slot.fn) return;
  // Eager reclamation: the closure dies now, the slot is immediately
  // reusable, and only the seq-mismatched queue entry lingers.
  slot.fn = nullptr;
  ++slot.gen;
  slot.seq = 0;  // no live seq is ever 0, so the queue entry reads as stale
  free_slots_.push_back(index);
  TCHECK_GT(live_, 0u);
  --live_;
  ++stale_;
  MaybeCompactHeap();
}

void EventLoop::Push(const HeapEntry& entry) {
  // The slot holds the earliest entry whenever it is occupied. A newcomer
  // takes it if it orders before everything queued; the entry it displaces
  // is then the heap's new minimum.
  if (!has_front_) {
    if (heap_.empty() || entry.Before(heap_.front())) {
      front_ = entry;
      has_front_ = true;
    } else {
      HeapPush(entry);
    }
  } else if (entry.Before(front_)) {
    HeapPush(front_);
    front_ = entry;
  } else {
    HeapPush(entry);
  }
}

void EventLoop::HeapPush(HeapEntry entry) {
  size_t hole = heap_.size();
  heap_.push_back(entry);
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!entry.Before(heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = entry;
}

void EventLoop::SiftDown(size_t i) {
  const size_t n = heap_.size();
  for (;;) {
    const size_t first_child = i * kArity + 1;
    if (first_child >= n) break;
    size_t best = first_child;
    const size_t last_child = std::min(first_child + kArity, n);
    for (size_t c = first_child + 1; c < last_child; ++c) {
      if (heap_[c].Before(heap_[best])) best = c;
    }
    if (!heap_[best].Before(heap_[i])) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
}

EventLoop::HeapEntry EventLoop::HeapPopTop() {
  // Bottom-up pop: the root's hole sinks along the min-child path to a
  // leaf without comparing against the displaced last entry, which almost
  // always belongs near the bottom anyway; that entry then sifts up from
  // the leaf, usually by zero or one level.
  const HeapEntry top = heap_.front();
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) return top;
  HeapEntry* h = heap_.data();
  size_t hole = 0;
  for (;;) {
    const size_t c = hole * kArity + 1;
    size_t best;
    if (c + kArity <= n) {
      // Full node: a min-of-4 tournament the compiler turns into cmovs.
      const size_t m01 = h[c + 1].Before(h[c]) ? c + 1 : c;
      const size_t m23 = h[c + 3].Before(h[c + 2]) ? c + 3 : c + 2;
      best = h[m23].Before(h[m01]) ? m23 : m01;
    } else if (c < n) {
      best = c;
      for (size_t k = c + 1; k < n; ++k) {
        if (h[k].Before(h[best])) best = k;
      }
    } else {
      break;
    }
    h[hole] = h[best];
    hole = best;
  }
  while (hole > 0) {
    const size_t parent = (hole - 1) / kArity;
    if (!last.Before(h[parent])) break;
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = last;
  return top;
}

void EventLoop::DropStaleTop() {
  for (;;) {
    if (has_front_) {
      if (!IsStale(front_)) return;
      has_front_ = false;
    } else if (!heap_.empty() && IsStale(heap_.front())) {
      HeapPopTop();
    } else {
      return;
    }
    TCHECK_GT(stale_, 0u);
    --stale_;
  }
}

void EventLoop::MaybeCompactHeap() {
  // Cancel-heavy workloads would otherwise grow the heap with far-future
  // tombstones until their fire time. When they dominate, filter and
  // re-heapify in one O(n) pass; the (time, seq) total order makes the
  // rebuild trivially order-preserving.
  if (stale_ < 64 || stale_ <= heap_size() / 2) return;
  if (has_front_ && IsStale(front_)) has_front_ = false;
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const HeapEntry& e) { return IsStale(e); }),
              heap_.end());
  stale_ = 0;
  // Floyd heapify: sift down every internal node, last parent to root.
  if (heap_.size() > 1) {
    for (size_t i = (heap_.size() - 2) / kArity + 1; i-- > 0;) SiftDown(i);
  }
}

bool EventLoop::FireNext() {
  DropStaleTop();
  if (QueueEmpty()) return false;
  HeapEntry top;
  if (has_front_) {
    top = front_;
    has_front_ = false;
  } else {
    top = HeapPopTop();
  }

  Slot& slot = slots_[top.slot()];
  TCHECK(static_cast<bool>(slot.fn)) << "event without callback";
  Callback fn = std::move(slot.fn);
  slot.fn = nullptr;
  ++slot.gen;  // invalidates the EventId; a later Cancel is a no-op
  slot.seq = 0;
  free_slots_.push_back(top.slot());
  --live_;

  now_ = std::bit_cast<double>(top.time_bits);
  ++fired_;
  fn();  // may re-enter Schedule/Cancel freely: slab state is consistent
  return true;
}

uint64_t EventLoop::Run() {
  uint64_t n = 0;
  while (!budget_exhausted() && FireNext()) ++n;
  return n;
}

uint64_t EventLoop::RunUntil(double deadline) {
  uint64_t n = 0;
  for (;;) {
    // Peek past cancelled tombstones to find the next real event time.
    DropStaleTop();
    if (QueueEmpty() || std::bit_cast<double>(Top().time_bits) > deadline) {
      // Only when every due event has fired may the clock jump to the
      // deadline; a budget break below leaves now_ at the last fired event
      // so the undelivered ones are still in the future, not the past.
      if (now_ < deadline) now_ = deadline;
      return n;
    }
    if (budget_exhausted()) return n;
    if (FireNext()) ++n;
  }
}

bool EventLoop::Step() { return FireNext(); }

double EventLoop::NextEventTime() {
  DropStaleTop();
  if (QueueEmpty()) return std::numeric_limits<double>::infinity();
  return std::bit_cast<double>(Top().time_bits);
}

}  // namespace tornado
