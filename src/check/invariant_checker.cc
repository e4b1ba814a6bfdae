#include "check/invariant_checker.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>
#include <utility>

#include "common/ordered.h"

namespace tornado {

CheckObserver::LoopCheck* CheckObserver::Resolve(LoopId loop,
                                                 LoopEpoch epoch) {
  ++events_seen_;
  auto [it, inserted] = loops_.try_emplace(loop);
  LoopCheck& lc = it->second;
  if (inserted) {
    lc.epoch = epoch;
    return &lc;
  }
  if (epoch < lc.epoch) return nullptr;  // superseded incarnation
  if (epoch > lc.epoch) {
    // Rollback recovery: the loop restarted under a fresh epoch; all
    // in-flight expectations from the old incarnation are void.
    lc = LoopCheck{};
    lc.epoch = epoch;
  }
  return &lc;
}

void CheckObserver::Violate(CheckViolation violation) {
  std::fprintf(stderr,
               "=============== TORNADO INVARIANT VIOLATION ===============\n"
               "invariant: %s\n"
               "loop: %" PRIu32 " epoch: %" PRIu32 " vertex: %" PRIu64
               " iteration: %" PRIu64 "\n"
               "detail: %s\n"
               "events_seen: %" PRIu64 " commits_checked: %" PRIu64 "\n"
               "===========================================================\n",
               violation.invariant.c_str(), violation.loop, violation.epoch,
               violation.vertex, violation.iteration,
               violation.detail.c_str(), events_seen_, commits_checked_);
  std::fflush(stderr);
  violations_.push_back(std::move(violation));
  if (options_.abort_on_violation) std::abort();
}

void CheckObserver::OnPrepare(LoopId loop, LoopEpoch epoch, VertexId producer,
                              uint64_t fanout) {
  const MutexLock lock(&mu_);
  LoopCheck* lc = Resolve(loop, epoch);
  if (lc == nullptr) return;
  VertexCheck& v = lc->vertices[producer];
  if (v.preparing) {
    Violate({"INV-QUORUM", loop, epoch, producer, 0,
             "prepare round started while a previous round is in flight (" +
                 std::to_string(v.pending_acks) + " acks outstanding)"});
  }
  v.preparing = true;
  v.pending_acks = fanout;
}

void CheckObserver::OnAck(LoopId loop, LoopEpoch epoch, VertexId /*consumer*/,
                          VertexId producer, Iteration /*iteration*/) {
  const MutexLock lock(&mu_);
  LoopCheck* lc = Resolve(loop, epoch);
  if (lc == nullptr) return;
  auto it = lc->vertices.find(producer);
  if (it == lc->vertices.end()) return;  // stale ack; producer ignores it
  VertexCheck& v = it->second;
  if (v.preparing && v.pending_acks > 0) --v.pending_acks;
}

void CheckObserver::OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                             Iteration iteration, Iteration tau,
                             Iteration horizon) {
  const MutexLock lock(&mu_);
  LoopCheck* lc = Resolve(loop, epoch);
  if (lc == nullptr) return;
  ++commits_checked_;
  VertexCheck& v = lc->vertices[vertex];

  if (v.preparing && v.pending_acks > 0) {
    Violate({"INV-QUORUM", loop, epoch, vertex, iteration,
             "commit with " + std::to_string(v.pending_acks) +
                 " of its prepare round's acks still outstanding"});
  }
  v.preparing = false;
  v.pending_acks = 0;

  if (iteration < tau || iteration > horizon) {
    Violate({"INV-WINDOW", loop, epoch, vertex, iteration,
             "commit outside [tau, horizon] = [" + std::to_string(tau) +
                 ", " + std::to_string(horizon) + "]"});
  }

  if (v.last_commit != kNoIteration && iteration <= v.last_commit) {
    Violate({"INV-MONO-COMMIT", loop, epoch, vertex, iteration,
             "commit iteration does not exceed the previous commit at " +
                 std::to_string(v.last_commit)});
  }

  if (v.merge_floor > 0 && iteration <= v.merge_floor) {
    Violate({"INV-MERGE-FLOOR", loop, epoch, vertex, iteration,
             "commit at or below the adopted merge iteration " +
                 std::to_string(v.merge_floor)});
  }

  if (options_.store != nullptr) {
    const Iteration stored =
        options_.store->GetVersionIteration(loop, vertex, iteration);
    if (stored != iteration) {
      Violate({"INV-STORE", loop, epoch, vertex, iteration,
               "no store version at the commit iteration (newest version "
               "<= it is " +
                   (stored == kNoIteration ? std::string("none")
                                           : std::to_string(stored)) +
                   ")"});
    }
  }

  v.last_commit = iteration;
}

void CheckObserver::OnLoopCreated(LoopId loop, LoopEpoch epoch, Iteration tau,
                                  uint32_t processor) {
  const MutexLock lock(&mu_);
  LoopCheck* lc = Resolve(loop, epoch);
  if (lc == nullptr) return;
  lc->tau_by_processor[processor] = tau;
}

void CheckObserver::OnLoopDropped(LoopId loop, uint32_t processor) {
  const MutexLock lock(&mu_);
  ++events_seen_;
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  it->second.tau_by_processor.erase(processor);
  if (it->second.tau_by_processor.empty()) loops_.erase(it);
}

void CheckObserver::OnEngineReset(uint32_t processor) {
  const MutexLock lock(&mu_);
  ++events_seen_;
  // A worker restart voids every in-flight expectation this checker holds:
  // the restarted processor rebuilds its partition from the store and may
  // legitimately re-commit below its pre-crash watermarks until the master
  // finishes the epoch-bumping rollback. Ownership is not visible here, so
  // clear conservatively (false negatives over false positives).
  for (auto& [loop, lc] : loops_) {
    lc.vertices.clear();
    lc.tau_by_processor.erase(processor);
  }
}

void CheckObserver::OnTerminated(LoopId loop, LoopEpoch epoch,
                                 uint32_t processor, Iteration new_tau) {
  const MutexLock lock(&mu_);
  LoopCheck* lc = Resolve(loop, epoch);
  if (lc == nullptr) return;
  auto [it, inserted] = lc->tau_by_processor.try_emplace(processor, new_tau);
  if (!inserted) {
    if (new_tau <= it->second) {
      Violate({"INV-MONO-TAU", loop, epoch, 0, new_tau,
               "termination watermark of processor " +
                   std::to_string(processor) + " regressed from " +
                   std::to_string(it->second)});
    }
    it->second = new_tau;
  }
}

void CheckObserver::OnMergeAdopted(LoopId loop, LoopEpoch epoch,
                                   VertexId vertex,
                                   Iteration merge_iteration) {
  const MutexLock lock(&mu_);
  LoopCheck* lc = Resolve(loop, epoch);
  if (lc == nullptr) return;
  VertexCheck& v = lc->vertices[vertex];
  if (v.merge_floor < merge_iteration) v.merge_floor = merge_iteration;
  if (v.last_commit == kNoIteration || v.last_commit < merge_iteration) {
    v.last_commit = merge_iteration;
  }
}

void CheckObserver::DeepCheck(const SessionTable& sessions) {
  const MutexLock lock(&mu_);
  ForEachOrdered(sessions.loops(), [&](LoopId loop, const LoopState& ls) {
    mu_.AssertHeld();  // lambda runs under the lock taken above
    uint64_t buffered = 0;
    for (const auto& [iter, batch] : ls.blocked) buffered += batch.size();
    if (buffered != ls.blocked_count) {
      Violate({"INV-BLOCKED-COUNT", loop, ls.epoch, 0, ls.tau,
               "blocked_count " + std::to_string(ls.blocked_count) +
                   " != buffered updates " + std::to_string(buffered)});
    }
    for (VertexId id : SortedKeys(ls.stalled)) {
      if (ls.vertices.find(id) == ls.vertices.end()) {
        Violate({"INV-BLOCKED-COUNT", loop, ls.epoch, id, ls.tau,
                 "stalled set names a vertex with no session"});
      }
    }
    // INV-ACTIVE-SET: the active list names live sessions, each once and
    // flagged, and holds every session with pending work, so the report's
    // minimum over the list equals the minimum over the whole partition.
    std::unordered_set<const VertexSession*> listed;
    Iteration list_min = kNoIteration;
    for (const VertexSession* s : ls.active) {
      auto it = ls.vertices.find(s->id);
      if (it == ls.vertices.end() || &it->second != s || !s->in_active ||
          !listed.insert(s).second) {
        Violate({"INV-ACTIVE-SET", loop, ls.epoch, s->id, ls.tau,
                 "active list entry is not a live, flagged, unique session"});
        continue;
      }
      if (s->dirty) list_min = std::min(list_min, ls.MinCommitIteration(*s));
    }
    Iteration scan_min = kNoIteration;
    ForEachOrdered(ls.vertices, [&](VertexId id, const VertexSession& s) {
      mu_.AssertHeld();
      if (s.dirty || s.update_time.has_value()) {
        scan_min = std::min(scan_min, ls.MinCommitIteration(s));
        if (!s.in_active || listed.count(&s) == 0) {
          Violate({"INV-ACTIVE-SET", loop, ls.epoch, id, s.iter,
                   "session with pending work is missing from the active "
                   "list"});
        }
      }
      const bool quiescent = !s.dirty && !s.update_time.has_value() &&
                             s.prepare_list.empty() &&
                             s.pending_inputs.empty();
      if (quiescent && !s.retiring().empty()) {
        Violate({"INV-RETIRE-DRAIN", loop, ls.epoch, id, s.iter,
                 "quiescent vertex still holds " +
                     std::to_string(s.retiring().size()) +
                     " retiring consumers (retraction never delivered)"});
      }
      if (!s.update_time.has_value() &&
          (!s.waiting_list.empty() || !s.pending_list.empty())) {
        Violate({"INV-QUIESCENT", loop, ls.epoch, id, s.iter,
                 "non-preparing vertex holds " +
                     std::to_string(s.waiting_list.size()) +
                     " waiting consumers / " +
                     std::to_string(s.pending_list.size()) +
                     " deferred acks"});
      }
    });
    if (list_min != scan_min) {
      Violate({"INV-ACTIVE-SET", loop, ls.epoch, 0, ls.tau,
               "min_work_iter over the active list " +
                   std::to_string(static_cast<int64_t>(list_min)) +
                   " != full scan " +
                   std::to_string(static_cast<int64_t>(scan_min))});
    }
  });
}

}  // namespace tornado
