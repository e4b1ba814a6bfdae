#ifndef TORNADO_CHECK_INVARIANT_CHECKER_H_
#define TORNADO_CHECK_INVARIANT_CHECKER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "engine/observer.h"
#include "engine/session_table.h"
#include "storage/versioned_store.h"

namespace tornado {

/// One detected invariant violation, with enough context to debug it.
struct CheckViolation {
  std::string invariant;  // e.g. "INV-QUORUM" (see docs/CHECKS.md)
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  VertexId vertex = 0;
  Iteration iteration = 0;
  std::string detail;
};

/// Runtime protocol invariant checker: an EngineObserver that shadows the
/// three-phase update protocol cluster-wide and asserts the safety
/// predicates PROTOCOL.md states in prose (docs/CHECKS.md catalogues them
/// as INV-* identifiers):
///
///   INV-QUORUM     a vertex that fanned PREPAREs out to N consumers only
///                  commits after all N acknowledged (Section 4.2).
///   INV-MONO-COMMIT consecutive commits of one (loop, vertex) have
///                  strictly increasing iterations (Definition 1).
///   INV-WINDOW     every commit lands inside [tau, CommitHorizon(tau)]
///                  of its processor (Section 4.4).
///   INV-MONO-TAU   a processor's termination watermark never regresses
///                  within one loop epoch (Section 4.3).
///   INV-STORE      the committed version is present in the VersionedStore
///                  at exactly the commit iteration, and the chain head
///                  never regresses below it (Section 5.1).
///   INV-MERGE-FLOOR after adopting a branch merge at iteration m, the
///                  vertex's next commit is strictly beyond m (Section 5.2).
///
/// plus a structural DeepCheck() pass over a SessionTable (run between
/// dispatches, e.g. at the end of a test):
///
///   INV-RETIRE-DRAIN a quiescent vertex has an empty retiring set —
///                  every retired consumer observed its final update.
///   INV-BLOCKED-COUNT the loop's blocked counter matches the buffered
///                  updates, and stalled ids refer to live sessions.
///   INV-QUIESCENT  a non-preparing vertex holds no waiting list and no
///                  deferred acks.
///   INV-ACTIVE-SET every session with pending work (dirty or preparing)
///                  is on its loop's active list, and the list's
///                  min_work_iter equals a full scan's.
///
/// All event state is scoped by (loop, epoch): traffic from superseded
/// epochs is ignored, and a worker restart (OnEngineReset) conservatively
/// clears in-flight expectations so recovery does not produce false
/// positives.
///
/// On violation the checker prints a structured dump (every field of the
/// CheckViolation plus the event history counters) and calls std::abort(),
/// unless constructed with abort_on_violation = false, in which case
/// violations are recorded and readable via violations() (used by the
/// forged-event tests).
class CheckObserver final : public EngineObserver {
 public:
  struct Options {
    bool abort_on_violation = true;
    /// When set, INV-STORE cross-checks every commit against the store.
    const VersionedStore* store = nullptr;
  };

  CheckObserver() : CheckObserver(Options{}) {}
  explicit CheckObserver(Options options) : options_(options) {}

  // --- EngineObserver hooks. ---
  void OnPrepare(LoopId loop, LoopEpoch epoch, VertexId producer,
                 uint64_t fanout) override;
  void OnAck(LoopId loop, LoopEpoch epoch, VertexId consumer,
             VertexId producer, Iteration iteration) override;
  void OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                Iteration iteration, Iteration tau,
                Iteration horizon) override;
  void OnLoopCreated(LoopId loop, LoopEpoch epoch, Iteration tau,
                     uint32_t processor) override;
  void OnLoopDropped(LoopId loop, uint32_t processor) override;
  void OnEngineReset(uint32_t processor) override;
  void OnTerminated(LoopId loop, LoopEpoch epoch, uint32_t processor,
                    Iteration new_tau) override;
  void OnMergeAdopted(LoopId loop, LoopEpoch epoch, VertexId vertex,
                      Iteration merge_iteration) override;

  /// Structural pass over one processor's sessions (INV-RETIRE-DRAIN,
  /// INV-BLOCKED-COUNT, INV-QUIESCENT, INV-ACTIVE-SET). Call between
  /// dispatches only.
  void DeepCheck(const SessionTable& sessions);

  /// Snapshot of the recorded violations, by value: on the thread
  /// substrate node threads may still be appending when the driver polls
  /// (returning a reference here was a latent race, caught by the
  /// thread-safety annotation pass).
  std::vector<CheckViolation> violations() const {
    const MutexLock lock(&mu_);
    return violations_;
  }
  uint64_t events_seen() const {
    const MutexLock lock(&mu_);
    return events_seen_;
  }
  uint64_t commits_checked() const {
    const MutexLock lock(&mu_);
    return commits_checked_;
  }

 private:
  struct VertexCheck {
    Iteration last_commit = kNoIteration;
    Iteration merge_floor = 0;
    uint64_t pending_acks = 0;
    bool preparing = false;
  };
  struct LoopCheck {
    LoopEpoch epoch = 0;
    std::map<VertexId, VertexCheck> vertices;
    std::map<uint32_t, Iteration> tau_by_processor;
  };

  /// Returns the check state of `loop` at `epoch`, or nullptr when the
  /// event belongs to a superseded epoch. A newer epoch resets the loop.
  LoopCheck* Resolve(LoopId loop, LoopEpoch epoch) REQUIRES(mu_);

  void Violate(CheckViolation violation) REQUIRES(mu_);

  // Serializes the hooks: on the thread substrate every processor thread
  // reports into the one cluster-wide checker. Uncontended (sim) this is
  // a fast-path lock; the checker is a debug facility either way.
  mutable Mutex mu_;
  Options options_ GUARDED_BY(mu_);
  std::map<LoopId, LoopCheck> loops_ GUARDED_BY(mu_);
  std::vector<CheckViolation> violations_ GUARDED_BY(mu_);
  uint64_t events_seen_ GUARDED_BY(mu_) = 0;
  uint64_t commits_checked_ GUARDED_BY(mu_) = 0;
};

}  // namespace tornado

#endif  // TORNADO_CHECK_INVARIANT_CHECKER_H_
