#ifndef TORNADO_ENGINE_SESSION_TABLE_H_
#define TORNADO_ENGINE_SESSION_TABLE_H_

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "common/serde.h"
#include "common/types.h"
#include "core/config.h"
#include "core/messages.h"
#include "engine/vertex_session.h"
#include "storage/versioned_store.h"

namespace tornado {

/// An update buffered at the delay bound (Section 4.4).
struct BlockedUpdate {
  VertexId src = 0;
  VertexId dst = 0;
  Iteration iteration = 0;
  VertexUpdate update;
};

/// Per-loop runtime state on one processor: the vertex sessions of this
/// partition plus the loop-level protocol bookkeeping (termination
/// watermark, bound-blocked buffer, per-iteration counters).
struct LoopState {
  LoopId loop = 0;
  LoopEpoch epoch = 0;
  Iteration tau = 0;  // first not-yet-terminated iteration
  std::unordered_map<VertexId, VertexSession> vertices;
  // Every session whose dirty flag was set since the report that last
  // visited it, each once (VertexSession::in_active); clean ones leave at
  // the next SweepMinWork. A session only prepares while dirty, so this
  // list holds every session with work pending (docs/PROTOCOL.md §4).
  // The pointers stay valid: sessions are never erased one by one, and
  // unordered_map nodes do not move.
  std::vector<VertexSession*> active;
  std::map<Iteration, std::vector<BlockedUpdate>> blocked;
  std::map<Iteration, IterationCounters> buckets;
  std::map<Iteration, double> progress;  // per-iteration progress metric
  std::unordered_set<VertexId> stalled;  // dirty but held by the bound
  uint64_t inputs_gathered = 0;
  uint64_t prepares_sent = 0;
  uint64_t blocked_count = 0;
  uint64_t report_seq = 0;
  uint64_t writes_since_flush = 0;

  /// Sets `s` dirty and puts it on the active list. The only way the
  /// engine dirties a session.
  void MarkDirty(VertexSession& s) {
    s.dirty = true;
    if (s.in_active) return;
    s.in_active = true;
    active.push_back(&s);
  }

  /// Earliest iteration `s` may commit at: no earlier than tau, and past
  /// its last commit.
  Iteration MinCommitIteration(const VertexSession& s) const {
    Iteration mc = std::max(s.iter, tau);
    if (s.last_commit != kNoIteration && s.last_commit + 1 > mc) {
      mc = s.last_commit + 1;
    }
    return mc;
  }

  /// The report's min_work_iter: the least MinCommitIteration over the
  /// dirty sessions, or kNoIteration when none is dirty. Visits only the
  /// active list, and drops from it the sessions that are clean again.
  Iteration SweepMinWork();
};

/// Owns every VertexSession of one processor, keyed by (loop, vertex),
/// together with the load/persist path against the VersionedStore:
/// deserializing snapshot versions into sessions, serializing committed
/// states (with their consumer sets) back out, and tracking the dirty
/// version count the checkpoint flush covers. Pure state + storage — no
/// protocol decisions, no networking.
class SessionTable {
 public:
  SessionTable(const JobConfig* config, VersionedStore* store);

  // --- Loop lifecycle. ---
  LoopState* Get(LoopId loop);
  const LoopState* Get(LoopId loop) const;

  /// Creates (replacing any prior incarnation) the runtime of `loop`.
  LoopState& Create(LoopId loop, LoopEpoch epoch, Iteration tau);

  bool Has(LoopId loop) const { return loops_.count(loop) > 0; }
  void Drop(LoopId loop) { loops_.erase(loop); }
  void Clear() { loops_.clear(); }
  std::unordered_map<LoopId, LoopState>& loops() { return loops_; }
  const std::unordered_map<LoopId, LoopState>& loops() const {
    return loops_;
  }

  // --- Sessions. ---

  /// Returns the session of `id`, creating it if needed: first from the
  /// store's snapshot at `load_at`, else fresh program-initialized state.
  VertexSession& GetOrCreate(LoopState& ls, VertexId id, Iteration load_at);

  /// Loads `id`'s newest version <= `at` into `out` (state, consumer set,
  /// iteration numbers). Returns false if no version exists.
  bool LoadFromStore(const LoopState& ls, VertexId id, Iteration at,
                     VertexSession* out) const;

  /// Serializes state + consumer set into the store at `iteration` and
  /// counts the version toward the next checkpoint flush.
  void Persist(LoopState& ls, VertexSession& s, Iteration iteration);

  /// Flushes dirty versions up to `horizon` (Section 5.3's
  /// flush-before-report rule); returns how many versions were pending
  /// and resets the pending counter.
  uint64_t FlushForReport(LoopState& ls, Iteration horizon);

  /// Deterministic per-(loop, vertex) random stream seed.
  Rng MakeVertexRng(LoopId loop, VertexId id) const;

  VersionedStore* store() { return store_; }

 private:
  const JobConfig* config_;
  VersionedStore* store_;
  std::unordered_map<LoopId, LoopState> loops_;
  // Serialization buffer reused by every Persist: its capacity settles at
  // the largest vertex record, so a commit allocates nothing here.
  BufferWriter persist_buffer_;
};

}  // namespace tornado

#endif  // TORNADO_ENGINE_SESSION_TABLE_H_
