#ifndef TORNADO_STORAGE_VERSIONED_STORE_H_
#define TORNADO_STORAGE_VERSIONED_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/types.h"

namespace tornado {

/// Borrowed, non-owning view of one stored version's bytes. Returned by
/// the store's read API instead of a pointer to an owned vector: versions
/// live packed in a per-loop block arena, so there is no per-version
/// container to point at. A default-constructed view is "absent" (tests
/// false); present views may legitimately be empty (zero-length value).
///
/// Lifetime: arena blocks never move, so a view survives Puts that append
/// a new version. Any mutation that releases a version of the view's loop
/// — an overwriting Put, MergeLoop into it, TruncateAfter, PruneBelow,
/// RecoverToDurable, DropLoop — may free the view's block or compact the
/// arena, and invalidates the view. Callers keep the read-then-act-
/// before-writing discipline: read, use, then mutate.
class VersionView {
 public:
  VersionView() = default;
  VersionView(const uint8_t* data, size_t size)
      : data_(data), size_(size), present_(true) {}

  explicit operator bool() const { return present_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  uint8_t operator[](size_t i) const { return data_[i]; }
  std::vector<uint8_t> ToVector() const { return {data_, data_ + size_}; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool present_ = false;
};

/// Multi-versioned vertex-state store: the stand-in for the external
/// database (PostgreSQL / LMDB) Tornado materializes vertex versions into.
///
/// Keys are (loop, vertex); each key holds a version chain ordered by
/// iteration number. The engine appends a version whenever a vertex commits
/// (Section 5.1: "After the vertex's update is committed, the new version
/// of the vertex will be ... written to the storage") and reads
/// snapshot-consistent states when forking branch loops (Section 5.2: "the
/// most recent versions of vertices that are not greater than i will be
/// selected in the snapshot").
///
/// Durability model: a Put is immediately visible but only *durable* after
/// a Flush covering its iteration (processors flush before reporting
/// progress, Section 5.3). Recovery truncates each chain back to the
/// durable watermark.
///
/// Layout: each chain is a flat iteration-sorted vector of
/// (iteration, bytes pointer, length, block) entries. The bytes live in a
/// per-loop arena made of blocks that never move or grow: a version's
/// bytes are contiguous inside one block, so a Put is one copy into the
/// current block plus at most one entry insert, and a snapshot read is a
/// binary search that ends at a pointer (no map nodes, no per-version
/// vector allocations, no regrowth copies). Block capacities double from
/// kFirstBlockBytes up to kMaxBlockBytes, so small branch loops stay small;
/// a version larger than kMaxBlockBytes gets a block of its own size. Each
/// block counts its live bytes and is freed as soon as its last version is
/// pruned, truncated or overwritten. Only garbage stranded in blocks that
/// are still live remains; the arena compacts itself once that garbage
/// exceeds the live volume.
///
/// Locking contract (docs/RUNTIME.md): every public method is a thin
/// wrapper that takes the store Guard and calls a private *Locked impl
/// annotated REQUIRES(mu_), so the clang thread-safety analysis proves no
/// chain/arena state is touched without the capability. At runtime the
/// Guard only physically locks in thread-safe mode; the static story
/// ("mu_ is always held inside the store") over-approximates the
/// single-threaded mode, which is sound.
class VersionedStore {
 public:
  /// Arena block capacities (see "Layout" above). Constants, not knobs.
  static constexpr size_t kFirstBlockBytes = size_t{4} << 10;
  static constexpr size_t kMaxBlockBytes = size_t{1} << 20;

  /// RAII lock over the whole store; a no-op unless SetThreadSafe(true)
  /// was called. The underlying mutex is recursive, so holding a Guard
  /// across a compound sequence (Get + deserialize, read-then-write)
  /// nests fine with the per-method locking. Obtained via Lock() only —
  /// the factory's ACQUIRE annotation is what binds the scoped
  /// capability to mu_ for the analysis.
  class SCOPED_CAPABILITY Guard {
   public:
    ~Guard() RELEASE() NO_THREAD_SAFETY_ANALYSIS {
      if (mu_ != nullptr) mu_->Unlock();
    }
    Guard(const Guard&) = delete;
    Guard(Guard&&) = delete;  // prvalue returns elide; no move needed
    Guard& operator=(const Guard&) = delete;
    Guard& operator=(Guard&&) = delete;

   private:
    friend class VersionedStore;
    explicit Guard(RecursiveMutex* mu) ACQUIRE(mu) NO_THREAD_SAFETY_ANALYSIS
        : mu_(mu) {
      if (mu_ != nullptr) mu_->Lock();
    }

    RecursiveMutex* mu_;
  };

  /// Thread-safe mode (thread substrate): every public method locks for
  /// its duration. Callers doing compound reads — holding a VersionView
  /// across deserialization, or read-then-act sequences — must hold an
  /// explicit Lock() guard for the whole sequence, because a view is only
  /// valid until the store's next mutation. Flip before any concurrent
  /// access; off by default (the sim substrate is single-threaded and
  /// pays only a null-check per call).
  void SetThreadSafe(bool on) { thread_safe_ = on; }

  /// Acquires the store lock (no-op guard when thread-safe mode is off:
  /// the one place the runtime story is conditional, hence the analysis
  /// escape on the body — callers and everything below the Guard are
  /// still fully checked).
  Guard Lock() const ACQUIRE(mu_) NO_THREAD_SAFETY_ANALYSIS {
    return Guard(thread_safe_ ? &mu_ : nullptr);
  }

  /// Appends (or overwrites) the version of `vertex` at `iteration`.
  void Put(LoopId loop, VertexId vertex, Iteration iteration,
           std::vector<uint8_t> value) {
    const Guard guard = Lock();
    PutBytesLocked(loop, vertex, iteration, value.data(), value.size());
  }

  /// Same, from a borrowed byte range (no intermediate vector). `data` may
  /// point into this store: the bytes are copied before any version is
  /// released.
  void PutBytes(LoopId loop, VertexId vertex, Iteration iteration,
                const uint8_t* data, size_t size) {
    const Guard guard = Lock();
    PutBytesLocked(loop, vertex, iteration, data, size);
  }

  /// Latest version with iteration <= `at`, or an absent view if none.
  VersionView Get(LoopId loop, VertexId vertex, Iteration at) const {
    const Guard guard = Lock();
    return GetLocked(loop, vertex, at);
  }

  /// Iteration of the version returned by Get, or kNoIteration.
  Iteration GetVersionIteration(LoopId loop, VertexId vertex,
                                Iteration at) const {
    const Guard guard = Lock();
    return GetVersionIterationLocked(loop, vertex, at);
  }

  /// Latest version regardless of iteration, or an absent view.
  VersionView GetLatest(LoopId loop, VertexId vertex) const {
    const Guard guard = Lock();
    return GetLatestLocked(loop, vertex);
  }

  /// All vertices that have at least one version in `loop`.
  std::vector<VertexId> VerticesOf(LoopId loop) const {
    const Guard guard = Lock();
    return VerticesOfLocked(loop);
  }

  /// All vertices that have a version at exactly `iteration` (used by
  /// processors to adopt branch results merged at tau + B).
  std::vector<VertexId> VerticesWithVersionAt(LoopId loop,
                                              Iteration iteration) const {
    const Guard guard = Lock();
    return VerticesWithVersionAtLocked(loop, iteration);
  }

  /// Number of versions of `vertex` in `loop`.
  size_t VersionCount(LoopId loop, VertexId vertex) const {
    const Guard guard = Lock();
    return VersionCountLocked(loop, vertex);
  }

  /// Marks all versions of `loop` with iteration <= `iteration` durable and
  /// returns how many versions became durable by this call (the flush cost
  /// is proportional to it).
  size_t Flush(LoopId loop, Iteration iteration) {
    const Guard guard = Lock();
    return FlushLocked(loop, iteration);
  }

  /// Number of versions written after the durable watermark (pending I/O).
  size_t DirtyVersions(LoopId loop) const {
    const Guard guard = Lock();
    return DirtyVersionsLocked(loop);
  }

  /// Durable watermark of `loop` (kNoIteration if never flushed).
  Iteration DurableIteration(LoopId loop) const {
    const Guard guard = Lock();
    return DurableIterationLocked(loop);
  }

  /// Drops all versions newer than `iteration` (global rollback used when
  /// the computation restarts from the last terminated iteration).
  void TruncateAfter(LoopId loop, Iteration iteration) {
    const Guard guard = Lock();
    TruncateAfterLocked(loop, iteration);
  }

  /// Garbage-collects history: for every chain, drops versions older than
  /// the newest version at or below `iteration` (which is kept — it is the
  /// snapshot fork point). Returns the number of versions removed. The
  /// master prunes below the last terminated iteration; nothing older can
  /// be forked or rolled back to.
  size_t PruneBelow(LoopId loop, Iteration iteration) {
    const Guard guard = Lock();
    return PruneBelowLocked(loop, iteration);
  }

  /// Drops everything newer than the durable watermark.
  void RecoverToDurable(LoopId loop) {
    const Guard guard = Lock();
    RecoverToDurableLocked(loop);
  }

  /// Removes a finished branch loop's data.
  void DropLoop(LoopId loop) {
    const Guard guard = Lock();
    DropLoopLocked(loop);
  }

  /// Copies the snapshot of `src` at `iteration` into `dst` as its
  /// iteration-0 baseline (branch-loop fork). Returns #vertices copied.
  size_t ForkLoop(LoopId src, Iteration iteration, LoopId dst) {
    const Guard guard = Lock();
    return ForkLoopLocked(src, iteration, dst);
  }

  /// Copies every vertex's latest version of `src` into `dst_iteration` of
  /// `dst` (merging converged branch results back into the main loop at
  /// iteration τ+B, Section 5.2). Returns #vertices merged.
  size_t MergeLoop(LoopId src, LoopId dst, Iteration dst_iteration) {
    const Guard guard = Lock();
    return MergeLoopLocked(src, dst, dst_iteration);
  }

  size_t TotalVersions() const {
    const Guard guard = Lock();
    return TotalVersionsLocked();
  }
  size_t TotalBytes() const {
    const Guard guard = Lock();
    return TotalBytesLocked();
  }

  /// Arena introspection for tests: bytes written into the live blocks of
  /// `loop` (live + stranded garbage; free block tails not counted), and
  /// how many compactions it has run.
  size_t ArenaBytes(LoopId loop) const {
    const Guard guard = Lock();
    return ArenaBytesLocked(loop);
  }
  uint64_t ArenaCompactions(LoopId loop) const {
    const Guard guard = Lock();
    return ArenaCompactionsLocked(loop);
  }

 private:
  static constexpr uint32_t kNoBlock = ~uint32_t{0};

  // Per-loop byte arena: a list of fixed-capacity blocks that never move.
  // Appends go to the current block; a version that does not fit opens the
  // next, larger block. Freed block slots are reused by later blocks.
  class Arena {
   public:
    struct Slot {
      const uint8_t* data = nullptr;
      uint32_t block = kNoBlock;  // kNoBlock for zero-length versions
    };
    /// Copies `size` bytes into one block and returns where they landed.
    Slot Append(const uint8_t* data, size_t size);
    /// Drops `size` live bytes of `block`; frees the block when none stay
    /// (the current block is rewound for reuse instead).
    void Release(uint32_t block, size_t size);
    size_t used() const { return used_; }
    size_t live() const { return live_; }

   private:
    struct Block {
      std::unique_ptr<uint8_t[]> bytes;  // null once freed
      size_t capacity = 0;
      size_t used = 0;  // append cursor: live + garbage bytes
      size_t live = 0;  // bytes referenced by some entry
    };
    uint32_t NewBlock(size_t capacity);

    std::vector<Block> blocks_;
    std::vector<uint32_t> free_slots_;
    uint32_t current_ = kNoBlock;
    size_t next_capacity_ = kFirstBlockBytes;
    size_t used_ = 0;  // sum of Block::used over live blocks
    size_t live_ = 0;  // sum of Block::live
  };

  // 24 bytes per version; chains stay iteration-sorted (commits arrive in
  // increasing iteration order, so inserts are almost always push_backs).
  struct VersionEntry {
    Iteration iteration = 0;
    const uint8_t* data = nullptr;  // into LoopData::arena
    uint32_t length = 0;
    uint32_t block = kNoBlock;
  };
  struct Chain {
    std::vector<VersionEntry> entries;
  };
  struct LoopData {
    std::unordered_map<VertexId, Chain> chains;
    Arena arena;
    uint64_t compactions = 0;
    Iteration durable = kNoIteration;
    // Versions newer than `durable`, counted per iteration, so a flush
    // sums the iterations it covers instead of walking every chain.
    std::map<Iteration, size_t> dirty;
  };

  // The *Locked bodies (versioned_store.cc). Internal calls go through
  // these directly — the public wrappers exist so the recursion the old
  // per-method locking relied on is no longer needed (or visible to the
  // analysis).
  void PutBytesLocked(LoopId loop, VertexId vertex, Iteration iteration,
                      const uint8_t* data, size_t size) REQUIRES(mu_);
  VersionView GetLocked(LoopId loop, VertexId vertex, Iteration at) const
      REQUIRES(mu_);
  Iteration GetVersionIterationLocked(LoopId loop, VertexId vertex,
                                      Iteration at) const REQUIRES(mu_);
  VersionView GetLatestLocked(LoopId loop, VertexId vertex) const
      REQUIRES(mu_);
  std::vector<VertexId> VerticesOfLocked(LoopId loop) const REQUIRES(mu_);
  std::vector<VertexId> VerticesWithVersionAtLocked(LoopId loop,
                                                    Iteration iteration) const
      REQUIRES(mu_);
  size_t VersionCountLocked(LoopId loop, VertexId vertex) const
      REQUIRES(mu_);
  size_t FlushLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);
  size_t DirtyVersionsLocked(LoopId loop) const REQUIRES(mu_);
  Iteration DurableIterationLocked(LoopId loop) const REQUIRES(mu_);
  void TruncateAfterLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);
  size_t PruneBelowLocked(LoopId loop, Iteration iteration) REQUIRES(mu_);
  void RecoverToDurableLocked(LoopId loop) REQUIRES(mu_);
  void DropLoopLocked(LoopId loop) REQUIRES(mu_);
  size_t ForkLoopLocked(LoopId src, Iteration iteration, LoopId dst)
      REQUIRES(mu_);
  size_t MergeLoopLocked(LoopId src, LoopId dst, Iteration dst_iteration)
      REQUIRES(mu_);
  size_t TotalVersionsLocked() const REQUIRES(mu_);
  size_t TotalBytesLocked() const REQUIRES(mu_);
  size_t ArenaBytesLocked(LoopId loop) const REQUIRES(mu_);
  uint64_t ArenaCompactionsLocked(LoopId loop) const REQUIRES(mu_);

  const Chain* FindChain(LoopId loop, VertexId vertex) const REQUIRES(mu_);
  static VersionView ViewOf(const VersionEntry& entry) {
    return VersionView(entry.data, entry.length);
  }
  static void ReleaseEntry(LoopData& data, const VersionEntry& entry) {
    data.arena.Release(entry.block, entry.length);
  }
  // Drops a version at `iteration` from the dirty count, if it was dirty.
  static void UncountDirty(LoopData& data, Iteration iteration);
  void MaybeCompact(LoopData& data);

  // Driver-set before any concurrent access (SetThreadSafe), then read
  // by every Lock(); not guarded by design — flipping it mid-run is
  // outside the contract.
  bool thread_safe_ = false;
  mutable RecursiveMutex mu_;
  std::unordered_map<LoopId, LoopData> loops_ GUARDED_BY(mu_);
};

}  // namespace tornado

#endif  // TORNADO_STORAGE_VERSIONED_STORE_H_
