#include "storage/versioned_store.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <utility>

#include "common/logging.h"

namespace tornado {

namespace {

bool CoveredBy(Iteration iter, Iteration watermark) {
  return watermark != kNoIteration && iter <= watermark;
}

}  // namespace

VersionedStore::Arena::Slot VersionedStore::Arena::Append(
    const uint8_t* data, size_t size) {
  if (size == 0) return {};
  uint32_t block;
  if (size > kMaxBlockBytes) {
    // Oversized version: a block of its own, which never becomes current.
    block = NewBlock(size);
  } else {
    if (current_ == kNoBlock ||
        blocks_[current_].capacity - blocks_[current_].used < size) {
      size_t capacity = next_capacity_;
      while (capacity < size) capacity *= 2;
      next_capacity_ = std::min(capacity * 2, kMaxBlockBytes);
      current_ = NewBlock(capacity);
    }
    block = current_;
  }
  Block& b = blocks_[block];
  uint8_t* dst = b.bytes.get() + b.used;
  std::memcpy(dst, data, size);
  b.used += size;
  b.live += size;
  used_ += size;
  live_ += size;
  return {dst, block};
}

uint32_t VersionedStore::Arena::NewBlock(size_t capacity) {
  uint32_t block;
  if (free_slots_.empty()) {
    block = static_cast<uint32_t>(blocks_.size());
    blocks_.emplace_back();
  } else {
    block = free_slots_.back();
    free_slots_.pop_back();
  }
  Block& b = blocks_[block];
  b.bytes = std::make_unique_for_overwrite<uint8_t[]>(capacity);
  b.capacity = capacity;
  return block;
}

void VersionedStore::Arena::Release(uint32_t block, size_t size) {
  if (size == 0) return;
  Block& b = blocks_[block];
  TCHECK_GE(b.live, size);
  b.live -= size;
  live_ -= size;
  if (b.live > 0) return;
  // The block holds garbage only: rewind the current block, free any other.
  used_ -= b.used;
  b.used = 0;
  if (block == current_) return;
  b = Block{};
  free_slots_.push_back(block);
}

void VersionedStore::PutBytesLocked(LoopId loop, VertexId vertex,
                                    Iteration iteration, const uint8_t* data,
                                    size_t size) {
  LoopData& loop_data = loops_[loop];
  Chain& chain = loop_data.chains[vertex];

  const Arena::Slot slot = loop_data.arena.Append(data, size);
  VersionEntry entry;
  entry.iteration = iteration;
  entry.data = slot.data;
  entry.length = static_cast<uint32_t>(size);
  entry.block = slot.block;

  auto& entries = chain.entries;
  if (entries.empty() || entries.back().iteration < iteration) {
    // Hot path: commits arrive in increasing iteration order.
    entries.push_back(entry);
  } else {
    auto it = std::lower_bound(
        entries.begin(), entries.end(), iteration,
        [](const VersionEntry& e, Iteration at) { return e.iteration < at; });
    if (it != entries.end() && it->iteration == iteration) {
      // Overwrite: the new bytes are already in the arena; the old ones
      // become garbage. The argument bytes were consumed before any
      // bookkeeping, so overwrites can never store a moved-from value.
      ReleaseEntry(loop_data, *it);
      *it = entry;
      MaybeCompact(loop_data);
      return;
    }
    entries.insert(it, entry);
  }
  if (!CoveredBy(iteration, loop_data.durable)) ++loop_data.dirty[iteration];
}

const VersionedStore::Chain* VersionedStore::FindChain(LoopId loop,
                                                       VertexId vertex) const {
  auto loop_it = loops_.find(loop);
  if (loop_it == loops_.end()) return nullptr;
  auto chain_it = loop_it->second.chains.find(vertex);
  if (chain_it == loop_it->second.chains.end()) return nullptr;
  return &chain_it->second;
}

void VersionedStore::MaybeCompact(LoopData& data) {
  const size_t live = data.arena.live();
  const size_t garbage = data.arena.used() - live;
  if (garbage < 4096 || garbage <= live) return;
  // Rewrite every live payload into a fresh arena. Chain iteration order
  // is untouched; only byte addresses move, which nothing observable
  // depends on.
  Arena compacted;
  for (auto& [vertex, chain] : data.chains) {
    for (VersionEntry& entry : chain.entries) {
      const Arena::Slot slot = compacted.Append(entry.data, entry.length);
      entry.data = slot.data;
      entry.block = slot.block;
    }
  }
  TCHECK_EQ(compacted.used(), live);
  data.arena = std::move(compacted);
  ++data.compactions;
}

VersionView VersionedStore::GetLocked(LoopId loop, VertexId vertex,
                                      Iteration at) const {
  auto loop_it = loops_.find(loop);
  if (loop_it == loops_.end()) return {};
  auto chain_it = loop_it->second.chains.find(vertex);
  if (chain_it == loop_it->second.chains.end()) return {};
  const auto& entries = chain_it->second.entries;
  auto it = std::upper_bound(
      entries.begin(), entries.end(), at,
      [](Iteration at_, const VersionEntry& e) { return at_ < e.iteration; });
  if (it == entries.begin()) return {};
  return ViewOf(*std::prev(it));
}

Iteration VersionedStore::GetVersionIterationLocked(LoopId loop,
                                                    VertexId vertex,
                                                    Iteration at) const {
  const Chain* chain = FindChain(loop, vertex);
  if (chain == nullptr || chain->entries.empty()) return kNoIteration;
  const auto& entries = chain->entries;
  auto it = std::upper_bound(
      entries.begin(), entries.end(), at,
      [](Iteration at_, const VersionEntry& e) { return at_ < e.iteration; });
  if (it == entries.begin()) return kNoIteration;
  return std::prev(it)->iteration;
}

VersionView VersionedStore::GetLatestLocked(LoopId loop,
                                            VertexId vertex) const {
  auto loop_it = loops_.find(loop);
  if (loop_it == loops_.end()) return {};
  auto chain_it = loop_it->second.chains.find(vertex);
  if (chain_it == loop_it->second.chains.end()) return {};
  const auto& entries = chain_it->second.entries;
  if (entries.empty()) return {};
  return ViewOf(entries.back());
}

std::vector<VertexId> VersionedStore::VerticesOfLocked(LoopId loop) const {
  std::vector<VertexId> out;
  auto it = loops_.find(loop);
  if (it == loops_.end()) return out;
  out.reserve(it->second.chains.size());
  for (const auto& [vertex, chain] : it->second.chains) {
    if (!chain.entries.empty()) out.push_back(vertex);
  }
  // Sorted listing: callers (fork/restart loading) drive prepare rounds in
  // this order, so it must not depend on hash-table layout.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<VertexId> VersionedStore::VerticesWithVersionAtLocked(
    LoopId loop, Iteration iteration) const {
  std::vector<VertexId> out;
  auto it = loops_.find(loop);
  if (it == loops_.end()) return out;
  for (const auto& [vertex, chain] : it->second.chains) {
    const auto& entries = chain.entries;
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), iteration,
        [](const VersionEntry& e, Iteration at) { return e.iteration < at; });
    if (pos != entries.end() && pos->iteration == iteration) {
      out.push_back(vertex);
    }
  }
  std::sort(out.begin(), out.end());  // deterministic adoption order
  return out;
}

size_t VersionedStore::VersionCountLocked(LoopId loop, VertexId vertex) const {
  const Chain* chain = FindChain(loop, vertex);
  return chain == nullptr ? 0 : chain->entries.size();
}

size_t VersionedStore::FlushLocked(LoopId loop, Iteration iteration) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  LoopData& data = it->second;
  if (CoveredBy(iteration, data.durable)) return 0;

  // Every counted iteration is past the old watermark, so all counted
  // versions at or below the new one become durable now.
  size_t flushed = 0;
  const auto end = data.dirty.upper_bound(iteration);
  for (auto d = data.dirty.begin(); d != end; ++d) flushed += d->second;
  data.dirty.erase(data.dirty.begin(), end);
  data.durable = iteration;
  return flushed;
}

size_t VersionedStore::DirtyVersionsLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  size_t n = 0;
  for (const auto& [iteration, count] : it->second.dirty) n += count;
  return n;
}

void VersionedStore::UncountDirty(LoopData& data, Iteration iteration) {
  if (CoveredBy(iteration, data.durable)) return;
  auto it = data.dirty.find(iteration);
  TCHECK(it != data.dirty.end() && it->second > 0)
      << "dirty count lost a version at iteration " << iteration;
  if (--it->second == 0) data.dirty.erase(it);
}

Iteration VersionedStore::DurableIterationLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? kNoIteration : it->second.durable;
}

void VersionedStore::TruncateAfterLocked(LoopId loop, Iteration iteration) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  LoopData& data = it->second;
  for (auto& [vertex, chain] : data.chains) {
    auto& entries = chain.entries;
    auto first_gone = std::upper_bound(
        entries.begin(), entries.end(), iteration,
        [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
    for (auto v = first_gone; v != entries.end(); ++v) {
      UncountDirty(data, v->iteration);
      ReleaseEntry(data, *v);
    }
    entries.erase(first_gone, entries.end());
  }
  if (data.durable != kNoIteration && data.durable > iteration) {
    data.durable = iteration;
  }
  MaybeCompact(data);
}

size_t VersionedStore::PruneBelowLocked(LoopId loop, Iteration iteration) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return 0;
  LoopData& data = it->second;
  size_t removed = 0;
  for (auto& [vertex, chain] : data.chains) {
    auto& entries = chain.entries;
    auto keep = std::upper_bound(
        entries.begin(), entries.end(), iteration,
        [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
    if (keep == entries.begin()) continue;
    --keep;  // newest version <= iteration stays: it is the snapshot base
    for (auto v = entries.begin(); v != keep; ++v) {
      UncountDirty(data, v->iteration);
      ReleaseEntry(data, *v);
      ++removed;
    }
    entries.erase(entries.begin(), keep);
  }
  MaybeCompact(data);
  return removed;
}

void VersionedStore::RecoverToDurableLocked(LoopId loop) {
  auto it = loops_.find(loop);
  if (it == loops_.end()) return;
  const Iteration watermark = it->second.durable;
  if (watermark == kNoIteration) {
    loops_.erase(it);
    return;
  }
  TruncateAfterLocked(loop, watermark);
}

void VersionedStore::DropLoopLocked(LoopId loop) { loops_.erase(loop); }

size_t VersionedStore::ForkLoopLocked(LoopId src, Iteration iteration,
                                      LoopId dst) {
  auto src_it = loops_.find(src);
  if (src_it == loops_.end()) return 0;
  TCHECK_NE(src, dst);
  // Snapshot (vertex, arena pointer) pairs first: creating dst below may
  // rehash loops_, but arena blocks never move, so the collected views
  // stay valid. Puts target dst's arena only (src != dst).
  std::vector<std::pair<VertexId, VersionView>> snapshot;
  snapshot.reserve(src_it->second.chains.size());
  for (const auto& [vertex, chain] : src_it->second.chains) {
    const auto& entries = chain.entries;
    auto v = std::upper_bound(
        entries.begin(), entries.end(), iteration,
        [](Iteration at, const VersionEntry& e) { return at < e.iteration; });
    if (v == entries.begin()) continue;
    snapshot.emplace_back(vertex, ViewOf(*std::prev(v)));
  }
  for (const auto& [vertex, view] : snapshot) {
    PutBytesLocked(dst, vertex, 0, view.data(), view.size());
  }
  return snapshot.size();
}

size_t VersionedStore::MergeLoopLocked(LoopId src, LoopId dst,
                                       Iteration dst_iteration) {
  auto src_it = loops_.find(src);
  if (src_it == loops_.end()) return 0;
  TCHECK_NE(src, dst);
  std::vector<std::pair<VertexId, VersionView>> latest;
  latest.reserve(src_it->second.chains.size());
  for (const auto& [vertex, chain] : src_it->second.chains) {
    if (chain.entries.empty()) continue;
    latest.emplace_back(vertex, ViewOf(chain.entries.back()));
  }
  for (const auto& [vertex, view] : latest) {
    PutBytesLocked(dst, vertex, dst_iteration, view.data(), view.size());
  }
  return latest.size();
}

size_t VersionedStore::TotalVersionsLocked() const {
  size_t n = 0;
  for (const auto& [loop, data] : loops_) {
    for (const auto& [vertex, chain] : data.chains) n += chain.entries.size();
  }
  return n;
}

size_t VersionedStore::TotalBytesLocked() const {
  size_t n = 0;
  for (const auto& [loop, data] : loops_) n += data.arena.live();
  return n;
}

size_t VersionedStore::ArenaBytesLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? 0 : it->second.arena.used();
}

uint64_t VersionedStore::ArenaCompactionsLocked(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? 0 : it->second.compactions;
}

}  // namespace tornado
