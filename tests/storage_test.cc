// Unit tests for the versioned store and the on-disk checkpoint log.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "storage/checkpoint_log.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> v) { return v; }

TEST(VersionedStoreTest, SnapshotReadsLatestAtOrBelow) {
  VersionedStore store;
  store.Put(0, 7, 1, Bytes({1}));
  store.Put(0, 7, 5, Bytes({5}));
  store.Put(0, 7, 9, Bytes({9}));

  EXPECT_FALSE(store.Get(0, 7, 0));
  EXPECT_EQ(store.Get(0, 7, 1)[0], 1);
  EXPECT_EQ(store.Get(0, 7, 4)[0], 1);
  EXPECT_EQ(store.Get(0, 7, 5)[0], 5);
  EXPECT_EQ(store.Get(0, 7, 100)[0], 9);
  EXPECT_EQ(store.GetLatest(0, 7)[0], 9);
  EXPECT_EQ(store.GetVersionIteration(0, 7, 7), 5u);
  EXPECT_EQ(store.GetVersionIteration(0, 7, 0), kNoIteration);
}

TEST(VersionedStoreTest, OverwriteSameIteration) {
  VersionedStore store;
  store.Put(0, 1, 3, Bytes({1}));
  store.Put(0, 1, 3, Bytes({2}));
  EXPECT_EQ(store.VersionCount(0, 1), 1u);
  EXPECT_EQ(store.Get(0, 1, 3)[0], 2);
}

TEST(VersionedStoreTest, FlushTracksDurabilityAndDirtyCount) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1}));
  store.Put(0, 2, 2, Bytes({2}));
  store.Put(0, 3, 7, Bytes({7}));
  EXPECT_EQ(store.DirtyVersions(0), 3u);
  EXPECT_EQ(store.Flush(0, 2), 2u);
  EXPECT_EQ(store.DirtyVersions(0), 1u);
  EXPECT_EQ(store.DurableIteration(0), 2u);
  // Flushing below the watermark is a no-op.
  EXPECT_EQ(store.Flush(0, 1), 0u);
  EXPECT_EQ(store.Flush(0, 10), 1u);
  EXPECT_EQ(store.DirtyVersions(0), 0u);
}

TEST(VersionedStoreTest, TruncateAfterDropsNewerVersions) {
  VersionedStore store;
  for (Iteration i = 1; i <= 5; ++i) {
    store.Put(0, 1, i, Bytes({static_cast<uint8_t>(i)}));
  }
  store.TruncateAfter(0, 3);
  EXPECT_EQ(store.VersionCount(0, 1), 3u);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 3);
}

TEST(VersionedStoreTest, RecoverToDurableDropsUnflushed) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1}));
  store.Flush(0, 1);
  store.Put(0, 1, 2, Bytes({2}));
  store.RecoverToDurable(0);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 1);

  // A never-flushed loop disappears entirely.
  store.Put(9, 1, 1, Bytes({1}));
  store.RecoverToDurable(9);
  EXPECT_FALSE(store.GetLatest(9, 1));
}

TEST(VersionedStoreTest, PruneBelowKeepsSnapshotBase) {
  VersionedStore store;
  for (Iteration i = 1; i <= 6; ++i) {
    store.Put(0, 1, i, Bytes({static_cast<uint8_t>(i)}));
  }
  EXPECT_EQ(store.PruneBelow(0, 4), 3u);  // versions 1,2,3 dropped; 4 kept
  EXPECT_EQ(store.Get(0, 1, 4)[0], 4);
  EXPECT_FALSE(store.Get(0, 1, 3));
  EXPECT_EQ(store.GetLatest(0, 1)[0], 6);
}

TEST(VersionedStoreTest, ForkCopiesSnapshotIntoBranch) {
  VersionedStore store;
  store.Put(0, 1, 2, Bytes({2}));
  store.Put(0, 1, 8, Bytes({8}));
  store.Put(0, 2, 3, Bytes({3}));
  EXPECT_EQ(store.ForkLoop(0, 5, 1), 2u);
  EXPECT_EQ(store.Get(1, 1, 0)[0], 2);  // not the iteration-8 version
  EXPECT_EQ(store.Get(1, 2, 0)[0], 3);
}

TEST(VersionedStoreTest, MergeWritesLatestAtIteration) {
  VersionedStore store;
  store.Put(1, 1, 4, Bytes({44}));
  store.Put(0, 1, 2, Bytes({2}));
  EXPECT_EQ(store.MergeLoop(1, 0, 10), 1u);
  EXPECT_EQ(store.Get(0, 1, 10)[0], 44);
  EXPECT_EQ(store.Get(0, 1, 9)[0], 2);
}

TEST(VersionedStoreTest, VerticesWithVersionAt) {
  VersionedStore store;
  store.Put(0, 1, 5, Bytes({1}));
  store.Put(0, 2, 6, Bytes({2}));
  const auto at5 = store.VerticesWithVersionAt(0, 5);
  ASSERT_EQ(at5.size(), 1u);
  EXPECT_EQ(at5[0], 1u);
}

TEST(VersionedStoreTest, DropLoopRemovesEverything) {
  VersionedStore store;
  store.Put(3, 1, 1, Bytes({1}));
  store.DropLoop(3);
  EXPECT_TRUE(store.VerticesOf(3).empty());
}

TEST(VersionedStoreTest, AccountingTotals) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1, 2, 3}));
  store.Put(0, 2, 1, Bytes({4}));
  EXPECT_EQ(store.TotalVersions(), 2u);
  EXPECT_EQ(store.TotalBytes(), 4u);
}

TEST(VersionedStoreTest, OverwriteStoresTheNewBytes) {
  // Regression: the old map-based Put moved the value into an emplace probe
  // and could write a moved-from (empty) vector on the overwrite path,
  // depending on the stdlib's emplace key-extraction behavior. The arena
  // design consumes the argument bytes before any bookkeeping, so the
  // overwritten version must always carry the new payload.
  VersionedStore store;
  store.Put(0, 1, 3, Bytes({1, 2, 3, 4}));
  store.Put(0, 1, 3, Bytes({9, 8, 7}));
  const VersionView got = store.Get(0, 1, 3);
  ASSERT_TRUE(got);
  EXPECT_EQ(got.ToVector(), Bytes({9, 8, 7}));
  EXPECT_EQ(store.VersionCount(0, 1), 1u);
  EXPECT_EQ(store.TotalBytes(), 3u);  // the old 4 bytes are garbage now
}

TEST(VersionedStoreTest, PruneBelowBetweenVersionsKeepsNewestAtOrBelow) {
  // The fork point (iteration 7) falls between versions 5 and 9: exactly
  // the newest version <= 7 must survive as the snapshot base.
  VersionedStore store;
  store.Put(0, 1, 2, Bytes({2}));
  store.Put(0, 1, 5, Bytes({5}));
  store.Put(0, 1, 9, Bytes({9}));
  EXPECT_EQ(store.PruneBelow(0, 7), 1u);  // only version 2 drops
  EXPECT_FALSE(store.Get(0, 1, 4));
  EXPECT_EQ(store.Get(0, 1, 7)[0], 5);
  EXPECT_EQ(store.GetVersionIteration(0, 1, 7), 5u);
  EXPECT_EQ(store.VersionCount(0, 1), 2u);
}

TEST(VersionedStoreTest, TruncateAfterRestoresDirtyAcrossDurableWatermark) {
  VersionedStore store;
  store.Put(0, 1, 1, Bytes({1}));
  store.Put(0, 1, 2, Bytes({2}));
  store.Flush(0, 2);
  store.Put(0, 1, 3, Bytes({3}));
  store.Put(0, 1, 4, Bytes({4}));
  EXPECT_EQ(store.DirtyVersions(0), 2u);

  // Dropping one dirty version restores the pending-I/O count.
  store.TruncateAfter(0, 3);
  EXPECT_EQ(store.DirtyVersions(0), 1u);
  EXPECT_EQ(store.DurableIteration(0), 2u);

  // Truncating below the watermark drops the remaining dirty version and a
  // durable one: dirty hits zero (not negative) and the watermark follows
  // the truncation point down.
  store.TruncateAfter(0, 1);
  EXPECT_EQ(store.DirtyVersions(0), 0u);
  EXPECT_EQ(store.DurableIteration(0), 1u);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 1);

  // A re-put above the lowered watermark counts as dirty again.
  store.Put(0, 1, 2, Bytes({22}));
  EXPECT_EQ(store.DirtyVersions(0), 1u);
}

std::vector<uint8_t> Filled(size_t size, uint8_t value) {
  return std::vector<uint8_t>(size, value);
}

// 256-byte versions: the first 4 KiB block holds exactly 16 of them.
constexpr size_t kPayload = 256;
constexpr size_t kPerFirstBlock = VersionedStore::kFirstBlockBytes / kPayload;

TEST(VersionedStoreTest, ForkMergeRoundTripAfterPruneFreesBlocks) {
  VersionedStore store;
  // 50 versions x 256 bytes fill the 4 KiB block (versions 1-16), the
  // 8 KiB block (17-48) and start a 16 KiB block (49, 50), which vertex 2's
  // one byte joins.
  for (Iteration i = 1; i <= 50; ++i) {
    store.Put(0, 1, i, Filled(kPayload, static_cast<uint8_t>(i)));
  }
  store.Put(0, 2, 10, Bytes({42}));
  EXPECT_EQ(store.ArenaBytes(0), 50 * kPayload + 1);
  EXPECT_EQ(store.PruneBelow(0, 50), 49u);
  // The first two blocks held only pruned versions and are freed whole;
  // version 49 stays behind as garbage in the live third block. No bytes
  // were moved.
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.ArenaBytes(0), 2 * kPayload + 1);
  EXPECT_EQ(store.TotalBytes(), kPayload + 1);

  const VersionView kept = store.GetLatest(0, 1);
  ASSERT_TRUE(kept);
  EXPECT_EQ(kept.ToVector(), Filled(kPayload, 50));

  // Fork out of the pruned arena, then merge back into a third loop:
  // payload bytes must round-trip across both arena copies.
  EXPECT_EQ(store.ForkLoop(0, 50, 1), 2u);
  EXPECT_EQ(store.Get(1, 1, 0).ToVector(), Filled(kPayload, 50));
  EXPECT_EQ(store.Get(1, 2, 0)[0], 42);
  EXPECT_EQ(store.MergeLoop(1, 2, 7), 2u);
  EXPECT_EQ(store.Get(2, 1, 7).ToVector(), Filled(kPayload, 50));
  EXPECT_EQ(store.Get(2, 2, 7)[0], 42);
}

TEST(VersionedStoreTest, PruningANonCurrentBlockFreesItWithoutCompaction) {
  VersionedStore store;
  for (Iteration i = 1; i <= kPerFirstBlock + 1; ++i) {
    store.Put(0, 1, i, Filled(kPayload, static_cast<uint8_t>(i)));
  }
  // The last version opened the second block, which is now current.
  EXPECT_EQ(store.ArenaBytes(0), (kPerFirstBlock + 1) * kPayload);
  EXPECT_EQ(store.PruneBelow(0, kPerFirstBlock + 1), kPerFirstBlock);
  EXPECT_EQ(store.ArenaBytes(0), kPayload);
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.GetLatest(0, 1).ToVector(),
            Filled(kPayload, static_cast<uint8_t>(kPerFirstBlock + 1)));
}

TEST(VersionedStoreTest, VersionLargerThanMaxBlockGetsItsOwnBlock) {
  VersionedStore store;
  const size_t big = VersionedStore::kMaxBlockBytes + 100;
  std::vector<uint8_t> payload(big);
  for (size_t i = 0; i < big; ++i) payload[i] = static_cast<uint8_t>(i * 7);
  store.Put(0, 1, 1, Bytes({1}));
  store.Put(0, 2, 1, payload);
  store.Put(0, 3, 1, Bytes({3}));
  EXPECT_EQ(store.ArenaBytes(0), big + 2);

  const VersionView view = store.Get(0, 2, 1);
  ASSERT_TRUE(view);
  EXPECT_EQ(view.ToVector(), payload);  // contiguous despite > max block
  EXPECT_EQ(store.Get(0, 1, 1)[0], 1);
  EXPECT_EQ(store.Get(0, 3, 1)[0], 3);

  // Overwriting the big version frees its block outright.
  store.Put(0, 2, 1, Bytes({2}));
  EXPECT_EQ(store.ArenaBytes(0), 3u);
  EXPECT_EQ(store.TotalBytes(), 3u);
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.Get(0, 2, 1)[0], 2);
}

TEST(VersionedStoreTest, OverwritesAcrossABlockBoundaryFreeTheOldBlock) {
  VersionedStore store;
  for (Iteration i = 1; i <= kPerFirstBlock; ++i) {
    store.Put(0, 1, i, Filled(kPayload, static_cast<uint8_t>(i)));
  }
  EXPECT_EQ(store.ArenaBytes(0), VersionedStore::kFirstBlockBytes);
  // The first block is full: each rewrite lands in the second block and
  // strands its old bytes in the first, until the first holds no live
  // version and is freed.
  for (Iteration i = 1; i <= kPerFirstBlock; ++i) {
    store.Put(0, 1, i, Filled(kPayload, static_cast<uint8_t>(100 + i)));
    if (i < kPerFirstBlock) {
      EXPECT_EQ(store.ArenaBytes(0), (kPerFirstBlock + i) * kPayload);
    }
  }
  EXPECT_EQ(store.ArenaBytes(0), kPerFirstBlock * kPayload);
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.VersionCount(0, 1), kPerFirstBlock);
  for (Iteration i = 1; i <= kPerFirstBlock; ++i) {
    EXPECT_EQ(store.Get(0, 1, i).ToVector(),
              Filled(kPayload, static_cast<uint8_t>(100 + i)));
  }
}

TEST(VersionedStoreTest, TruncateAfterAcrossABlockBoundary) {
  VersionedStore store;
  // Vertex 1's versions 5..20 fill the first block; vertex 2's version 1
  // opens the second.
  for (Iteration i = 5; i < 5 + kPerFirstBlock; ++i) {
    store.Put(0, 1, i, Filled(kPayload, static_cast<uint8_t>(i)));
  }
  store.Put(0, 2, 1, Filled(kPayload, 2));
  store.Put(0, 2, 30, Filled(kPayload, 30));
  EXPECT_EQ(store.ArenaBytes(0), (kPerFirstBlock + 2) * kPayload);

  // Dropping the versions after 10 strands vertex 1's tail in the first
  // block and one version in the second; both blocks stay live.
  store.TruncateAfter(0, 10);
  EXPECT_EQ(store.VersionCount(0, 1), 6u);
  EXPECT_EQ(store.ArenaBytes(0), (kPerFirstBlock + 2) * kPayload);
  EXPECT_EQ(store.TotalBytes(), 7 * kPayload);

  // Dropping every version in the first block frees it whole.
  store.TruncateAfter(0, 4);
  EXPECT_EQ(store.VersionCount(0, 1), 0u);
  EXPECT_EQ(store.ArenaBytes(0), 2 * kPayload);
  EXPECT_EQ(store.TotalBytes(), kPayload);
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.Get(0, 2, 4).ToVector(), Filled(kPayload, 2));

  // With nothing live left the current block is rewound and reused.
  store.TruncateAfter(0, 0);
  EXPECT_EQ(store.ArenaBytes(0), 0u);
  store.Put(0, 3, 1, Bytes({7}));
  EXPECT_EQ(store.ArenaBytes(0), 1u);
  EXPECT_EQ(store.Get(0, 3, 1)[0], 7);
}

TEST(VersionedStoreTest, CompactionPacksGarbageStrandedInLiveBlocks) {
  VersionedStore store;
  // Every block gets some one-byte versions that stay live, so pruning
  // vertex 1's history frees no block: only compaction reclaims it.
  for (Iteration i = 1; i <= 64; ++i) {
    store.Put(0, 1, i, Filled(kPayload, static_cast<uint8_t>(i)));
    store.Put(0, 100 + i, 1, Bytes({static_cast<uint8_t>(i)}));
  }
  EXPECT_EQ(store.ArenaCompactions(0), 0u);
  EXPECT_EQ(store.PruneBelow(0, 64), 63u);
  EXPECT_EQ(store.ArenaCompactions(0), 1u);
  EXPECT_EQ(store.TotalBytes(), kPayload + 64);
  EXPECT_EQ(store.ArenaBytes(0), store.TotalBytes());

  // Reads after compaction see the surviving payloads at their new homes.
  EXPECT_EQ(store.GetLatest(0, 1).ToVector(), Filled(kPayload, 64));
  for (Iteration i = 1; i <= 64; ++i) {
    EXPECT_EQ(store.Get(0, 100 + i, 1)[0], i);
  }
}

TEST(VersionedStoreTest, ZeroLengthVersionsArePresentAndEmpty) {
  VersionedStore store;
  store.Put(0, 1, 1, {});
  store.Put(0, 1, 2, Bytes({5}));
  store.Put(0, 1, 2, {});
  const VersionView view = store.Get(0, 1, 2);
  ASSERT_TRUE(view);
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(store.Get(0, 1, 1));
  EXPECT_EQ(store.TotalBytes(), 0u);
  EXPECT_EQ(store.PruneBelow(0, 2), 1u);
  EXPECT_EQ(store.ArenaBytes(0), 0u);
}

// ---------------------------------------------------------------------------
// CheckpointLog
// ---------------------------------------------------------------------------

class CheckpointLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/tornado_ckpt_" +
            std::to_string(reinterpret_cast<uintptr_t>(this)) + ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CheckpointLogTest, AppendAndReplay) {
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(0, 1, 2, Bytes({9, 9})).ok());
    ASSERT_TRUE(log.Append(0, 1, 5, Bytes({5})).ok());
    ASSERT_TRUE(log.Append(1, 7, 1, Bytes({7})).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_, &store);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 3u);
  EXPECT_EQ(store.Get(0, 1, 2)[0], 9);
  EXPECT_EQ(store.GetLatest(0, 1)[0], 5);
  EXPECT_EQ(store.GetLatest(1, 7)[0], 7);
}

TEST_F(CheckpointLogTest, TornTailIsIgnored) {
  {
    CheckpointLog log;
    ASSERT_TRUE(log.Open(path_).ok());
    ASSERT_TRUE(log.Append(0, 1, 1, Bytes({1})).ok());
    ASSERT_TRUE(log.Append(0, 2, 1, Bytes({2})).ok());
    ASSERT_TRUE(log.Close().ok());
  }
  // Corrupt the tail: truncate the last 3 bytes (mid-CRC).
  std::FILE* f = std::fopen(path_.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  ASSERT_EQ(std::fclose(f), 0);
  ASSERT_EQ(truncate(path_.c_str(), size - 3), 0);

  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_, &store);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 1u);  // only the intact first record
  EXPECT_TRUE(store.GetLatest(0, 1));
  EXPECT_FALSE(store.GetLatest(0, 2));
}

TEST_F(CheckpointLogTest, ReplayMissingFileIsNotFound) {
  VersionedStore store;
  CheckpointLog reader;
  auto applied = reader.Replay(path_ + ".nope", &store);
  EXPECT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace tornado
