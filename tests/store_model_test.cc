// Model-based property test of the versioned store: a long random
// operation sequence is mirrored into a trivially-correct reference model
// (map of maps) and both must agree on every read, including after flush,
// truncate, prune, fork and merge.

#include <gtest/gtest.h>

#include <map>
#include <unordered_map>

#include "common/rng.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

class StoreModel {
 public:
  void Put(LoopId loop, VertexId vertex, Iteration iter,
           std::vector<uint8_t> value) {
    data_[loop][vertex][iter] = std::move(value);
  }

  const std::vector<uint8_t>* Get(LoopId loop, VertexId vertex,
                                  Iteration at) const {
    auto l = data_.find(loop);
    if (l == data_.end()) return nullptr;
    auto v = l->second.find(vertex);
    if (v == l->second.end() || v->second.empty()) return nullptr;
    auto it = v->second.upper_bound(at);
    if (it == v->second.begin()) return nullptr;
    return &std::prev(it)->second;
  }

  void TruncateAfter(LoopId loop, Iteration iter) {
    auto l = data_.find(loop);
    if (l == data_.end()) return;
    for (auto& [vertex, chain] : l->second) {
      chain.erase(chain.upper_bound(iter), chain.end());
    }
  }

  void PruneBelow(LoopId loop, Iteration iter) {
    auto l = data_.find(loop);
    if (l == data_.end()) return;
    for (auto& [vertex, chain] : l->second) {
      auto keep = chain.upper_bound(iter);
      if (keep == chain.begin()) continue;
      --keep;
      chain.erase(chain.begin(), keep);
    }
  }

  void Fork(LoopId src, Iteration iter, LoopId dst) {
    auto l = data_.find(src);
    if (l == data_.end()) return;
    for (const auto& [vertex, chain] : l->second) {
      auto it = chain.upper_bound(iter);
      if (it == chain.begin()) continue;
      data_[dst][vertex][0] = std::prev(it)->second;
    }
  }

  void Merge(LoopId src, LoopId dst, Iteration at) {
    auto l = data_.find(src);
    if (l == data_.end()) return;
    for (const auto& [vertex, chain] : l->second) {
      if (chain.empty()) continue;
      data_[dst][vertex][at] = chain.rbegin()->second;
    }
  }

  std::unordered_map<LoopId,
                     std::unordered_map<VertexId,
                                        std::map<Iteration,
                                                 std::vector<uint8_t>>>>
      data_;
};

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreModelTest, RandomOpsAgreeWithModel) {
  Rng rng(GetParam() * 2654435761ULL);
  VersionedStore store;
  StoreModel model;

  constexpr int kOps = 4000;
  constexpr int kLoops = 3;
  constexpr int kVertices = 24;
  Iteration max_iter[kLoops] = {0, 0, 0};

  for (int op = 0; op < kOps; ++op) {
    const auto loop = static_cast<LoopId>(rng.NextUint64(kLoops));
    const auto vertex = static_cast<VertexId>(rng.NextUint64(kVertices));
    switch (rng.NextUint64(100)) {
      default: {  // mostly puts with non-decreasing iterations per loop
        const Iteration iter =
            max_iter[loop] + rng.NextUint64(3);
        max_iter[loop] = std::max(max_iter[loop], iter);
        std::vector<uint8_t> value = {
            static_cast<uint8_t>(rng.NextUint64(256)),
            static_cast<uint8_t>(op & 0xFF)};
        store.Put(loop, vertex, iter, value);
        model.Put(loop, vertex, iter, value);
        break;
      }
      case 90:
      case 91: {
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        store.TruncateAfter(loop, at);
        model.TruncateAfter(loop, at);
        break;
      }
      case 92:
      case 93: {
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        store.PruneBelow(loop, at);
        model.PruneBelow(loop, at);
        break;
      }
      case 94: {
        const auto dst = static_cast<LoopId>((loop + 1) % kLoops);
        const Iteration at = rng.NextUint64(max_iter[loop] + 2);
        store.DropLoop(dst);
        model.data_.erase(dst);
        store.ForkLoop(loop, at, dst);
        model.Fork(loop, at, dst);
        max_iter[dst] = 0;
        break;
      }
      case 95: {
        const auto dst = static_cast<LoopId>((loop + 1) % kLoops);
        const Iteration at = max_iter[dst] + 1 + rng.NextUint64(4);
        max_iter[dst] = at;
        store.MergeLoop(loop, dst, at);
        model.Merge(loop, dst, at);
        break;
      }
      case 96: {
        store.Flush(loop, rng.NextUint64(max_iter[loop] + 2));
        break;  // durability watermark must not affect reads
      }
    }

    // Spot-check reads after every mutation.
    for (int check = 0; check < 4; ++check) {
      const auto l = static_cast<LoopId>(rng.NextUint64(kLoops));
      const auto v = static_cast<VertexId>(rng.NextUint64(kVertices));
      const Iteration at = rng.NextUint64(max_iter[l] + 3);
      const VersionView got = store.Get(l, v, at);
      const auto* want = model.Get(l, v, at);
      ASSERT_EQ(!got, want == nullptr)
          << "op " << op << " loop " << l << " vertex " << v << " at " << at;
      if (want != nullptr) {
        ASSERT_EQ(got.ToVector(), *want)
            << "op " << op << " loop " << l << " vertex " << v << " at "
            << at;
      }
    }
  }
}

// The store counts dirty versions per iteration instead of walking its
// chains on a flush; the counts must equal a walk of the model's chains
// above the durable watermark, through overwrites, puts below the
// watermark, truncation, pruning and recovery.
TEST_P(StoreModelTest, FlushCountsEqualAChainWalk) {
  Rng rng(GetParam() * 40503ULL);
  VersionedStore store;
  StoreModel model;
  constexpr LoopId kLoop = 0;
  constexpr int kVertices = 16;
  Iteration max_iter = 0;
  Iteration durable = kNoIteration;
  // Model versions above the watermark and at or below `upto`.
  const auto walk = [&](Iteration upto) {
    size_t n = 0;
    auto l = model.data_.find(kLoop);
    if (l == model.data_.end()) return n;
    for (const auto& [vertex, chain] : l->second) {
      for (const auto& [iter, value] : chain) {
        if ((durable == kNoIteration || iter > durable) && iter <= upto) ++n;
      }
    }
    return n;
  };

  for (int op = 0; op < 3000; ++op) {
    const Iteration at = rng.NextUint64(max_iter + 2);
    switch (rng.NextUint64(20)) {
      default: {
        const auto vertex = static_cast<VertexId>(rng.NextUint64(kVertices));
        const Iteration iter = max_iter + rng.NextUint64(3);
        max_iter = std::max(max_iter, iter);
        const std::vector<uint8_t> value = {static_cast<uint8_t>(op)};
        store.Put(kLoop, vertex, iter, value);
        model.Put(kLoop, vertex, iter, value);
        break;
      }
      case 0:
      case 1:
      case 2: {
        const size_t want =
            durable != kNoIteration && at <= durable ? 0 : walk(at);
        ASSERT_EQ(store.Flush(kLoop, at), want) << "op " << op;
        if (durable == kNoIteration || at > durable) durable = at;
        break;
      }
      case 3:
        store.TruncateAfter(kLoop, at);
        model.TruncateAfter(kLoop, at);
        if (durable != kNoIteration && durable > at) durable = at;
        break;
      case 4:
        store.PruneBelow(kLoop, at);
        model.PruneBelow(kLoop, at);
        break;
      case 5:
        store.RecoverToDurable(kLoop);
        if (durable == kNoIteration) {
          model.data_.erase(kLoop);
        } else {
          model.TruncateAfter(kLoop, durable);
        }
        break;
    }
    ASSERT_EQ(store.DirtyVersions(kLoop), walk(kNoIteration - 1))
        << "op " << op;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace tornado
