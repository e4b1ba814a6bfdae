#ifndef TORNADO_ENGINE_CONSISTENCY_POLICY_H_
#define TORNADO_ENGINE_CONSISTENCY_POLICY_H_

#include <cstdint>
#include <memory>

#include "common/types.h"
#include "core/config.h"

namespace tornado {

/// Strategy deciding how far asynchrony may run ahead of the last
/// terminated iteration τ — the *policy* half of the bounded asynchronous
/// iteration model (Section 4.4), separated from the protocol *mechanism*
/// so one engine serves synchronous, bounded, and fully asynchronous
/// execution. Implementations are stateless and shared freely.
class ConsistencyPolicy {
 public:
  virtual ~ConsistencyPolicy() = default;

  /// Highest iteration a commit may land at while `tau` is the first
  /// not-yet-terminated iteration (the paper's τ + B − 1). Commits whose
  /// minimum iteration exceeds this stall until τ advances; commits
  /// exactly at it skip the prepare round (no consumer can report later).
  virtual Iteration CommitHorizon(Iteration tau) const = 0;

  /// Whether an arriving update tagged `iteration` must be buffered until
  /// τ advances instead of being gathered now (Section 4.4's rule:
  /// updates of iteration τ + B − 1 wait for iteration τ to terminate).
  virtual bool ShouldBlock(Iteration iteration, Iteration tau) const {
    return iteration >= CommitHorizon(tau);
  }

  /// Where converged branch results merge back into the parent loop
  /// (τ + B, Section 5.2): beyond the horizon, so in-window producers
  /// keep committing in-window and the per-vertex merge floor discards
  /// their in-transit updates.
  virtual Iteration MergeIteration(Iteration tau) const = 0;
};

/// Δ = B: the paper's default. Commits are confined to [τ, τ+B−1].
/// Δ = 1 (`ConsistencyMode::kSynchronous`) is lock-step BSP: every commit
/// clamps to τ and skips the prepare round (Table 2's synchronous row —
/// zero PREPARE messages), and every arriving update buffers until its
/// iteration terminates.
class BoundedAsyncPolicy final : public ConsistencyPolicy {
 public:
  explicit BoundedAsyncPolicy(uint64_t delta) : delta_(delta == 0 ? 1 : delta) {}

  Iteration CommitHorizon(Iteration tau) const override {
    return tau + delta_ - 1;
  }
  Iteration MergeIteration(Iteration tau) const override {
    return tau + delta_;
  }
  uint64_t delta() const { return delta_; }

 private:
  uint64_t delta_;
};

/// Δ = ∞: no window. Updates are never buffered, vertices never stall,
/// and commits never hit the horizon (so every multi-consumer commit runs
/// a full prepare round).
class FullyAsyncPolicy final : public ConsistencyPolicy {
 public:
  /// With no window there is no τ + B to merge at; merges land this far
  /// past τ — beyond any iteration in-flight work plausibly reaches.
  static constexpr uint64_t kMergeSlack = 1ULL << 20;

  Iteration CommitHorizon(Iteration) const override {
    return kNoIteration - 1;
  }
  bool ShouldBlock(Iteration, Iteration) const override { return false; }
  Iteration MergeIteration(Iteration tau) const override {
    return tau + kMergeSlack;
  }
};

/// Builds the policy a job's configuration selects.
std::unique_ptr<ConsistencyPolicy> MakeConsistencyPolicy(
    const JobConfig& config);

}  // namespace tornado

#endif  // TORNADO_ENGINE_CONSISTENCY_POLICY_H_
