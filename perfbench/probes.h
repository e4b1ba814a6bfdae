// Outside-in instrumentation for the repository benchmark. Every probe
// here attaches through a public seam the library already has, so the
// library itself carries no benchmark code:
//   - TimedProgram wraps the job's BatchVertexProgram (JobConfig::program)
//     and times each callback;
//   - RecoveryProbe is an EngineObserver + TransportObserver pair that
//     measures the zero-commit span after a node is killed;
//   - SpanLog records the benchmark's own spans (stream, phase, query,
//     drive slice) in memory and writes them out when the run ends.

#ifndef TORNADO_PERFBENCH_PROBES_H_
#define TORNADO_PERFBENCH_PROBES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "core/vertex_program.h"
#include "engine/observer.h"
#include "runtime/substrate.h"

namespace tornado {
namespace perfbench {

/// Host seconds on the steady clock.
double WallNow();
/// CPU seconds of the whole process (all threads).
double CpuNow();
/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// Per-callback time and call counts of the wrapped program, summed over
/// every thread that ran callbacks.
struct ProgramTotals {
  double gather_s = 0.0;   // OnInput + OnUpdate + OnUpdateBatch
  double scatter_s = 0.0;  // Scatter
  double state_s = 0.0;    // CreateState + DeserializeState + OnRestore
  uint64_t gather_calls = 0;
  uint64_t batch_calls = 0;  // the OnUpdateBatch share of gather_calls
  uint64_t batch_items = 0;  // updates gathered through OnUpdateBatch
  uint64_t scatter_calls = 0;

  double callbacks_s() const { return gather_s + scatter_s + state_s; }
};

/// A BatchVertexProgram that forwards every virtual to `inner` and times
/// the callbacks. It must not change the run: costs, fork activation and
/// restore hooks pass through untouched, so a traced run reproduces the
/// untraced run's virtual clock exactly (the benchmark asserts this).
///
/// Callbacks may run on several threads (par_sim shards); each thread
/// accumulates into its own slot, so the hot path takes no lock.
class TimedProgram final : public BatchVertexProgram {
 public:
  explicit TimedProgram(std::shared_ptr<const VertexProgram> inner);
  ~TimedProgram() override;

  TimedProgram(const TimedProgram&) = delete;
  TimedProgram& operator=(const TimedProgram&) = delete;

  std::unique_ptr<VertexState> CreateState(VertexId id) const override;
  std::unique_ptr<VertexState> DeserializeState(
      BufferReader* reader) const override;
  bool OnInput(VertexContext& ctx, const Delta& delta) const override;
  bool OnUpdate(VertexContext& ctx, VertexId source, Iteration iteration,
                const VertexUpdate& update) const override;
  bool OnUpdateBatch(VertexContext& ctx, const QueuedUpdate* items, size_t n,
                     double per_item_cost) const override;
  void Scatter(VertexContext& ctx) const override;
  void OnRestore(VertexState* state) const override;
  bool ActivateOnFork(const VertexState& state) const override;
  double GatherCost() const override;
  double ScatterCost() const override;

  /// Sum over all threads. Call once the run has quiesced.
  ProgramTotals Totals() const;
  /// The calling thread's running totals (the driver thread on `sim`,
  /// where every callback runs inside the driver's slices).
  const ProgramTotals& ThreadTotals() const { return Local(); }

 private:
  ProgramTotals& Local() const;

  std::shared_ptr<const VertexProgram> inner_;
  const BatchVertexProgram* batch_;
  uint64_t generation_;  // tells thread-local slot caches apart
  mutable Mutex mu_;
  mutable std::vector<std::unique_ptr<ProgramTotals>> slots_ GUARDED_BY(mu_);
};

/// Measures core.recovery_vs: the longest span of virtual time after a
/// node kill during which no vertex committed anywhere in the cluster.
class RecoveryProbe final : public EngineObserver, public TransportObserver {
 public:
  explicit RecoveryProbe(const Clock* clock) : clock_(clock) {}

  void OnNodeKilled(NodeId node) override;
  void OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                Iteration iteration, Iteration tau,
                Iteration horizon) override;

  /// Longest commit-free gap after the first kill, closing any open gap
  /// at `end` (virtual seconds). 0 when no node was killed.
  double RecoverySeconds(double end) const;

 private:
  const Clock* clock_;
  double killed_at_ = -1.0;
  double last_commit_ = -1.0;
  double longest_gap_ = 0.0;
};

/// In-memory span log. A span has a name, a host start and end (seconds
/// since the log was created), a parent (-1 for a root) and the id of the
/// query it serves (0 for none). Drive slices also record the program
/// callback time that ran inside them, so a slice's self time is its
/// duration minus `child_s`.
class SpanLog {
 public:
  SpanLog();

  /// Opens a span and returns its index.
  int Begin(const std::string& name, int parent, uint64_t query = 0);
  void End(int span, double child_s = 0.0);

  size_t size() const { return spans_.size(); }

  /// Writes {"spans": [...]} as JSON. Returns false on an I/O error.
  bool Write(const std::string& path, const std::string& header_json) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    double child_s = 0.0;
    int parent = -1;
    uint64_t query = 0;
  };
  double origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
}  // namespace tornado

#endif  // TORNADO_PERFBENCH_PROBES_H_
