// Table 2 and Figure 8a: SSSP branch loops under delay bounds 1
// (synchronous), 256 and 65536 (effectively unbounded asynchrony). Each
// bound runs once; Table 2 summarizes the run (running time, iterations,
// committed updates, PREPARE messages) and Figure 8a prints its
// per-iteration running time.
//
// Expected shape (paper): B=1 uses zero PREPAREs and by far the fewest
// iterations, but each takes long (it waits for the global barrier /
// termination round); larger bounds run far more, much shorter iterations
// and send more messages, with #prepares == #updates at the largest bound
// (the execution no longer depends on termination notifications at all).
//
// The drive lives in scenarios/sssp_branch_bounds.json: the batch-mode
// main loop only collects edges, so the branch loop forked at half the
// stream starts from the default initial guess and performs the entire
// computation (Section 6.3.1). This bench sweeps the bound in memory.

#include <algorithm>
#include <cinttypes>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "scenario/runner.h"

namespace tornado {
namespace bench {
namespace {

struct BranchRun {
  double time = -1.0;
  uint64_t iterations = 0;
  uint64_t updates = 0;
  uint64_t prepares = 0;
  std::vector<double> per_iteration_ms;  // time between terminations
};

BranchRun RunBound(const scenario::Scenario& base, uint64_t bound) {
  scenario::Scenario s = base;
  s.consistency.delay_bound = bound;
  scenario::ScenarioRunner runner(std::move(s));
  BranchRun run;
  if (!runner.Run().fixed_point_reached) return run;

  TornadoCluster& cluster = *runner.cluster();
  const QueryRecord& query = cluster.master().queries().front();
  const LoopId branch = cluster.BranchOf(query.query_id);
  run.time = cluster.QueryLatency(query.query_id);
  run.iterations = query.converged_iteration + 1;
  run.updates = cluster.master().TotalCommitted(branch);
  run.prepares = cluster.master().TotalPrepares(branch);
  double previous = query.fork_time;
  for (const IterationStat& stat : cluster.master().StatsOf(branch)) {
    run.per_iteration_ms.push_back((stat.terminated_at - previous) * 1e3);
    previous = stat.terminated_at;
  }
  return run;
}

void Run() {
  const scenario::Scenario base =
      LoadBenchScenario(TORNADO_SCENARIO_DIR "/sssp_branch_bounds.json");
  const uint64_t kBounds[] = {1, 256, 65536};
  std::vector<BranchRun> runs;
  for (uint64_t bound : kBounds) runs.push_back(RunBound(base, bound));

  PrintHeader("SSSP branch loops under different delay bounds", "Table 2");
  Table table({"Bound", "Time (s)", "#Iterations", "#Updates", "#Prepares"});
  for (size_t b = 0; b < runs.size(); ++b) {
    const BranchRun& r = runs[b];
    table.AddRow({Table::Int(kBounds[b]), Table::Num(r.time, 3),
                  Table::Int(r.iterations), Table::Int(r.updates),
                  Table::Int(r.prepares)});
  }
  table.Print();

  PrintHeader("Per-iteration running time of SSSP branch loops",
              "Figure 8a");
  for (size_t b = 0; b < runs.size(); ++b) {
    const std::vector<double>& ms = runs[b].per_iteration_ms;
    std::printf("delay bound %" PRIu64 ": %zu iterations, total %.3f s\n",
                kBounds[b], ms.size(), std::max(runs[b].time, 0.0));
    Table series({"iteration", "running time (ms)"});
    // Log-spaced samples, mirroring the paper's log-scale x axis.
    size_t idx = 0;
    size_t step = 1;
    while (idx < ms.size()) {
      series.AddRow({Table::Int(idx + 1), Table::Num(ms[idx], 2)});
      idx += step;
      if (idx >= 10) step = std::max<size_t>(step, ms.size() / 16 + 1);
    }
    series.Print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace tornado

int main(int argc, char** argv) {
  tornado::bench::ParseBenchArgs(argc, argv);
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::bench::Run();
  return 0;
}
