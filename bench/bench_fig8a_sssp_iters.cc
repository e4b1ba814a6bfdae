// Figure 8a: per-iteration running time of SSSP branch loops under delay
// bounds 1, 256 and 65536.
//
// Expected shape (paper): the synchronous loop (B=1) needs the fewest
// iterations but each takes long (it waits for the global barrier /
// termination round); the asynchronous loops run far more, much shorter
// iterations.

#include <cinttypes>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "stream/graph_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint64_t kTuples = 30000;

struct IterationSeries {
  std::vector<double> per_iteration_ms;  // time between terminations
  double total = 0.0;
};

IterationSeries RunBound(uint64_t bound) {
  JobConfig config = SsspJob(bound, /*batch_mode=*/true);
  TornadoCluster cluster(config,
                         std::make_unique<GraphStream>(BenchGraph(kTuples)));
  cluster.Start();
  IterationSeries series;
  if (!cluster.RunUntilEmitted(kTuples / 2, 3000.0)) return series;
  cluster.ingester().Pause();
  cluster.RunFor(0.5);

  const uint64_t query = cluster.ingester().SubmitQuery();
  if (!cluster.RunUntilQueryDone(query, 3000.0)) return series;
  series.total = cluster.QueryLatency(query);

  const LoopId branch = cluster.BranchOf(query);
  const auto& stats = cluster.master().StatsOf(branch);
  const double fork = cluster.master().queries().front().fork_time;
  double previous = fork;
  for (const IterationStat& stat : stats) {
    series.per_iteration_ms.push_back((stat.terminated_at - previous) * 1e3);
    previous = stat.terminated_at;
  }
  return series;
}

void Run() {
  PrintHeader("Per-iteration running time of SSSP branch loops",
              "Figure 8a");

  for (uint64_t bound : {1u, 256u, 65536u}) {
    IterationSeries series = RunBound(bound);
    std::printf("delay bound %" PRIu64 ": %zu iterations, total %.3f s\n",
                bound, series.per_iteration_ms.size(), series.total);
    Table table({"iteration", "running time (ms)"});
    const size_t n = series.per_iteration_ms.size();
    // Log-spaced samples, mirroring the paper's log-scale x axis.
    size_t idx = 0;
    size_t step = 1;
    while (idx < n) {
      table.AddRow({Table::Int(idx + 1),
                    Table::Num(series.per_iteration_ms[idx], 2)});
      idx += step;
      if (idx >= 10) step = std::max<size_t>(step, n / 16 + 1);
    }
    table.Print();
    std::printf("\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace tornado

int main() {
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::bench::Run();
  return 0;
}
