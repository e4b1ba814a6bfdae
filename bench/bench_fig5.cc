// Figure 5: 99th-percentile query latency of mini-batch incremental
// processing versus Tornado's main-loop approximation, for SSSP (5a) and
// PageRank (5b) over the evolving power-law edge stream and KMeans (5c)
// over the evolving point stream.
//
// Both series run the *same* engine and configuration (Section 6.2.1 runs
// the batch method as incremental computation on Tornado itself); they
// differ only in how the input arrives:
//   Batch,N      — tuples arrive in epochs of N; each query fires at the
//                  epoch boundary, so the branch loop starts from the fixed
//                  point of N tuples ago and must resolve the whole batch.
//   Approximate  — tuples arrive smoothly; the main loop's incremental
//                  relaxation absorbs them continuously and queries only
//                  resolve the last iteration's un-reflected inputs.
//
// Expected shape (paper): for SSSP, batch latency degrades roughly linearly
// with the batch size, then flattens at a coordination floor, and the
// approximate method beats the best batch setting severalfold. PageRank's
// batch latencies fall quickly at first but stabilize (each incremental
// recomputation still sweeps the whole graph), and the approximate method
// achieves the lowest latency. KMeans differs: every branch loop
// re-evaluates all points against the centroids regardless of how good the
// initial guess is, so the approximate method's latency roughly equals the
// smallest batch's — KMeans does not profit from the approximation.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "stream/graph_stream.h"
#include "stream/point_stream.h"

namespace tornado {
namespace bench {
namespace {

/// What differs between the three panels. Each warms up on the first 30%
/// of its stream with delay bound 64 and a 2 ms progress period.
struct Panel {
  const char* workload;
  const char* figure;
  JobConfig (*job)();
  StreamFactory stream;
  uint64_t tuples;
  double rate;
  std::vector<uint64_t> batches;
  uint64_t query_every;
  size_t max_queries;
};

void RunPanel(const Panel& panel) {
  PrintHeader(std::string("Batch vs. approximate methods - ") +
                  panel.workload,
              panel.figure);

  JobConfig config = panel.job();
  config.cost.progress_period = 2e-3;
  const uint64_t warmup = panel.tuples * 3 / 10;

  Table table({"method", "batch tuples", "queries", "p99 latency (s)",
               "mean (s)"});
  for (uint64_t batch : panel.batches) {
    Histogram h = RunBatchSeries(config, panel.stream, warmup, panel.tuples,
                                 batch, panel.rate, panel.max_queries);
    table.AddRow({"Batch", Table::Int(batch), Table::Int(h.count()),
                  Table::Num(h.Percentile(99), 3), Table::Num(h.Mean(), 3)});
  }
  Histogram approx =
      RunApproximateSeries(config, panel.stream, warmup, panel.tuples,
                           panel.query_every, panel.rate, panel.max_queries);
  table.AddRow({"Approximate", "-", Table::Int(approx.count()),
                Table::Num(approx.Percentile(99), 3),
                Table::Num(approx.Mean(), 3)});
  table.Print();
}

void Run() {
  const Panel panels[] = {
      {"SSSP", "Figure 5a", [] { return SsspJob(64); },
       [] { return std::make_unique<GraphStream>(BenchGraph(30000)); },
       30000, 3000.0, {10500, 5250, 2100, 1050, 525}, 2100, 20},
      {"PageRank", "Figure 5b",
       [] {
         JobConfig config = PageRankJob(64);
         config.program = std::make_shared<PageRankProgram>(0.85, 3e-3);
         return config;
       },
       [] { return std::make_unique<GraphStream>(BenchGraph(30000, 5)); },
       30000, 1500.0, {10500, 5250, 2100, 1050, 525}, 2100, 12},
      {"KMeans", "Figure 5c", [] { return KMeansJob(64); },
       [] { return std::make_unique<PointStream>(BenchPoints(16000)); },
       16000, 3000.0, {3200, 1600, 640, 320, 160}, 1600, 12},
  };
  for (const Panel& panel : panels) RunPanel(panel);
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
