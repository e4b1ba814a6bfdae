// Figure 9: scalability of Tornado. Worker counts sweep from 10 to 160
// over 20 physical hosts (as in the paper's 20-node cluster running up to
// 200 threads).
//
//  (a) Speedup of the branch-loop latency relative to 10 workers.
//  (b) Aggregate message throughput: grows with workers until the shared
//      NICs saturate (the paper observes ~1.5M messages/s), after which
//      adding workers stops helping — and actively hurts SVM, whose
//      single parameter vertex only gets more communication partners.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint32_t kHosts = 20;

struct Measurement {
  double latency = -1.0;
  double messages_per_second = 0.0;
};

Measurement Measure(JobConfig config, std::unique_ptr<StreamSource> stream,
                    uint64_t tuples) {
  config.num_hosts = kHosts;
  config.ingest_rate = 20000.0;
  // The paper's vertices materialize every update in PostgreSQL — per-update
  // I/O around a millisecond — and it credits its near-linear speedups to
  // the added I/O devices ("the programs can fully take advantage of the
  // additional I/O devices"). Reflect that cost regime here so the sweep
  // measures compute/I/O scaling rather than coordination floors.
  config.cost.store_write_cost = 3e-4;
  config.cost.per_update_cpu = 3e-5;
  config.cost.flush_per_version = 3e-5;
  TornadoCluster cluster(std::move(config), std::move(stream));
  cluster.Start();
  Measurement m;
  if (!cluster.RunUntilEmitted(tuples, 3000.0)) return m;
  cluster.ingester().Pause();
  cluster.RunFor(0.5);

  const double t0 = cluster.now();
  const int64_t m0 = cluster.metrics().Get(metric::kMessagesSent);
  m.latency = MeasureQueryLatency(cluster);
  const double elapsed = cluster.now() - t0;
  const int64_t sent =
      cluster.metrics().Get(metric::kMessagesSent) - m0;
  if (elapsed > 0) {
    m.messages_per_second = static_cast<double>(sent) / elapsed;
  }
  return m;
}

Measurement RunWorkload(const std::string& name, uint32_t workers) {
  if (name == "SSSP") {
    JobConfig config = SsspJob(/*delay_bound=*/64, /*batch_mode=*/true);
    config.num_processors = workers;
    return Measure(std::move(config),
                   std::make_unique<GraphStream>(BenchGraph(30000)), 30000);
  }
  if (name == "PageRank") {
    JobConfig config = PageRankJob(/*delay_bound=*/64);
    config.num_processors = workers;
    return Measure(std::move(config),
                   std::make_unique<GraphStream>(BenchGraph(24000, 5)),
                   24000);
  }
  if (name == "KMeans") {
    JobConfig config = KMeansJob(/*delay_bound=*/64);
    // Shard the points across all workers so compute actually spreads.
    KMeansOptions kmeans = workloads::KMeans(workers);
    kmeans.assign_cost = 4e-7;  // Postgres-era per-point cost (see Measure)
    workloads::UseKMeans(kmeans, &config);
    config.num_processors = workers;
    return Measure(std::move(config),
                   std::make_unique<PointStream>(BenchPoints(12000)), 12000);
  }
  // SVM
  JobConfig config = SgdJob(SgdLoss::kSvmHinge, /*delay_bound=*/64,
                            /*descent_rate=*/0.05, DescentSchedule::kStatic,
                            /*batch_mode=*/true, /*sample_ratio=*/0.1);
  SgdOptions sgd = workloads::Sgd(SgdLoss::kSvmHinge, workers);
  sgd.sample_ratio = 0.1;
  sgd.batch_mode = true;
  sgd.gradient_cost = 3e-8;
  workloads::UseSgd(sgd, &config);
  config.num_processors = workers;
  // Bound the GD run so per-sweep latencies are comparable; the paper's
  // SVM point is that the single parameter vertex gains nothing from more
  // workers while communication grows.
  config.convergence.epsilon = 1e-3;
  config.convergence.window = 3;
  config.convergence.max_iterations = 300;
  return Measure(std::move(config),
                 std::make_unique<InstanceStream>(BenchDense(12000)), 12000);
}

void Run() {
  PrintHeader("Scalability of Tornado", "Figures 9a and 9b");

  const std::vector<uint32_t> worker_counts = {10, 20, 40, 80, 160};
  const std::vector<std::string> workloads = {"SSSP", "PageRank", "KMeans",
                                              "SVM"};

  Table speedup({"workers", "SSSP", "PageRank", "KMeans", "SVM"});
  Table throughput({"workers", "SSSP (msg/s)", "PageRank (msg/s)",
                    "KMeans (msg/s)", "SVM (msg/s)"});

  std::vector<std::vector<Measurement>> grid(workloads.size());
  for (size_t w = 0; w < workloads.size(); ++w) {
    for (uint32_t workers : worker_counts) {
      grid[w].push_back(RunWorkload(workloads[w], workers));
    }
  }

  for (size_t i = 0; i < worker_counts.size(); ++i) {
    std::vector<std::string> srow = {Table::Int(worker_counts[i])};
    std::vector<std::string> trow = {Table::Int(worker_counts[i])};
    for (size_t w = 0; w < workloads.size(); ++w) {
      const double base = grid[w][0].latency;
      const double latency = grid[w][i].latency;
      srow.push_back(latency > 0 && base > 0 ? Table::Num(base / latency, 2)
                                             : "-");
      trow.push_back(Table::Num(grid[w][i].messages_per_second, 0));
    }
    speedup.AddRow(std::move(srow));
    throughput.AddRow(std::move(trow));
  }

  std::printf("(a) branch-loop speedup relative to 10 workers\n");
  speedup.Print();
  std::printf("\n(b) message throughput during the branch loop\n");
  throughput.Print();
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
