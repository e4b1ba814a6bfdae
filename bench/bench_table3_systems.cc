// Table 3: query latency (mean ± stddev over seeded runs) of the four
// comparator execution models and Tornado, at 1%, 5%, 10% and 20%
// accumulated input, for SSSP, PageRank, SVM and KMeans.
//
// Expected shape (paper): Spark is slowest (load + per-iteration spill);
// GraphLab beats it (in-memory) but still computes from scratch; Naiad is
// competitive on SSSP/SVM but degrades with accumulated difference traces
// on PageRank and runs out of memory on KMeans ("-"); Tornado wins
// everywhere, and its latency is essentially independent of the
// accumulated input size (except KMeans, which always rescans).

#include <memory>
#include <vector>

#include "baselines/graph_baselines.h"
#include "baselines/ml_baselines.h"
#include "bench/bench_util.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr int kRuns = 3;  // seeds per cell for the +/- column
const std::vector<double> kFractions = {0.01, 0.05, 0.10, 0.20};

/// Cost regime of this comparison: every system pays Postgres-era
/// materialization/loading rates (the paper's evaluation stores state in
/// PostgreSQL and Spark/GraphLab must "load all collected data and perform
/// the computation from scratch"). Tornado pays the equivalent through its
/// engine's store-write and flush costs.
BaselineCostModel Table3Costs() {
  BaselineCostModel cost;
  cost.per_tuple_load = 1.0e-4;
  cost.per_update = 4e-5;
  cost.per_tuple_apply = 6e-5;
  return cost;
}

struct Cell {
  Histogram latencies;
  bool failed = false;
  std::string error;
};

std::string Format(const Cell& cell) {
  if (cell.failed) return "-";
  return Table::Num(cell.latencies.Mean(), 3) + " +/- " +
         Table::Num(cell.latencies.Stddev(), 3);
}

// ---------------------------------------------------------------------------
// Baseline engines: feed the stream prefix, query at each fraction.
// ---------------------------------------------------------------------------

template <typename MakeEngine, typename MakeStream>
std::vector<Cell> RunBaseline(MakeEngine make_engine, MakeStream make_stream,
                              uint64_t total) {
  std::vector<Cell> cells(kFractions.size());
  for (int run = 0; run < kRuns; ++run) {
    auto engine = make_engine();
    auto stream = make_stream(run);
    size_t fed = 0;
    for (size_t f = 0; f < kFractions.size(); ++f) {
      const auto target = static_cast<size_t>(kFractions[f] * total);
      while (fed < target) {
        auto tuple = stream->Next();
        if (!tuple.has_value()) break;
        engine->Ingest(*tuple);
        ++fed;
      }
      BaselineResult result = engine->Query();
      if (!result.ok) {
        cells[f].failed = true;
        cells[f].error = result.error;
      } else {
        cells[f].latencies.Add(result.latency);
      }
    }
  }
  return cells;
}

// ---------------------------------------------------------------------------
// Tornado: run the engine, query at each fraction.
// ---------------------------------------------------------------------------

template <typename MakeConfig, typename MakeStream>
std::vector<Cell> RunTornado(MakeConfig make_config, MakeStream make_stream,
                             uint64_t total) {
  std::vector<Cell> cells(kFractions.size());
  for (int run = 0; run < kRuns; ++run) {
    JobConfig config = make_config();
    config.seed = 1000 + run;
    config.ingest_rate = 2500.0;
    TornadoCluster cluster(config, make_stream(run));
    cluster.Start();
    for (size_t f = 0; f < kFractions.size(); ++f) {
      const auto target = static_cast<uint64_t>(kFractions[f] * total);
      if (!cluster.RunUntilEmitted(target, 3000.0)) break;
      const double latency = MeasureQueryLatency(cluster);
      if (latency >= 0.0) cells[f].latencies.Add(latency);
    }
  }
  return cells;
}

void PrintWorkload(const std::string& name,
                   const std::vector<std::vector<Cell>>& rows) {
  Table table({"Program", "Spark", "GraphLab", "Naiad", "Tornado"});
  for (size_t f = 0; f < kFractions.size(); ++f) {
    std::vector<std::string> row = {
        name + ", " + Table::Int(static_cast<uint64_t>(
                          kFractions[f] * 100)) + "%"};
    for (const auto& system : rows) row.push_back(Format(system[f]));
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("\n");
}

void Run() {
  PrintHeader("Latency (seconds) in different systems", "Table 3");

  // --- SSSP ---
  {
    constexpr uint64_t kTotal = 60000;
    auto stream = [](int run) {
      return std::make_unique<GraphStream>(BenchGraph(kTotal, 42 + run));
    };
    std::vector<std::vector<Cell>> rows;
    for (ExecutionModel model :
         {ExecutionModel::kSparkLike, ExecutionModel::kGraphLabLike,
          ExecutionModel::kNaiadLike}) {
      rows.push_back(RunBaseline(
          [&]() {
            return std::make_unique<SsspBaseline>(model, kBenchSsspSource,
                                                  Table3Costs());
          },
          stream, kTotal));
    }
    rows.push_back(RunTornado([]() { return SsspJob(64); }, stream, kTotal));
    PrintWorkload("SSSP", rows);
  }

  // --- PageRank ---
  {
    constexpr uint64_t kTotal = 40000;
    auto stream = [](int run) {
      return std::make_unique<GraphStream>(BenchGraph(kTotal, 90 + run));
    };
    std::vector<std::vector<Cell>> rows;
    for (ExecutionModel model :
         {ExecutionModel::kSparkLike, ExecutionModel::kGraphLabLike,
          ExecutionModel::kNaiadLike}) {
      rows.push_back(RunBaseline(
          [&]() {
            return std::make_unique<PageRankBaseline>(model, 0.85, 1e-4,
                                                      Table3Costs());
          },
          stream, kTotal));
    }
    rows.push_back(
        RunTornado([]() { return PageRankJob(64); }, stream, kTotal));
    PrintWorkload("PR", rows);
  }

  // --- SVM ---
  {
    constexpr uint64_t kTotal = 40000;
    auto stream = [](int run) {
      return std::make_unique<InstanceStream>(BenchDense(kTotal, 13 + run));
    };
    std::vector<std::vector<Cell>> rows;
    for (ExecutionModel model :
         {ExecutionModel::kSparkLike, ExecutionModel::kGraphLabLike,
          ExecutionModel::kNaiadLike}) {
      rows.push_back(RunBaseline(
          [&]() {
            return std::make_unique<SgdBaseline>(model, SgdLoss::kSvmHinge,
                                                 28, 1.0, 1e-4,
                                                 Table3Costs());
          },
          stream, kTotal));
    }
    rows.push_back(RunTornado(
        []() {
          JobConfig config = SgdJob(SgdLoss::kSvmHinge, 64, 0.05);
          // Match the comparator solvers' stopping tolerance (1e-2), so
          // all systems chase the same answer quality.
          config.convergence.epsilon = 1e-2;
          config.convergence.window = 3;
          return config;
        },
        stream, kTotal));
    PrintWorkload("SVM", rows);
  }

  // --- KMeans ---
  {
    constexpr uint64_t kTotal = 30000;
    auto stream = [](int run) {
      return std::make_unique<PointStream>(BenchPoints(kTotal, 7 + run));
    };
    std::vector<std::vector<Cell>> rows;
    for (ExecutionModel model :
         {ExecutionModel::kSparkLike, ExecutionModel::kGraphLabLike,
          ExecutionModel::kNaiadLike}) {
      BaselineCostModel cost = Table3Costs();
      // The differential traces over (points x iterations) exceed the
      // budget partway through, reproducing the paper's "-" cells.
      if (model == ExecutionModel::kNaiadLike) cost.trace_memory_cap = 100000;
      rows.push_back(RunBaseline(
          [&, cost]() {
            return std::make_unique<KMeansBaseline>(model, 10, 20, 1e-3,
                                                    cost);
          },
          stream, kTotal));
    }
    rows.push_back(RunTornado([]() { return KMeansJob(64); }, stream, kTotal));
    PrintWorkload("KM", rows);
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
