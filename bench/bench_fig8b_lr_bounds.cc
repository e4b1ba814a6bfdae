// Figure 8b: objective value of an LR branch loop over time under delay
// bounds 1, 256 and 65535, with a 10% sample ratio and heterogeneous
// processor speeds.
//
// Expected shape (paper): the synchronous loop (B=1) is held back by
// stragglers — every iteration waits for the slowest worker — while the
// loop with the largest bound updates the model fastest and converges
// quickest.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "stream/instance_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint64_t kTuples = 16000;

struct Curve {
  std::vector<double> times;      // seconds since fork
  std::vector<double> objective;  // branch model objective
};

Curve RunBound(uint64_t bound) {
  JobConfig config = SgdJob(SgdLoss::kLogistic, bound, /*descent_rate=*/0.05,
                            DescentSchedule::kStatic, /*batch_mode=*/true,
                            /*sample_ratio=*/0.1);
  // Converge on quiescence only: the per-iteration epsilon policy can fire
  // while asynchronous compute is still far ahead of termination.
  config.convergence.epsilon = -1.0;
  // Stragglers: half the workers run at 60% speed.
  config.processor_speeds = {1.0, 0.6, 1.0, 0.6, 1.0, 0.6, 1.0, 0.6};
  TornadoCluster cluster(
      config, std::make_unique<InstanceStream>(BenchSparse(kTuples)));
  cluster.Start();

  Curve curve;
  if (!cluster.RunUntilEmitted(kTuples, 3000.0)) return curve;
  cluster.ingester().Pause();
  cluster.RunFor(0.5);

  const auto sample = ReferenceSample(BenchSparse(kTuples), 1500);
  const uint64_t query = cluster.ingester().SubmitQuery();
  const double start = cluster.now();
  bool done = false;
  for (int i = 1; i <= 18 && !done; ++i) {
    const double t = start + i * 0.15;
    done = cluster.RunUntil(
        [&]() {
          for (const CompletedQuery& q :
               cluster.ingester().completed_queries()) {
            if (q.query_id == query) return true;
          }
          return cluster.now() >= t;
        },
        100.0);
    const LoopId branch = cluster.BranchOf(query) != 0
                              ? cluster.BranchOf(query)
                              : 1;  // branch ids start at 1
    auto w = ReadSgdWeights(cluster, branch);
    curve.times.push_back(cluster.now() - start);
    curve.objective.push_back(
        w.empty() ? -1.0
                  : SgdProgram::Objective(SgdLoss::kLogistic, 1e-4, w,
                                          sample));
    done = cluster.BranchOf(query) != 0;
  }
  return curve;
}

void Run() {
  PrintHeader("LR branch-loop objective vs time under delay bounds",
              "Figure 8b");

  Curve sync = RunBound(1);
  Curve mid = RunBound(256);
  Curve async = RunBound(65535);

  Table table({"time (s)", "B=1", "B=256", "B=65535"});
  const size_t n =
      std::max({sync.times.size(), mid.times.size(), async.times.size()});
  auto cell = [](const Curve& c, size_t i) {
    // A finished loop holds its final objective.
    if (c.objective.empty()) return std::string("-");
    const size_t j = std::min(i, c.objective.size() - 1);
    return Table::Num(c.objective[j], 4);
  };
  for (size_t i = 0; i < n; ++i) {
    const double t =
        i < async.times.size()
            ? async.times[i]
            : (i < mid.times.size() ? mid.times[i] : sync.times[i]);
    table.AddRow({Table::Num(t, 2), cell(sync, i), cell(mid, i),
                  cell(async, i)});
  }
  table.Print();
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
