// Figure 6: impact of the approximation error on SVM.
//
//  (a) Approximation error of the main loop over time for descent rates
//      0.5 and 0.1 — the larger rate adapts faster but oscillates at a
//      higher error; the smaller rate reaches a lower error.
//  (b) Branch-loop running time for queries issued over time, comparing
//      the batch method (branch starts from the zero model) with branches
//      forked from main loops at the two descent rates — the main loop
//      with the *smaller* error (rate 0.1) gives the faster branches.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "stream/instance_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint64_t kTuples = 30000;
constexpr double kRate = 8000.0;

/// Objective of the model over a reference instance sample.
double ObjectiveOf(const std::vector<double>& w,
                   const std::vector<SgdInstance>& sample) {
  return SgdProgram::Objective(SgdLoss::kSvmHinge, 1e-4, w, sample);
}

struct Series {
  std::vector<double> times;
  std::vector<double> errors;     // main-loop objective over time
  std::vector<double> q_times;    // query submit instants
  std::vector<double> q_latency;  // branch running time
};

// Two passes per configuration: an error-series pass with no queries (a
// blocking branch measurement would stall the sampling clock) and a
// query pass measuring branch running times at fixed instants.
Series RunRate(double rate_value, bool batch_mode) {
  JobConfig config = SgdJob(SgdLoss::kSvmHinge, /*delay_bound=*/64,
                            rate_value, DescentSchedule::kStatic, batch_mode,
                            /*sample_ratio=*/0.02);
  // Heavier per-instance gradient cost so branch running time is
  // compute-bound (the paper's instances are 28-dimensional but numerous).
  auto sgd = static_cast<const SgdProgram&>(*config.program).options();
  sgd.gradient_cost = 1e-8;
  config.program = std::make_shared<SgdProgram>(sgd);
  TornadoCluster cluster(config,
                         std::make_unique<InstanceStream>(BenchDense(kTuples)));
  cluster.Start();

  const auto sample = ReferenceSample(BenchDense(kTuples), 2000);
  Series series;
  const double horizon = static_cast<double>(kTuples) / kRate;
  const int kSamples = 20;
  for (int i = 1; i <= kSamples; ++i) {
    const double t = horizon * i / kSamples;
    cluster.RunUntil([&]() { return cluster.now() >= t; }, 1000.0);
    auto w = ReadSgdWeights(cluster, kMainLoop);
    series.times.push_back(t);
    series.errors.push_back(w.empty() ? -1.0 : ObjectiveOf(w, sample));
  }

  // Query pass on a fresh, identically-seeded cluster.
  TornadoCluster query_cluster(
      config, std::make_unique<InstanceStream>(BenchDense(kTuples)));
  query_cluster.Start();
  for (int q = 1; q <= 4; ++q) {
    const double t = horizon * q / 4;
    query_cluster.RunUntil(
        [&]() { return query_cluster.now() >= t; }, 1000.0);
    series.q_times.push_back(query_cluster.now());
    series.q_latency.push_back(MeasureQueryLatency(query_cluster));
  }
  return series;
}

void Run() {
  PrintHeader("Approximation error and adaptation rate - SVM",
              "Figures 6a and 6b");

  Series fast = RunRate(0.5, /*batch_mode=*/false);
  Series slow = RunRate(0.1, /*batch_mode=*/false);
  Series batch = RunRate(0.1, /*batch_mode=*/true);

  std::printf("(a) main-loop objective (approximation error) vs time\n");
  Table error_table({"time (s)", "rate=0.5", "rate=0.1"});
  for (size_t i = 0; i < fast.times.size(); ++i) {
    error_table.AddRow({Table::Num(fast.times[i], 2),
                        Table::Num(fast.errors[i], 4),
                        Table::Num(slow.errors[i], 4)});
  }
  error_table.Print();

  std::printf("\n(b) branch-loop running time vs fork instant\n");
  Table branch_table(
      {"fork time (s)", "Batch (s)", "rate=0.5 (s)", "rate=0.1 (s)"});
  for (size_t i = 0; i < fast.q_times.size(); ++i) {
    branch_table.AddRow({Table::Num(fast.q_times[i], 2),
                         Table::Num(batch.q_latency[i], 3),
                         Table::Num(fast.q_latency[i], 3),
                         Table::Num(slow.q_latency[i], 3)});
  }
  branch_table.Print();
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
