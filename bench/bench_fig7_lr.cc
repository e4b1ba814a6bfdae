// Figure 7: approximation error vs. descent rate for logistic regression
// on the sparse bag-of-words stream.
//
//  (a) Static rates: a too-large rate diverges (the paper shows errors
//      exploding to 1e20 at rate 0.10); a mid rate tracks well; a tiny
//      rate cannot catch up with the input changes.
//  (b) The bold driver (Section 6.2.2) adjusts the rate dynamically:
//      -10% when the objective grows, +10% when improvement stalls.

#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "stream/instance_stream.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint64_t kTuples = 24000;
constexpr double kRate = 8000.0;

struct Trace {
  std::vector<double> times;
  std::vector<double> errors;
  std::vector<double> rates;
};

InstanceStreamOptions DriftingStream() {
  InstanceStreamOptions options = BenchSparse(kTuples);
  // Strong concept drift: the ground truth moves fast enough that a tiny
  // descent rate visibly fails to catch up (Figure 7a's third curve).
  options.concept_drift = 4e-4;
  return options;
}

Trace RunSchedule(double descent_rate, DescentSchedule schedule) {
  JobConfig config = SgdJob(SgdLoss::kLogistic, /*delay_bound=*/64,
                            descent_rate, schedule, /*batch_mode=*/false,
                            /*sample_ratio=*/0.02);
  // The bold driver's cap must sit below LR's divergence threshold on this
  // feature scale, or the catch-up rule feeds back into instability.
  auto sgd = static_cast<const SgdProgram&>(*config.program).options();
  sgd.max_rate = 0.08;
  sgd.stall_threshold = 0.25;  // wide band to absorb mini-batch noise
  sgd.min_rate = 2e-3;  // keep adapting: a frozen model cannot react to drift
  config.program = std::make_shared<SgdProgram>(sgd);
  TornadoCluster cluster(
      config, std::make_unique<InstanceStream>(DriftingStream()));
  cluster.Start();

  // Early-stream reference.
  const auto sample = ReferenceSample(BenchSparse(kTuples), 1500);
  Trace trace;
  const double horizon = static_cast<double>(kTuples) / kRate;
  const int kSamples = 16;
  for (int i = 1; i <= kSamples; ++i) {
    const double t = horizon * i / kSamples;
    cluster.RunUntil([&]() { return cluster.now() >= t; }, 1000.0);
    trace.times.push_back(t);
    auto w = ReadSgdWeights(cluster, kMainLoop);
    trace.errors.push_back(
        w.empty() ? -1.0
                  : SgdProgram::Objective(SgdLoss::kLogistic, 1e-4, w,
                                          sample));
    auto state = cluster.ReadVertexState(kMainLoop, kSgdParamVertex);
    trace.rates.push_back(
        state == nullptr
            ? descent_rate
            : static_cast<const SgdParamState&>(*state).rate);
  }
  return trace;
}

void Run() {
  PrintHeader("Approximation error vs descent rate - LR",
              "Figures 7a and 7b");

  Trace big = RunSchedule(0.10, DescentSchedule::kStatic);
  Trace mid = RunSchedule(0.05, DescentSchedule::kStatic);
  Trace small = RunSchedule(0.01, DescentSchedule::kStatic);
  Trace bold = RunSchedule(0.10, DescentSchedule::kBoldDriver);

  std::printf("(a) main-loop objective vs time, static descent rates\n");
  Table static_table(
      {"time (s)", "rate=0.10", "rate=0.05", "rate=0.01"});
  for (size_t i = 0; i < big.times.size(); ++i) {
    static_table.AddRow(
        {Table::Num(big.times[i], 2), Table::Num(big.errors[i], 4),
         Table::Num(mid.errors[i], 4), Table::Num(small.errors[i], 4)});
  }
  static_table.Print();

  std::printf("\n(b) bold driver: dynamic rate and objective vs time\n");
  Table bold_table({"time (s)", "descent rate", "objective"});
  for (size_t i = 0; i < bold.times.size(); ++i) {
    bold_table.AddRow({Table::Num(bold.times[i], 2),
                       Table::Num(bold.rates[i], 5),
                       Table::Num(bold.errors[i], 4)});
  }
  bold_table.Print();
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
