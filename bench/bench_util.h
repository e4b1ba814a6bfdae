#ifndef TORNADO_BENCH_BENCH_UTIL_H_
#define TORNADO_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <functional>

#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "algos/sgd.h"
#include "algos/sssp.h"
#include "algos/workloads.h"
#include "common/histogram.h"
#include "core/cluster.h"
#include "scenario/scenario.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"

namespace tornado {
namespace bench {

/// Fixed-width table printer for paper-style outputs.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Num(double v, int precision = 2);
  static std::string Int(uint64_t v);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

void PrintHeader(const std::string& title, const std::string& paper_ref);

/// The canonical workload scales (algos/workloads.h), with the seeds the
/// figures use by default.
inline GraphStreamOptions BenchGraph(uint64_t tuples = 40000,
                                     uint64_t seed = 42) {
  return workloads::Graph(tuples, seed);
}
inline PointStreamOptions BenchPoints(uint64_t tuples = 20000,
                                      uint64_t seed = 7) {
  return workloads::Points(tuples, seed);
}
inline InstanceStreamOptions BenchDense(uint64_t tuples = 20000,
                                        uint64_t seed = 13) {
  return workloads::Dense(tuples, seed);
}
inline InstanceStreamOptions BenchSparse(uint64_t tuples = 20000,
                                         uint64_t seed = 13) {
  return workloads::Sparse(tuples, seed);
}

inline constexpr VertexId kBenchSsspSource = workloads::kSsspSource;

/// Job configurations wired to the canonical workloads: the catalogue's
/// program defaults on the figures' 8-processor, 4-host cluster.
JobConfig SsspJob(uint64_t delay_bound, bool batch_mode = false);
JobConfig PageRankJob(uint64_t delay_bound);
JobConfig KMeansJob(uint64_t delay_bound);
JobConfig SgdJob(SgdLoss loss, uint64_t delay_bound, double descent_rate,
                 DescentSchedule schedule = DescentSchedule::kStatic,
                 bool batch_mode = false, double sample_ratio = 0.01);

/// The first `count` instances of `stream`: the reference sample the SGD
/// figures evaluate the model's objective on.
std::vector<SgdInstance> ReferenceSample(const InstanceStreamOptions& stream,
                                         size_t count);

/// Runs the cluster until `count` tuples are ingested, then submits a
/// query and returns its latency (virtual seconds), or -1 on timeout.
/// The latency is also observed into the cluster's
/// metric::kQueryLatency distribution so bench JSON reports p50/p95/max.
double MeasureQueryLatency(TornadoCluster& cluster, double timeout = 3000.0);

/// The bench command line. A bench that writes artifacts accepts
/// (docs/OBSERVABILITY.md):
///   --json <path>        machine-readable run result (JSON)
///   --trace-out <path>   Chrome trace-event JSON of the traced window
///   --series-out <path>  sampler time-series CSV
/// and every other bench accepts no argument. Any argument the bench does
/// not accept, or a flag without its value, prints a usage line to stderr
/// and exits 2 before any work.
struct BenchArgs {
  std::string json_path;
  std::string trace_path;
  std::string series_path;

  bool WantsTrace() const { return !trace_path.empty(); }
};
BenchArgs ParseBenchArgs(int argc, char** argv, bool artifacts = false);

/// Loads a scenario file (docs/SCENARIOS.md) for a bench to drive; an
/// invalid file prints its errors to stderr and exits 2.
scenario::Scenario LoadBenchScenario(const std::string& path);

/// Figures 8c and 8d: the update rate of an SSSP branch loop around the
/// failure that `scenario_path` scripts, swept over delay bounds 1, 16 and
/// 65536 in memory. The B = 16 run carries the --trace-out/--series-out
/// artifacts (failure window only) and the --json counters.
struct FailureCurve {
  const char* scenario_path;
  const char* title;
  const char* figure;
  const char* killed;  // what the kill line names
  const char* json_name;
};
void RunFailureCurve(const FailureCurve& curve, const BenchArgs& args);

/// Accumulates one bench run's machine-readable result and writes it as a
/// single JSON object (pretty-printed by JsonWrite, common/json.h):
///
///   {"bench": "...", "knobs": {...}, "wall_seconds": W,
///    "virtual_seconds": V, "counters": {...},
///    "histograms": {"name": {"count": n, "min": ..., "max": ...,
///                            "mean": ..., "p50": ..., "p95": ...}},
///    "results": {...}}
///
/// Knobs are the configuration the run was parameterized by, results the
/// measured outputs; both are flat string->number maps (plus string-valued
/// knobs). Wall time is stamped at WriteFile; virtual time, counters and
/// histograms are whatever the bench recorded. Schema documented in
/// docs/OBSERVABILITY.md.
class BenchJson {
 public:
  explicit BenchJson(std::string bench);

  void AddKnob(const std::string& key, double value);
  void AddKnob(const std::string& key, const std::string& value);
  void AddResult(const std::string& key, double value);
  void AddHistogram(const std::string& key, const Histogram& histogram);
  void SetVirtualSeconds(double seconds) { virtual_seconds_ = seconds; }

  /// Snapshots every counter and distribution of `metrics`.
  void AddMetrics(const MetricRegistry& metrics);

  std::string ToJson() const;
  bool WriteFile(const std::string& path) const;

 private:
  struct HistogramRow {
    uint64_t count = 0;
    double min = 0.0, max = 0.0, mean = 0.0, p50 = 0.0, p95 = 0.0;
  };

  std::string bench_;
  double start_wall_;  // seconds, process clock
  double virtual_seconds_ = 0.0;
  std::map<std::string, double> knobs_;
  std::map<std::string, std::string> string_knobs_;
  std::map<std::string, double> results_;
  std::map<std::string, int64_t> counters_;
  std::map<std::string, HistogramRow> histograms_;
};

/// Factory for the (identically-seeded) input stream of one run.
using StreamFactory = std::function<std::unique_ptr<StreamSource>()>;

/// Figure 5 driver: the mini-batch method and the approximate method run
/// the *same* engine and configuration; they differ only in arrival shape
/// (Section 6.2.1).
///
/// Batch,N: tuples arrive in bursts of N; the query fires the moment the
/// burst has been gathered, so the branch loop must resolve the whole
/// batch — its initial guess is the fixed point from N tuples ago.
///
/// Approximate: tuples arrive smoothly at `rate`; the main loop absorbs
/// them continuously, so a query's branch loop only resolves the last
/// iteration's un-reflected inputs.
///
/// Returns the latency histogram over the queries at the given boundaries.
Histogram RunBatchSeries(const JobConfig& config, const StreamFactory& stream,
                         uint64_t warmup, uint64_t total, uint64_t batch_size,
                         double rate, size_t max_queries = 20);
Histogram RunApproximateSeries(const JobConfig& config,
                               const StreamFactory& stream, uint64_t warmup,
                               uint64_t total, uint64_t query_every,
                               double rate, size_t max_queries = 20);

/// Reads the main-loop or branch-loop SGD model.
std::vector<double> ReadSgdWeights(const TornadoCluster& cluster, LoopId loop);

}  // namespace bench
}  // namespace tornado

#endif  // TORNADO_BENCH_BENCH_UTIL_H_
