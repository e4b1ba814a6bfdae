#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "common/json.h"
#include "scenario/runner.h"
#include "trace/time_series.h"
#include "trace/trace_recorder.h"

namespace tornado {
namespace bench {

namespace {
// Wall-clock stamping lives in bench/ only; src/ stays wall-clock-free
// (DET-001) so simulation results never depend on host speed.
double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Adds each (key, value) of a sorted map to `object`.
template <typename Map>
void AddAll(const Map& entries, JsonValue* object) {
  for (const auto& [key, value] : entries) {
    object->Add(key, JsonValue::Of(value));
  }
}

[[noreturn]] void UsageError(const char* program, bool artifacts,
                             const std::string& problem) {
  std::fprintf(stderr, "%s: %s\nusage: %s%s\n", program, problem.c_str(),
               program,
               artifacts
                   ? " [--json PATH] [--trace-out PATH] [--series-out PATH]"
                   : "");
  std::exit(2);
}
}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv, bool artifacts) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::string* target = flag == "--json"         ? &args.json_path
                          : flag == "--trace-out"  ? &args.trace_path
                          : flag == "--series-out" ? &args.series_path
                                                   : nullptr;
    if (!artifacts || target == nullptr) {
      UsageError(argv[0], artifacts, "unknown flag '" + flag + "'");
    }
    if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      UsageError(argv[0], artifacts, flag + " needs a PATH value");
    }
    *target = argv[++i];
  }
  return args;
}

scenario::Scenario LoadBenchScenario(const std::string& path) {
  scenario::Scenario s;
  std::vector<std::string> errors;
  if (!scenario::LoadScenarioFile(path, &s, &errors)) {
    std::fprintf(stderr, "%s: invalid scenario\n", path.c_str());
    for (const std::string& e : errors) {
      std::fprintf(stderr, "  %s\n", e.c_str());
    }
    std::exit(2);
  }
  return s;
}

BenchJson::BenchJson(std::string bench)
    : bench_(std::move(bench)), start_wall_(WallSeconds()) {}

void BenchJson::AddKnob(const std::string& key, double value) {
  knobs_[key] = value;
}

void BenchJson::AddKnob(const std::string& key, const std::string& value) {
  string_knobs_[key] = value;
}

void BenchJson::AddResult(const std::string& key, double value) {
  results_[key] = value;
}

void BenchJson::AddHistogram(const std::string& key,
                             const Histogram& histogram) {
  HistogramRow row;
  row.count = histogram.count();
  if (row.count > 0) {
    row.min = histogram.min();
    row.max = histogram.max();
    row.mean = histogram.Mean();
    row.p50 = histogram.Percentile(50.0);
    row.p95 = histogram.Percentile(95.0);
  }
  histograms_[key] = row;
}

void BenchJson::AddMetrics(const MetricRegistry& metrics) {
  for (const auto& [name, value] : metrics.counters()) {
    counters_[name] = value;
  }
  for (const auto& [name, hist] : metrics.histograms()) {
    if (hist.count() > 0) AddHistogram(name, hist);
  }
}

std::string BenchJson::ToJson() const {
  JsonValue knobs = JsonValue::MakeObject();
  AddAll(string_knobs_, &knobs);
  AddAll(knobs_, &knobs);
  JsonValue counters = JsonValue::MakeObject();
  AddAll(counters_, &counters);
  JsonValue histograms = JsonValue::MakeObject();
  for (const auto& [name, row] : histograms_) {
    histograms.Add(name, JsonValue::MakeObject(
                             {{"count", JsonValue::Of(row.count)},
                              {"min", JsonValue::Of(row.min)},
                              {"max", JsonValue::Of(row.max)},
                              {"mean", JsonValue::Of(row.mean)},
                              {"p50", JsonValue::Of(row.p50)},
                              {"p95", JsonValue::Of(row.p95)}}));
  }
  JsonValue results = JsonValue::MakeObject();
  AddAll(results_, &results);
  return JsonWrite(JsonValue::MakeObject(
             {{"bench", JsonValue::Of(bench_)},
              {"knobs", knobs},
              {"wall_seconds", JsonValue::Of(WallSeconds() - start_wall_)},
              {"virtual_seconds", JsonValue::Of(virtual_seconds_)},
              {"counters", counters},
              {"histograms", histograms},
              {"results", results}})) +
         "\n";
}

bool BenchJson::WriteFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << ToJson();
  return out.good();
}

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    std::printf("  ");
    for (size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      std::printf("%-*s  ", static_cast<int>(widths[c]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::string rule;
  for (size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  std::printf("  %s\n", rule.c_str());
  for (const auto& row : rows_) print_row(row);
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Int(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("(reproduces %s of Shi et al., SIGMOD'16)\n\n",
              paper_ref.c_str());
}

namespace {
JobConfig BaseConfig(uint64_t delay_bound) {
  JobConfig config;
  config.delay_bound = delay_bound;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 10000.0;
  config.ingest_batch = 10;
  config.seed = 1;
  return config;
}
}  // namespace

JobConfig SsspJob(uint64_t delay_bound, bool batch_mode) {
  JobConfig config = BaseConfig(delay_bound);
  workloads::UseSssp(batch_mode, &config);
  return config;
}

JobConfig PageRankJob(uint64_t delay_bound) {
  JobConfig config = BaseConfig(delay_bound);
  workloads::UsePageRank(&config);
  return config;
}

JobConfig KMeansJob(uint64_t delay_bound) {
  JobConfig config = BaseConfig(delay_bound);
  workloads::UseKMeans(workloads::KMeans(config.num_processors), &config);
  return config;
}

JobConfig SgdJob(SgdLoss loss, uint64_t delay_bound, double descent_rate,
                 DescentSchedule schedule, bool batch_mode,
                 double sample_ratio) {
  JobConfig config = BaseConfig(delay_bound);
  SgdOptions sgd = workloads::Sgd(loss, config.num_processors);
  sgd.sample_ratio = sample_ratio;
  sgd.schedule = schedule;
  sgd.descent_rate = descent_rate;
  sgd.batch_mode = batch_mode;
  workloads::UseSgd(sgd, &config);
  return config;
}

std::vector<SgdInstance> ReferenceSample(const InstanceStreamOptions& stream,
                                         size_t count) {
  InstanceStream source(stream);
  std::vector<SgdInstance> out;
  while (auto tuple = source.Next()) {
    const auto& d = std::get<InstanceDelta>(tuple->delta);
    out.push_back(SgdInstance{d.id, d.label, d.features});
    if (out.size() >= count) break;
  }
  return out;
}

double MeasureQueryLatency(TornadoCluster& cluster, double timeout) {
  const uint64_t query = cluster.ingester().SubmitQuery();
  if (!cluster.RunUntilQueryDone(query, timeout)) return -1.0;
  const double latency = cluster.QueryLatency(query);
  if (latency >= 0.0) {
    cluster.metrics().Observe(metric::kQueryLatency, latency);
  }
  return latency;
}

namespace {
bool RunUntilGathered(TornadoCluster& cluster, uint64_t count,
                      double timeout) {
  return cluster.RunUntil(
      [&]() {
        return cluster.metrics().Get(metric::kInputsGathered) >=
               static_cast<int64_t>(count);
      },
      timeout);
}
}  // namespace

Histogram RunBatchSeries(const JobConfig& base_config,
                         const StreamFactory& stream, uint64_t warmup,
                         uint64_t total, uint64_t batch_size, double rate,
                         size_t max_queries) {
  JobConfig config = base_config;
  // Bursts: the epoch's tuples arrive (and are gathered) "at once"; the
  // wall-clock cadence of the epochs matches the underlying arrival rate.
  config.ingest_rate = rate * 200.0;
  config.ingest_batch = 100;
  TornadoCluster cluster(config, stream());
  cluster.Start();

  Histogram latencies;
  if (!cluster.RunUntilEmitted(warmup, 3000.0)) return latencies;
  cluster.ingester().Pause();
  (void)RunUntilGathered(cluster, warmup, 1000.0);
  cluster.RunFor(1.0);  // absorb the warmup: the first fixed point

  for (uint64_t boundary = warmup + batch_size;
       boundary <= total && latencies.count() < max_queries;
       boundary += batch_size) {
    const double epoch_start = cluster.now();
    cluster.ingester().Resume();
    if (!cluster.RunUntilEmitted(boundary, 1000.0)) break;
    cluster.ingester().Pause();
    if (!RunUntilGathered(cluster, boundary, 1000.0)) break;

    const double latency = MeasureQueryLatency(cluster);
    if (latency >= 0.0) latencies.Add(latency);

    // Idle until the instant the next epoch's data has "arrived" in real
    // time; the main loop absorbs the batch meanwhile, becoming the next
    // warm start.
    const double next_epoch =
        epoch_start + static_cast<double>(batch_size) / rate;
    if (cluster.now() < next_epoch) {
      cluster.RunFor(next_epoch - cluster.now());
    }
  }
  return latencies;
}

Histogram RunApproximateSeries(const JobConfig& base_config,
                               const StreamFactory& stream, uint64_t warmup,
                               uint64_t total, uint64_t query_every,
                               double rate, size_t max_queries) {
  JobConfig config = base_config;
  config.ingest_rate = rate;
  TornadoCluster cluster(config, stream());
  cluster.Start();

  Histogram latencies;
  if (!cluster.RunUntilEmitted(warmup, 3000.0)) return latencies;
  for (uint64_t boundary = warmup + query_every;
       boundary <= total && latencies.count() < max_queries;
       boundary += query_every) {
    if (!cluster.RunUntilEmitted(boundary, 1000.0)) break;
    // Query live: ingestion keeps running while the branch executes.
    const double latency = MeasureQueryLatency(cluster);
    if (latency >= 0.0) latencies.Add(latency);
  }
  return latencies;
}

namespace {
/// One bound's failure run. When `artifacts` asks for them, the failure
/// window is traced (warmup excluded so the interesting events fit the
/// recorder) and exported; `json`, when given, receives the run's counters
/// and times.
std::vector<int64_t> RunFailureBound(const scenario::Scenario& base,
                                     uint64_t bound,
                                     const BenchArgs* artifacts,
                                     BenchJson* json) {
  scenario::Scenario s = base;
  s.consistency.delay_bound = bound;
  const bool want_trace =
      artifacts != nullptr &&
      (artifacts->WantsTrace() || !artifacts->series_path.empty());
  scenario::RunOptions hooks;
  if (want_trace) {
    hooks.after_build = [](TornadoCluster& cluster) {
      cluster.EnableTracing();
      cluster.trace()->Pause();  // skip the warmup, trace the failure window
    };
    hooks.before_query = [](TornadoCluster& cluster) {
      cluster.trace()->Resume();
    };
  }
  scenario::ScenarioRunner runner(std::move(s), std::move(hooks));
  scenario::ScenarioVerdict verdict = runner.Run();
  if (!verdict.completed) return verdict.updates_per_bucket;

  TornadoCluster& cluster = *runner.cluster();
  if (want_trace) {
    cluster.trace()->Pause();
    if (artifacts->WantsTrace()) {
      cluster.trace()->WriteChromeTraceFile(artifacts->trace_path);
    }
    if (!artifacts->series_path.empty()) {
      cluster.sampler()->WriteCsvFile(artifacts->series_path);
    }
  }
  if (json != nullptr) {
    json->SetVirtualSeconds(cluster.now());
    json->AddMetrics(cluster.metrics());
  }
  return verdict.updates_per_bucket;
}
}  // namespace

void RunFailureCurve(const FailureCurve& curve, const BenchArgs& args) {
  const scenario::Scenario base = LoadBenchScenario(curve.scenario_path);
  const double kill_after = base.timeline.at(0).at;
  const double downtime = base.timeline.at(0).downtime;
  const double bucket = base.drive.bucket_seconds;

  PrintHeader(curve.title, curve.figure);
  std::printf(
      "%s killed %.1fs after the branch starts, recovers %.1fs later\n\n",
      curve.killed, kill_after, downtime);

  BenchJson json(curve.json_name);
  json.AddKnob("tuples", static_cast<double>(base.workload.tuples));
  json.AddKnob("kill_after_seconds", kill_after);
  json.AddKnob("downtime_seconds", downtime);
  json.AddKnob("traced_bound", 16.0);

  // The middle bound is the paper's headline curve; it carries the trace
  // and the JSON counters.
  std::vector<std::vector<int64_t>> series;
  for (uint64_t bound : {1u, 16u, 65536u}) {
    const bool traced = bound == 16u;
    series.push_back(RunFailureBound(base, bound, traced ? &args : nullptr,
                                     traced ? &json : nullptr));
    int64_t total = 0;
    for (int64_t u : series.back()) total += u;
    json.AddResult("updates_total_b" + std::to_string(bound),
                   static_cast<double>(total));
  }

  Table table({"t since kill (s)", "B=1 (upd/s)", "B=16 (upd/s)",
               "B=65536 (upd/s)"});
  const size_t n =
      std::max({series[0].size(), series[1].size(), series[2].size()});
  for (size_t i = 0; i < n; ++i) {
    auto cell = [&](size_t s) {
      return i < series[s].size() ? Table::Num(series[s][i] / bucket, 0)
                                  : std::string("-");
    };
    table.AddRow({Table::Num(static_cast<double>(i) * bucket, 2), cell(0),
                  cell(1), cell(2)});
  }
  table.Print();

  if (!args.json_path.empty()) json.WriteFile(args.json_path);
}

std::vector<double> ReadSgdWeights(const TornadoCluster& cluster,
                                   LoopId loop) {
  auto state = cluster.ReadVertexState(loop, kSgdParamVertex);
  if (state == nullptr) return {};
  return static_cast<const SgdParamState&>(*state).weights;
}

}  // namespace bench
}  // namespace tornado
