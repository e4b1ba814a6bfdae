#include "bench/bench_util.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

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

std::string JsonNum(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

[[noreturn]] void UsageError(const char* program, const std::string& problem) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [--json PATH] [--trace-out PATH] "
               "[--series-out PATH]\n",
               program, problem.c_str(), program);
  std::exit(2);
}
}  // namespace

BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    std::string* target = flag == "--json"         ? &args.json_path
                          : flag == "--trace-out"  ? &args.trace_path
                          : flag == "--series-out" ? &args.series_path
                                                   : nullptr;
    if (target == nullptr) UsageError(argv[0], "unknown flag '" + flag + "'");
    if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      UsageError(argv[0], flag + " needs a PATH value");
    }
    *target = argv[++i];
  }
  return args;
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
  std::ostringstream os;
  os << "{\"bench\":\"" << JsonEscape(bench_) << "\",\n";
  os << " \"knobs\":{";
  bool first = true;
  for (const auto& [key, value] : string_knobs_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(key) << "\":\""
       << JsonEscape(value) << "\"";
    first = false;
  }
  for (const auto& [key, value] : knobs_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(key)
       << "\":" << JsonNum(value);
    first = false;
  }
  os << "},\n";
  os << " \"wall_seconds\":" << JsonNum(WallSeconds() - start_wall_) << ",\n";
  os << " \"virtual_seconds\":" << JsonNum(virtual_seconds_) << ",\n";
  os << " \"counters\":{";
  first = true;
  for (const auto& [name, value] : counters_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name) << "\":" << value;
    first = false;
  }
  os << "},\n";
  os << " \"histograms\":{";
  first = true;
  for (const auto& [name, row] : histograms_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(name)
       << "\":{\"count\":" << row.count << ",\"min\":" << JsonNum(row.min)
       << ",\"max\":" << JsonNum(row.max) << ",\"mean\":" << JsonNum(row.mean)
       << ",\"p50\":" << JsonNum(row.p50) << ",\"p95\":" << JsonNum(row.p95)
       << "}";
    first = false;
  }
  os << "},\n";
  os << " \"results\":{";
  first = true;
  for (const auto& [key, value] : results_) {
    os << (first ? "" : ",") << "\"" << JsonEscape(key)
       << "\":" << JsonNum(value);
    first = false;
  }
  os << "}}\n";
  return os.str();
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

GraphStreamOptions BenchGraph(uint64_t tuples, uint64_t seed) {
  GraphStreamOptions options;
  options.num_vertices = tuples / 4;
  options.num_tuples = tuples;
  options.preferential = 0.6;
  options.deletion_ratio = 0.04;
  options.source_hub_weight = 40;  // vertex 0 is the SSSP source
  options.seed = seed;
  return options;
}

PointStreamOptions BenchPoints(uint64_t tuples, uint64_t seed) {
  PointStreamOptions options;
  options.dimensions = 20;
  options.num_clusters = 10;
  options.num_tuples = tuples;
  options.cluster_spread = 2.0;
  options.space_extent = 100.0;
  options.seed = seed;
  return options;
}

InstanceStreamOptions BenchDense(uint64_t tuples, uint64_t seed) {
  InstanceStreamOptions options;
  options.dimensions = 28;  // HIGGS-like
  options.num_tuples = tuples;
  options.label_noise = 0.05;
  options.concept_drift = 1e-4;
  options.seed = seed;
  return options;
}

InstanceStreamOptions BenchSparse(uint64_t tuples, uint64_t seed) {
  InstanceStreamOptions options;
  options.dimensions = 400;  // PubMed-like bag-of-words, scaled down
  options.num_tuples = tuples;
  options.sparse = true;
  options.sparsity_nnz = 40;
  options.zipf_exponent = 1.1;
  options.label_noise = 0.05;
  options.concept_drift = 1e-4;
  options.seed = seed;
  return options;
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
  config.program =
      std::make_shared<SsspProgram>(kBenchSsspSource, batch_mode);
  return config;
}

JobConfig PageRankJob(uint64_t delay_bound) {
  JobConfig config = BaseConfig(delay_bound);
  config.program = std::make_shared<PageRankProgram>(0.85, 1e-3);
  return config;
}

JobConfig KMeansJob(uint64_t delay_bound) {
  JobConfig config = BaseConfig(delay_bound);
  KMeansOptions kmeans;
  kmeans.num_clusters = 10;
  kmeans.num_shards = 8;
  kmeans.dimensions = 20;
  kmeans.move_tolerance = 1e-2;
  config.program = std::make_shared<KMeansProgram>(kmeans);
  config.router = KMeansProgram::MakeRouter(kmeans);
  config.convergence.epsilon = 1e-2;
  config.convergence.window = 2;
  config.convergence.max_iterations = 400;
  return config;
}

JobConfig SgdJob(SgdLoss loss, uint64_t delay_bound, double descent_rate,
                 DescentSchedule schedule, bool batch_mode,
                 double sample_ratio) {
  JobConfig config = BaseConfig(delay_bound);
  SgdOptions sgd;
  sgd.loss = loss;
  sgd.num_shards = 8;
  sgd.dimensions = loss == SgdLoss::kSvmHinge ? 28 : 400;
  sgd.sample_ratio = sample_ratio;
  sgd.reservoir_capacity = 1500;
  sgd.schedule = schedule;
  sgd.descent_rate = descent_rate;
  sgd.batch_mode = batch_mode;
  config.program = std::make_shared<SgdProgram>(sgd);
  config.router = SgdProgram::MakeRouter(sgd);
  config.convergence.quiescence = true;
  config.convergence.epsilon = 1e-4;
  config.convergence.window = 4;
  config.convergence.max_iterations = 3000;
  return config;
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

std::vector<double> ReadSgdWeights(const TornadoCluster& cluster,
                                   LoopId loop) {
  auto state = cluster.ReadVertexState(loop, kSgdParamVertex);
  if (state == nullptr) return {};
  return static_cast<const SgdParamState&>(*state).weights;
}

}  // namespace bench
}  // namespace tornado
