// The repository benchmark: one seeded process per workload run.
//
//   tornado_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--trace-out <path>]
//
// It drives a sequence of seeded streams (generate inputs, build the
// cluster, drive it, check the answer against an exact solver) until at
// least the workload's stream count is done and --seconds of host time
// have passed, prints every metric as "metric <name> <value> <unit>", and
// ends with one JSON line: {"correct":..,"attempted":..,"failed":..,
// "metrics":{..}}. With --trace 0 the JSON carries the end-to-end metrics;
// with --trace 1 every stream is driven untraced and then traced, and the
// JSON carries the per-layer metrics. README.md in this directory
// documents the workloads, the metrics and the layer -> end-to-end table.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/solvers.h"
#include "bench/bench_util.h"
#include "check/invariant_checker.h"
#include "common/logging.h"
#include "graph/dynamic_graph.h"
#include "perfbench/probes.h"
#include "runtime/sim_substrate.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "stream/vector_stream.h"

namespace tornado {
namespace perfbench {
namespace {

constexpr char kUsage[] =
    "usage: tornado_perfbench --workload "
    "<pagerank_stream|kmeans_stream|sssp_failure|pagerank_par_sim>\n"
    "                         --seed <n> --seconds <s> --trace <0|1>\n"
    "                         [--trace-out <path>]\n";

// Virtual-time budget for one query; a query that has not converged by
// then counts as failed.
constexpr double kQueryTimeout = 600.0;
// Virtual seconds the final query waits, with ingest paused, so the main
// loop absorbs every input before the branch forks.
constexpr double kFinalSettle = 1.0;
// pagerank_par_sim replays this many of its streams on sim as well.
constexpr uint32_t kParSimChecks = 3;

enum class Kind { kPageRank, kKMeans, kSsspFailure };

struct Workload {
  const char* name;
  Kind kind;
  SubstrateBackend backend;
  // Closed-loop query cadence for the stream workloads: one query every
  // `query_every` ingested tuples after `warmup`, one at a time.
  uint64_t tuples = 0;
  uint64_t warmup = 0;
  uint64_t query_every = 0;
  double rate = 0.0;  // ingest tuples per virtual second
  // Relative-error tolerance of the final answer against the exact solver.
  double tolerance = 0.0;
  // Streams whose virtual metrics are pooled; every run drives at least
  // this many, each from its own seed.
  uint32_t streams = 1;
};

// The stream workloads use the Fig. 5 jobs (bench_fig5_pagerank /
// bench_fig5_kmeans: delay bound 64, progress period 2 ms, the same
// ingest rates) on smaller streams, many per run. Seeds move one stream
// a lot: a 1000-tuple PageRank stream can answer queries 8x faster or
// slower than the next, and the bounded-asynchronous main loop does up to
// 2.7x more work on one seed than another. Averaging many independent
// streams per run keeps the run-to-run spread small; README.md has the
// measured spreads.
//
// Tolerances: PageRank's is on the L1 error over the L1 rank mass, and
// allows for the program's 3e-3 emission threshold, which lets every
// in-edge withhold a small contribution change (measured: 0.02-0.03).
// KMeans' is on the centroid displacement Lloyd's algorithm still makes
// from the answer, over the largest centroid norm. SSSP is exact.
const Workload kWorkloads[] = {
    {"pagerank_stream", Kind::kPageRank, SubstrateBackend::kSim, 1000, 300, 10,
     1500.0, 5e-2, 30},
    {"kmeans_stream", Kind::kKMeans, SubstrateBackend::kSim, 8000, 2400, 400,
     3000.0, 1e-3, 8},
    {"sssp_failure", Kind::kSsspFailure, SubstrateBackend::kSim, 0, 0, 0, 0.0,
     1e-12, 12},
    {"pagerank_par_sim", Kind::kPageRank, SubstrateBackend::kParSim, 1000, 300,
     10, 1500.0, 5e-2, 30},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

// Strict: every flag takes a value, unknown flags and duplicates are
// errors, and the four run flags are required.
bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--trace-out") {
      *error = "unknown argument: " + flag;
      return false;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    if (!values.emplace(flag, argv[i + 1]).second) {
      *error = "duplicate flag: " + flag;
      return false;
    }
  }
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace"}) {
    if (values.count(required) == 0) {
      *error = std::string("missing required flag ") + required;
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (values["--workload"] == w.name) args->workload = &w;
  }
  if (args->workload == nullptr) {
    *error = "unknown workload: " + values["--workload"];
    return false;
  }
  if (!ParseUnsigned(values["--seed"], &args->seed)) {
    *error = "--seed must be a non-negative integer";
    return false;
  }
  uint64_t seconds = 0;
  if (!ParseUnsigned(values["--seconds"], &seconds) || seconds < 1 ||
      seconds > 60) {
    *error = "--seconds must be an integer in [1, 60]";
    return false;
  }
  args->seconds = static_cast<double>(seconds);
  const std::string& trace = values["--trace"];
  if (trace != "0" && trace != "1") {
    *error = "--trace must be 0 or 1";
    return false;
  }
  args->trace = trace == "1";
  if (values.count("--trace-out") != 0) args->trace_out = values["--trace-out"];
  return true;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t index = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(index, v.size() - 1)];
}

// ---------------------------------------------------------------------------
// One stream's outcome.

struct StoreStats {
  uint64_t versions = 0;
  uint64_t bytes = 0;
  uint64_t arena_bytes = 0;
  uint64_t compactions = 0;

  bool operator==(const StoreStats&) const = default;
};

// What a stream's seed fixes: all of it must repeat bit for bit, traced
// or not, and (for pagerank_par_sim) across backends.
struct VirtualOutcome {
  std::vector<double> latencies_vs;  // answered queries, in submit order
  uint64_t attempted = 0;
  uint64_t unanswered = 0;
  std::vector<double> answer;  // the final query's answer vector
  uint64_t violations = 0;
  std::map<std::string, int64_t> counters;
  StoreStats store;
  double recovery_vs = 0.0;

  bool operator==(const VirtualOutcome&) const = default;
};

// Names the fields in which two outcomes differ, for failure messages.
std::string DiffFields(const VirtualOutcome& a, const VirtualOutcome& b) {
  std::string out;
  auto field = [&](bool same, const char* name) {
    if (!same) out += std::string(out.empty() ? "" : ",") + name;
  };
  field(a.latencies_vs == b.latencies_vs, "latencies");
  field(a.attempted == b.attempted && a.unanswered == b.unanswered, "queries");
  field(a.answer == b.answer, "answer");
  field(a.violations == b.violations, "violations");
  field(a.store.versions == b.store.versions, "store.versions");
  field(a.store.bytes == b.store.bytes, "store.bytes");
  field(a.store.arena_bytes == b.store.arena_bytes, "store.arena_bytes");
  field(a.store.compactions == b.store.compactions, "store.compactions");
  field(a.recovery_vs == b.recovery_vs, "recovery");
  for (const auto& [name, value] : a.counters) {
    auto it = b.counters.find(name);
    field(it != b.counters.end() && it->second == value, name.c_str());
  }
  return out;
}

struct Outcome {
  VirtualOutcome v;
  // Host seconds.
  double gen_s = 0.0;
  double setup_s = 0.0;  // generation + cluster build
  double run_s = 0.0;    // the timed drive, final answer read included
  double cpu_s = 0.0;    // process CPU seconds during the drive
  double read_s = 0.0;   // reading the final answer from the store
  std::vector<double> query_host_s;
  // Traced runs only.
  ProgramTotals program;
  uint64_t events = 0;         // fired by the sliced drive loop (sim)
  uint64_t pending_peak = 0;   // event-slab high-water mark (sim)
  double slices_s = 0.0;       // host time inside drive slices
  double slice_children_s = 0.0;  // program callbacks inside those slices
  double pred_s = 0.0;         // drive predicate checks between slices
};

// ---------------------------------------------------------------------------
// Inputs and exact references.

std::vector<Delta> GenerateInputs(const Workload& w, uint64_t seed) {
  std::unique_ptr<StreamSource> source;
  if (w.kind == Kind::kKMeans) {
    source = std::make_unique<PointStream>(bench::BenchPoints(w.tuples, seed));
  } else {
    source = std::make_unique<GraphStream>(bench::BenchGraph(w.tuples, seed));
  }
  std::vector<Delta> out;
  out.reserve(source->TotalTuples());
  while (auto tuple = source->Next()) out.push_back(std::move(tuple->delta));
  return out;
}

DynamicGraph GraphPrefix(const std::vector<Delta>& inputs, size_t count) {
  DynamicGraph graph;
  for (size_t i = 0; i < count && i < inputs.size(); ++i) {
    graph.Apply(std::get<EdgeDelta>(inputs[i]));
  }
  return graph;
}

// What a last answer is checked against. Graph answers list one value per
// vertex in `vertices` order.
struct Reference {
  std::vector<VertexId> vertices;       // graph workloads
  std::vector<double> expected;         // per vertex (graph workloads)
  std::map<uint64_t, std::vector<double>> points;  // KMeans
};

Reference PageRankReference(const std::vector<Delta>& inputs, double damping) {
  const DynamicGraph graph = GraphPrefix(inputs, inputs.size());
  const PageRankSolution exact =
      SolvePageRank(graph, damping, 1e-13, {}, 5000);
  Reference ref;
  ref.vertices = graph.Vertices();
  std::sort(ref.vertices.begin(), ref.vertices.end());
  for (VertexId v : ref.vertices) ref.expected.push_back(exact.rank.at(v));
  return ref;
}

Reference SsspReference(const std::vector<Delta>& inputs, size_t prefix) {
  const DynamicGraph graph = GraphPrefix(inputs, prefix);
  const SsspSolution exact = SolveSssp(graph, bench::kBenchSsspSource);
  Reference ref;
  ref.vertices = graph.Vertices();
  std::sort(ref.vertices.begin(), ref.vertices.end());
  for (VertexId v : ref.vertices) {
    auto it = exact.dist.find(v);
    ref.expected.push_back(it == exact.dist.end() ? kSsspInfinity : it->second);
  }
  return ref;
}

Reference KMeansReference(const std::vector<Delta>& inputs) {
  Reference ref;
  for (const Delta& d : inputs) {
    const PointDelta& p = std::get<PointDelta>(d);
    if (p.insert) {
      ref.points[p.id] = p.coords;
    } else {
      ref.points.erase(p.id);
    }
  }
  return ref;
}

// PageRank: L1 error over the L1 rank mass.
double PageRankError(const Reference& ref, const std::vector<double>& got) {
  if (got.size() != ref.expected.size()) return 1.0;
  double err = 0.0, mass = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    err += std::fabs(got[i] - ref.expected[i]);
    mass += std::fabs(ref.expected[i]);
  }
  return mass > 0.0 ? err / mass : 1.0;
}

// SSSP: largest error over max(1, distance); a vertex reachable in one
// answer and not in the other counts as 1.
double SsspError(const Reference& ref, const std::vector<double>& got) {
  if (got.size() != ref.expected.size()) return 1.0;
  double err = 0.0;
  for (size_t i = 0; i < got.size(); ++i) {
    const double want = ref.expected[i];
    if ((want >= kSsspInfinity) != (got[i] >= kSsspInfinity)) {
      err = std::max(err, 1.0);
    } else if (want < kSsspInfinity) {
      err = std::max(err, std::fabs(got[i] - want) / std::max(1.0, want));
    }
  }
  return err;
}

// KMeans: Lloyd's algorithm started from the answer must not move any
// centroid; the error is the largest move over the largest centroid norm.
double KMeansAnswerError(const Reference& ref, const std::vector<double>& got,
                         uint32_t k, uint32_t dims) {
  if (got.size() != static_cast<size_t>(k) * dims) return 1.0;
  std::vector<std::vector<double>> centroids(k);
  for (uint32_t c = 0; c < k; ++c) {
    centroids[c].assign(got.begin() + c * dims, got.begin() + (c + 1) * dims);
  }
  const KMeansSolution exact = SolveKMeans(ref.points, centroids, 1e-12, 1000);
  double move = 0.0, norm = 0.0;
  for (uint32_t c = 0; c < k; ++c) {
    double d2 = 0.0, n2 = 0.0;
    for (uint32_t j = 0; j < dims; ++j) {
      const double diff = exact.centroids[c][j] - centroids[c][j];
      d2 += diff * diff;
      n2 += exact.centroids[c][j] * exact.centroids[c][j];
    }
    move = std::max(move, std::sqrt(d2));
    norm = std::max(norm, std::sqrt(n2));
  }
  return norm > 0.0 ? move / norm : 1.0;
}

// ---------------------------------------------------------------------------
// Instrumentation shared by the workloads.

StoreStats ReadStoreStats(const VersionedStore& store,
                          const std::vector<LoopId>& loops) {
  StoreStats s;
  s.versions = store.TotalVersions();
  s.bytes = store.TotalBytes();
  for (LoopId loop : loops) {
    s.arena_bytes += store.ArenaBytes(loop);
    s.compactions += store.ArenaCompactions(loop);
  }
  return s;
}

std::map<std::string, int64_t> SnapshotCounters(const MetricRegistry& m) {
  std::map<std::string, int64_t> out;
  for (const auto& [name, value] : m.counters()) out[name] = value;
  return out;
}

// Host time of each query, from submit to the ingester's result hook.
// The hook runs on the ingester's service context, which on par_sim is a
// shard worker thread.
class QueryClock {
 public:
  void Submitted(uint64_t query) {
    const MutexLock lock(&mu_);
    submitted_[query] = WallNow();
  }
  void Completed(const CompletedQuery& q) {
    const double now = WallNow();
    const MutexLock lock(&mu_);
    auto it = submitted_.find(q.query_id);
    if (it != submitted_.end()) host_s_.push_back(now - it->second);
  }
  std::vector<double> host_seconds() const {
    const MutexLock lock(&mu_);
    return host_s_;
  }

 private:
  mutable Mutex mu_;
  std::map<uint64_t, double> submitted_ GUARDED_BY(mu_);
  std::vector<double> host_s_ GUARDED_BY(mu_);
};

// Drives a cluster. Untraced, it calls the cluster's own drive loop.
// Traced on `sim`, it runs a copy of SimSubstrate::RunUntil's slicing
// over the event loop, so the event interleaving is unchanged, and times
// each slice and each predicate check. Traced on par_sim, each drive call
// is one span.
class Driver {
 public:
  Driver(TornadoCluster* cluster, Outcome* out, const TimedProgram* timed,
         SpanLog* spans)
      : cluster_(cluster), out_(out), timed_(timed), spans_(spans) {
    if (timed_ != nullptr) {
      auto* sim = dynamic_cast<SimSubstrate*>(&cluster_->substrate());
      loop_ = sim == nullptr ? nullptr : sim->loop();
    }
  }

  bool RunUntil(const std::function<bool()>& pred, double timeout, int parent,
                uint64_t query) {
    constexpr double kCheckEvery = 0.01;  // TornadoCluster::RunUntil's
    if (timed_ == nullptr) return cluster_->RunUntil(pred, timeout);
    if (loop_ == nullptr) {
      const int span = spans_->Begin("drive", parent, query);
      const bool done = cluster_->RunUntil(pred, timeout);
      spans_->End(span);
      return done;
    }
    const double deadline = loop_->now() + timeout;
    while (loop_->now() < deadline) {
      if (TimedPred(pred)) return true;
      const double slice = std::min(loop_->now() + kCheckEvery, deadline);
      Slice(slice, parent, query);
      if (loop_->empty() && !TimedPred(pred)) return TimedPred(pred);
    }
    return TimedPred(pred);
  }

  void RunFor(double seconds, int parent, uint64_t query) {
    if (timed_ == nullptr) {
      cluster_->RunFor(seconds);
    } else if (loop_ == nullptr) {
      const int span = spans_->Begin("drive", parent, query);
      cluster_->RunFor(seconds);
      spans_->End(span);
    } else {
      Slice(loop_->now() + seconds, parent, query);
    }
  }

 private:
  bool TimedPred(const std::function<bool()>& pred) {
    const double t0 = WallNow();
    const bool held = pred();
    out_->pred_s += WallNow() - t0;
    return held;
  }

  void Slice(double until, int parent, uint64_t query) {
    const double child0 = timed_->ThreadTotals().callbacks_s();
    const int span = spans_->Begin("sim.slice", parent, query);
    const double t0 = WallNow();
    out_->events += loop_->RunUntil(until);
    const double dt = WallNow() - t0;
    const double child = timed_->ThreadTotals().callbacks_s() - child0;
    spans_->End(span, child);
    out_->slices_s += dt;
    out_->slice_children_s += child;
  }

  TornadoCluster* cluster_;
  Outcome* out_;
  const TimedProgram* timed_;
  SpanLog* spans_;
  EventLoop* loop_ = nullptr;
};

// ---------------------------------------------------------------------------
// Stream workloads: pagerank_stream, kmeans_stream, pagerank_par_sim.

JobConfig StreamJob(const Workload& w, uint64_t seed) {
  JobConfig config = w.kind == Kind::kKMeans ? bench::KMeansJob(64)
                                             : bench::PageRankJob(64);
  if (w.kind == Kind::kPageRank) {
    config.program = std::make_shared<PageRankProgram>(0.85, 3e-3);
  }
  config.cost.progress_period = 2e-3;
  config.ingest_rate = w.rate;
  config.seed = seed;
  config.backend = w.backend;
  config.sim_shards = 4;
  return config;
}

std::vector<double> ReadAnswer(const Workload& w, const TornadoCluster& cluster,
                               LoopId branch, const Reference& ref) {
  std::vector<double> answer;
  if (w.kind == Kind::kKMeans) {
    const PointStreamOptions opts = bench::BenchPoints(w.tuples);
    for (uint32_t k = 0; k < opts.num_clusters; ++k) {
      auto state = cluster.ReadVertexState(branch, KMeansCentroidVertex(k));
      if (state == nullptr) return {};
      const auto& pos =
          static_cast<const KMeansCentroidState&>(*state).position;
      answer.insert(answer.end(), pos.begin(), pos.end());
    }
    return answer;
  }
  answer.reserve(ref.vertices.size());
  for (VertexId v : ref.vertices) {
    auto state = cluster.ReadVertexState(branch, v);
    double value = w.kind == Kind::kPageRank ? 1.0 : kSsspInfinity;
    if (state != nullptr) {
      value = w.kind == Kind::kPageRank
                  ? static_cast<const PageRankState&>(*state).rank
                  : static_cast<const SsspState&>(*state).length;
    }
    answer.push_back(value);
  }
  return answer;
}

Outcome RunStream(const Workload& w, uint64_t seed, const Reference& ref,
                  bool traced, SpanLog* spans, SubstrateBackend backend) {
  Outcome out;
  const int root = traced ? spans->Begin("stream", -1) : -1;

  const double setup_start = WallNow();
  int span = traced ? spans->Begin("stream.gen", root) : -1;
  std::vector<Delta> inputs = GenerateInputs(w, seed);
  out.gen_s = WallNow() - setup_start;
  if (traced) spans->End(span);

  span = traced ? spans->Begin("cluster.build", root) : -1;
  JobConfig config = StreamJob(w, seed);
  config.backend = backend;
  std::shared_ptr<TimedProgram> timed;
  if (traced) {
    timed = std::make_shared<TimedProgram>(config.program);
    config.program = timed;
  }
  const uint64_t total = inputs.size();
  TornadoCluster cluster(config,
                         std::make_unique<VectorStream>(std::move(inputs)));
  CheckObserver checker(CheckObserver::Options{
      /*abort_on_violation=*/false, &cluster.store()});
  cluster.AddEngineObserver(&checker);
  QueryClock query_clock;
  cluster.ingester().set_result_hook(
      [&query_clock](const CompletedQuery& q) { query_clock.Completed(q); });
  out.setup_s = WallNow() - setup_start;
  if (traced) spans->End(span);

  Driver driver(&cluster, &out, timed.get(), spans);
  Ingester& ingester = cluster.ingester();
  std::vector<LoopId> loops = {kMainLoop};
  auto ask = [&](int parent) -> std::optional<LoopId> {
    const uint64_t q = ingester.SubmitQuery();
    query_clock.Submitted(q);
    ++out.v.attempted;
    const int qspan = traced ? spans->Begin("query", parent, q) : -1;
    const bool done = driver.RunUntil(
        [&]() { return ingester.FindCompleted(q).has_value(); },
        kQueryTimeout, qspan, q);
    if (traced) spans->End(qspan);
    if (!done) {
      ++out.v.unanswered;
      return std::nullopt;
    }
    out.v.latencies_vs.push_back(cluster.QueryLatency(q));
    loops.push_back(cluster.BranchOf(q));
    return cluster.BranchOf(q);
  };

  const double run_start = WallNow();
  const double cpu_start = CpuNow();
  const int drive = traced ? spans->Begin("drive", root) : -1;
  cluster.Start();
  span = traced ? spans->Begin("ingest.warmup", drive) : -1;
  bool ok = driver.RunUntil([&]() { return ingester.emitted() >= w.warmup; },
                            kQueryTimeout, span, 0);
  if (traced) spans->End(span);
  // Closed loop: the next query is submitted only after the previous one
  // converged, at the first cadence boundary not yet passed.
  for (uint64_t boundary = w.warmup + w.query_every; ok && boundary < total;
       boundary += w.query_every) {
    span = traced ? spans->Begin("ingest", drive) : -1;
    ok = driver.RunUntil([&]() { return ingester.emitted() >= boundary; },
                         kQueryTimeout, span, 0);
    if (traced) spans->End(span);
    if (ok) ok = ask(drive).has_value();
  }

  // Final query: all input ingested and gathered, ingest paused, so the
  // answer is exactly checkable.
  std::optional<LoopId> final_branch;
  if (ok) {
    span = traced ? spans->Begin("ingest.final", drive) : -1;
    ok = driver.RunUntil([&]() { return ingester.exhausted(); }, kQueryTimeout,
                         span, 0);
    ingester.Pause();
    ok = ok && driver.RunUntil(
                   [&]() {
                     return cluster.metrics().Get(metric::kInputsGathered) >=
                            static_cast<int64_t>(total);
                   },
                   kQueryTimeout, span, 0);
    driver.RunFor(kFinalSettle, span, 0);
    if (traced) spans->End(span);
    if (ok) final_branch = ask(drive);
  }
  if (final_branch.has_value()) {
    span = traced ? spans->Begin("storage.read", drive) : -1;
    const double t0 = WallNow();
    out.v.answer = ReadAnswer(w, cluster, *final_branch, ref);
    out.read_s = WallNow() - t0;
    if (traced) spans->End(span);
  } else {
    ++out.v.unanswered;  // the final, checkable query never ran
  }
  out.run_s = WallNow() - run_start;
  out.cpu_s = CpuNow() - cpu_start;
  if (traced) spans->End(drive);

  for (uint32_t p = 0; p < config.num_processors; ++p) {
    checker.DeepCheck(cluster.processor(p).sessions());
  }
  out.v.violations = checker.violations().size();
  out.v.counters = SnapshotCounters(cluster.metrics());
  out.v.store = ReadStoreStats(cluster.store(), loops);
  out.query_host_s = query_clock.host_seconds();
  if (traced) {
    out.program = timed->Totals();
    if (auto* sim = dynamic_cast<SimSubstrate*>(&cluster.substrate())) {
      out.pending_peak = sim->loop()->slot_capacity();
    }
    spans->End(root);
  }
  return out;
}

// ---------------------------------------------------------------------------
// sssp_failure: the Fig. 8d crash-restart scenario through ScenarioRunner,
// which always attaches the invariant checker.

struct FailureSetup {
  scenario::Scenario scenario;
  std::vector<Delta> inputs;  // the stream the runner will replay
};

bool LoadFailureScenario(uint64_t seed, FailureSetup* setup,
                         std::string* error) {
  std::vector<std::string> errors;
  const std::string path =
      std::string(PERFBENCH_DIR) + "/scenarios/fig8d_processor_failure.json";
  if (!scenario::LoadScenarioFile(path, &setup->scenario, &errors)) {
    *error = path + ": " + (errors.empty() ? "invalid" : errors.front());
    return false;
  }
  // The seed replaces both the engine seed and the stream seed.
  setup->scenario.seed = seed;
  setup->scenario.workload.stream_seed = seed;
  GraphStream stream(bench::BenchGraph(setup->scenario.workload.tuples, seed));
  setup->inputs.clear();
  while (auto tuple = stream.Next()) setup->inputs.push_back(tuple->delta);
  return true;
}

Outcome RunFailure(const Workload& w, uint64_t seed,
                   std::optional<Reference>* ref, bool traced,
                   SpanLog* spans) {
  Outcome out;
  const int root = traced ? spans->Begin("stream", -1) : -1;
  const double setup_start = WallNow();
  int span = traced ? spans->Begin("stream.gen", root) : -1;
  FailureSetup setup;
  std::string error;
  if (!LoadFailureScenario(seed, &setup, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(1);
  }
  out.gen_s = WallNow() - setup_start;
  if (traced) spans->End(span);

  QueryClock query_clock;
  std::unique_ptr<RecoveryProbe> probe;
  uint64_t query = 0;
  double build_start = 0.0, build_end = 0.0, check_start = 0.0;
  double cpu_start = 0.0, reference_s = 0.0;
  int window = -1;
  scenario::RunOptions hooks;
  hooks.after_build = [&](TornadoCluster& cluster) {
    build_end = WallNow();
    if (traced) spans->End(span);
    probe = std::make_unique<RecoveryProbe>(cluster.substrate().clock());
    cluster.AddEngineObserver(probe.get());
    cluster.transport().set_observer(probe.get());
    cluster.ingester().set_result_hook(
        [&query_clock](const CompletedQuery& q) { query_clock.Completed(q); });
    cpu_start = CpuNow();
    if (traced) span = spans->Begin("ingest.warmup", root);
  };
  hooks.before_query = [&](TornadoCluster& cluster) {
    if (traced) spans->End(span);
    // The runner submits the scripted query right after this hook; it is
    // the ingester's next query id.
    query = 1;
    query_clock.Submitted(query);
    if (!ref->has_value()) {
      // Built on first use, when the paused ingester has fixed the input
      // prefix the query sees; its time is taken out of run_s.
      const double t0 = WallNow();
      *ref = SsspReference(setup.inputs, cluster.ingester().emitted());
      reference_s = WallNow() - t0;
    }
    if (traced) window = spans->Begin("query", root, query);
  };
  hooks.after_sample = [&](TornadoCluster& cluster) {
    if (traced) spans->End(window);
    const LoopId branch = cluster.BranchOf(query);
    if (branch != 0 && ref->has_value()) {
      span = traced ? spans->Begin("storage.read", root) : -1;
      const double t0 = WallNow();
      out.v.answer = ReadAnswer(w, cluster, branch, **ref);
      out.read_s = WallNow() - t0;
      if (traced) spans->End(span);
    }
    out.v.store = ReadStoreStats(cluster.store(), {kMainLoop, branch});
    out.v.recovery_vs = probe->RecoverySeconds(cluster.now());
    out.cpu_s = CpuNow() - cpu_start - reference_s;
    if (auto* sim = dynamic_cast<SimSubstrate*>(&cluster.substrate())) {
      out.pending_peak = sim->loop()->slot_capacity();
    }
    check_start = WallNow();
  };

  scenario::ScenarioRunner runner(setup.scenario, hooks);
  span = traced ? spans->Begin("cluster.build", root) : -1;
  build_start = WallNow();
  const scenario::ScenarioVerdict verdict = runner.Run();
  if (check_start == 0.0) check_start = WallNow();  // warmup timed out
  out.setup_s = out.gen_s + (build_end - build_start);
  out.run_s = check_start - build_end - reference_s;
  if (traced) spans->End(root);

  out.v.attempted = 1;
  out.v.unanswered = verdict.completed && verdict.fixed_point_reached ? 0 : 1;
  if (verdict.query_latency >= 0.0) {
    out.v.latencies_vs.push_back(verdict.query_latency);
  }
  out.v.violations = verdict.violations.size();
  out.v.counters = verdict.counters;
  out.query_host_s = query_clock.host_seconds();
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int64_t Counter(const VirtualOutcome& v, const char* name) {
  auto it = v.counters.find(name);
  return it == v.counters.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


// Pools streams: counts and host times add up, latencies, answers and
// per-query host times are concatenated in stream order.
Outcome Sum(const std::vector<Outcome>& parts, size_t count) {
  Outcome sum;
  for (size_t i = 0; i < count && i < parts.size(); ++i) {
    const Outcome& o = parts[i];
    VirtualOutcome& v = sum.v;
    v.latencies_vs.insert(v.latencies_vs.end(), o.v.latencies_vs.begin(),
                          o.v.latencies_vs.end());
    v.attempted += o.v.attempted;
    v.unanswered += o.v.unanswered;
    v.violations += o.v.violations;
    for (const auto& [name, value] : o.v.counters) v.counters[name] += value;
    v.store.versions += o.v.store.versions;
    v.store.bytes += o.v.store.bytes;
    v.store.arena_bytes += o.v.store.arena_bytes;
    v.store.compactions += o.v.store.compactions;
    v.recovery_vs = std::max(v.recovery_vs, o.v.recovery_vs);
    sum.run_s += o.run_s;
    sum.cpu_s += o.cpu_s;
    sum.read_s += o.read_s;
    sum.query_host_s.insert(sum.query_host_s.end(), o.query_host_s.begin(),
                            o.query_host_s.end());
    sum.program.gather_s += o.program.gather_s;
    sum.program.scatter_s += o.program.scatter_s;
    sum.program.state_s += o.program.state_s;
    sum.program.gather_calls += o.program.gather_calls;
    sum.program.batch_calls += o.program.batch_calls;
    sum.program.batch_items += o.program.batch_items;
    sum.program.scatter_calls += o.program.scatter_calls;
    sum.events += o.events;
    sum.pending_peak = std::max(sum.pending_peak, o.pending_peak);
    sum.slices_s += o.slices_s;
    sum.slice_children_s += o.slice_children_s;
    sum.pred_s += o.pred_s;
  }
  return sum;
}

// The gated end-to-end metrics, over the untraced streams.
std::vector<Metric> EndToEnd(const std::vector<Outcome>& untraced) {
  std::vector<double> setups;
  double run = 0.0;
  for (const Outcome& o : untraced) {
    setups.push_back(o.setup_s);
    run += o.run_s;
  }
  return {
      {"setup_s", Median(setups), "s"},
      {"run_s", run / static_cast<double>(untraced.size()), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
}

// Per-layer metrics: totals over the traced streams, paired with the
// untraced runs of the same streams for CPU time and tracing overhead.
std::vector<Metric> PerLayer(const std::vector<Outcome>& untraced_runs,
                             const std::vector<Outcome>& traced_runs,
                             bool sliced) {
  const Outcome u = Sum(untraced_runs, traced_runs.size());
  const Outcome t = Sum(traced_runs, traced_runs.size());
  const VirtualOutcome& v = t.v;
  const ProgramTotals& p = t.program;
  std::vector<double> gen;
  for (const Outcome& o : untraced_runs) gen.push_back(o.gen_s);
  double self = 0.0, covered = 0.0;
  if (sliced) {
    // sim: the slices hold everything the event loop ran; their self time
    // is what is left once the program callbacks inside them are taken out.
    self = t.slices_s - t.slice_children_s;
    covered = t.slices_s + t.pred_s + t.read_s;
  } else {
    // par_sim callbacks overlap across shards, so their summed time is
    // scaled by the drive's wall/CPU ratio before it is taken out.
    // sssp_failure's program sits inside ScenarioRunner, out of reach of
    // the wrapper, so its callbacks stay in sim.self_s.
    self = (t.run_s - t.read_s) * (1.0 - Ratio(p.callbacks_s(), t.cpu_s));
    covered = t.run_s;
  }
  const double delivered =
      static_cast<double>(Counter(v, metric::kMessagesDelivered));
  const double inputs =
      static_cast<double>(Counter(v, metric::kInputsGathered));
  auto c = [&](const char* name) {
    return static_cast<double>(Counter(v, name));
  };
  return {
      {"sim.events", static_cast<double>(t.events), "count"},
      {"sim.events_per_msg", Ratio(static_cast<double>(t.events), delivered),
       "1/msg"},
      {"sim.pending_peak", static_cast<double>(t.pending_peak), "count"},
      {"sim.self_s", self, "s"},
      {"net.msgs_sent", c(metric::kMessagesSent), "count"},
      {"net.msgs_delivered", delivered, "count"},
      {"net.retransmits", c(metric::kMessagesRetransmitted), "count"},
      {"net.transport_acks", c(metric::kTransportAcks), "count"},
      {"net.deduped", c(metric::kMessagesDeduped), "count"},
      {"engine.inputs_gathered", inputs, "count"},
      {"engine.prepares", c(metric::kPreparesSent), "count"},
      {"engine.acks", c(metric::kAcksSent), "count"},
      {"engine.commits", c(metric::kUpdatesCommitted), "count"},
      {"engine.blocked", c(metric::kUpdatesBlocked), "count"},
      {"engine.commits_per_input", Ratio(c(metric::kUpdatesCommitted), inputs),
       "1/input"},
      {"algos.gather_s", p.gather_s, "s"},
      {"algos.scatter_s", p.scatter_s, "s"},
      {"algos.state_s", p.state_s, "s"},
      {"algos.gather_calls", static_cast<double>(p.gather_calls), "count"},
      {"algos.scatter_calls", static_cast<double>(p.scatter_calls), "count"},
      {"algos.batch_items_per_call",
       Ratio(static_cast<double>(p.batch_items),
             static_cast<double>(p.batch_calls)),
       "1/call"},
      {"storage.versions", static_cast<double>(v.store.versions), "count"},
      {"storage.bytes", static_cast<double>(v.store.bytes), "B"},
      {"storage.arena_bytes", static_cast<double>(v.store.arena_bytes), "B"},
      {"storage.compactions", static_cast<double>(v.store.compactions),
       "count"},
      {"storage.flushed", c(metric::kVersionsFlushed), "count"},
      {"storage.read_s", t.read_s, "s"},
      {"core.query_host_s_p50", Median(t.query_host_s), "s"},
      {"core.recovery_vs", v.recovery_vs, "vs"},
      {"stream.gen_s", Median(gen), "s"},
      {"runtime.cpu_s", u.cpu_s, "s"},
      {"runtime.parallelism", Ratio(u.cpu_s, u.run_s), "ratio"},
      {"check.violations", static_cast<double>(v.violations), "count"},
      {"bench.pred_s", t.pred_s, "s"},
      {"trace.overhead_frac", Ratio(t.run_s, u.run_s) - 1.0, "ratio"},
      {"trace.coverage_frac", Ratio(covered, t.run_s), "ratio"},
  };
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "\"" : ",\"") + metrics[i].name + "\":{\"value\":" +
           Num(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

// Stream i of a run replays the inputs of seed * 1000 + i, so runs with
// different seeds share no stream.
uint64_t StreamSeed(uint64_t seed, uint32_t stream) {
  return seed * 1000 + stream;
}

std::optional<Reference> BuildReference(const Workload& w, uint64_t seed) {
  if (w.kind == Kind::kSsspFailure) return std::nullopt;
  const std::vector<Delta> inputs = GenerateInputs(w, seed);
  return w.kind == Kind::kKMeans ? KMeansReference(inputs)
                                 : PageRankReference(inputs, 0.85);
}

double AnswerError(const Workload& w, const std::optional<Reference>& ref,
                   const VirtualOutcome& v) {
  if (v.answer.empty() || !ref.has_value()) return 1.0;
  if (w.kind == Kind::kKMeans) {
    const PointStreamOptions opts = bench::BenchPoints(w.tuples);
    return KMeansAnswerError(*ref, v.answer, opts.num_clusters,
                             opts.dimensions);
  }
  return w.kind == Kind::kPageRank ? PageRankError(*ref, v.answer)
                                   : SsspError(*ref, v.answer);
}

// Drives one stream of the workload. sssp_failure builds its reference on
// first use, once the paused ingester has fixed the input prefix.
Outcome DriveStream(const Workload& w, uint64_t seed,
                    std::optional<Reference>* ref, bool traced,
                    SpanLog* spans, SubstrateBackend backend) {
  return w.kind == Kind::kSsspFailure
             ? RunFailure(w, seed, ref, traced, spans)
             : RunStream(w, seed, **ref, traced, spans, backend);
}

// On par_sim, shards commit into the shared store concurrently, so the
// arena's physical layout, and with it when compaction triggers, follows
// host thread timing; those two are left out of the exact comparison
// there.
VirtualOutcome Comparable(VirtualOutcome v, SubstrateBackend backend) {
  if (backend == SubstrateBackend::kParSim) {
    v.store.arena_bytes = 0;
    v.store.compactions = 0;
  }
  return v;
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  SpanLog spans;
  bool correct = true;
  std::vector<Outcome> untraced, traced;
  double answer_err = 0.0;
  uint64_t beyond_tolerance = 0;

  // Drive the run's streams one after another: at least `pool` of them
  // (the set the virtual metrics pool), then more until --seconds have
  // passed. With --trace 1 each stream runs untraced, then traced, so the
  // pool is halved to keep the run's length.
  const uint32_t pool = args.trace ? (w.streams + 1) / 2 : w.streams;
  const double start = WallNow();
  for (uint32_t i = 0; i < pool || WallNow() - start < args.seconds; ++i) {
    const uint64_t seed = StreamSeed(args.seed, i);
    std::optional<Reference> ref = BuildReference(w, seed);
    auto drive = [&](bool trace, SubstrateBackend backend) {
      return DriveStream(w, seed, &ref, trace, &spans, backend);
    };
    untraced.push_back(drive(false, w.backend));
    const VirtualOutcome& v = untraced.back().v;
    if (args.trace) {
      traced.push_back(drive(true, w.backend));
      if (!(Comparable(traced.back().v, w.backend) ==
            Comparable(v, w.backend))) {
        std::fprintf(stderr, "FAIL: stream %u: traced run differs in: %s\n",
                     i, DiffFields(traced.back().v, v).c_str());
        correct = false;
      }
    }
    // par_sim must reproduce the serial simulation's virtual outputs.
    if (w.backend == SubstrateBackend::kParSim && i < kParSimChecks) {
      const Outcome serial = drive(false, SubstrateBackend::kSim);
      if (!(Comparable(serial.v, w.backend) == Comparable(v, w.backend))) {
        std::fprintf(stderr, "FAIL: stream %u: par_sim differs from sim in: "
                     "%s\n", i, DiffFields(serial.v, v).c_str());
        correct = false;
      }
    }
    const double err = AnswerError(w, ref, v);
    answer_err = std::max(answer_err, err);
    if (!(err <= w.tolerance)) ++beyond_tolerance;
  }
  const double measured_s = WallNow() - start;

  // Same seed, same virtual outputs: drive stream 0 once more.
  if (!args.trace) {
    const uint64_t seed = StreamSeed(args.seed, 0);
    std::optional<Reference> ref = BuildReference(w, seed);
    const Outcome again =
        DriveStream(w, seed, &ref, /*traced=*/false, &spans, w.backend);
    if (!(Comparable(again.v, w.backend) ==
          Comparable(untraced.front().v, w.backend))) {
      std::fprintf(stderr, "FAIL: stream 0 did not repeat; differs in: %s\n",
                   DiffFields(again.v, untraced.front().v).c_str());
      correct = false;
    }
  }
  if (w.backend == SubstrateBackend::kParSim && correct) {
    std::printf("par_sim virtual outputs equal sim's on streams 0-%u\n",
                kParSimChecks - 1);
  }

  const Outcome all = Sum(untraced, untraced.size());
  const uint64_t attempted = all.v.attempted;
  const uint64_t failed =
      all.v.unanswered + all.v.violations + beyond_tolerance;
  correct = correct && failed == 0;
  const VirtualOutcome pooled = Sum(untraced, pool).v;

  std::printf("workload %s seed %llu: %zu streams (%zu traced) in %.3f s, "
              "the first %u pooled for virtual metrics\n",
              w.name, static_cast<unsigned long long>(args.seed),
              untraced.size(), traced.size(), measured_s, pool);
  const std::vector<Metric> e2e = EndToEnd(untraced);
  // Printed, not gated: the virtual latencies pool the first `pool`
  // streams, a set the seed alone fixes, yet their spread across seeds is
  // too wide for a bound (README.md).
  std::vector<Metric> extra = {
      {"query_p50_vs", Percentile(pooled.latencies_vs, 50.0), "vs"},
      {"query_samples", static_cast<double>(pooled.latencies_vs.size()),
       "count"},
      {"answer_err", answer_err, "ratio"},
      {"answer_tolerance", w.tolerance, "ratio"},
      {"query_fail_frac",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "ratio"},
  };
  // Below ten samples beyond it a p90 is not a percentile of anything.
  if (pooled.latencies_vs.size() >= 100) {
    extra.push_back(
        {"query_p90_vs", Percentile(pooled.latencies_vs, 90.0), "vs"});
  }
  std::vector<Metric> layers;
  if (args.trace) {
    layers = PerLayer(untraced, traced,
                      w.backend == SubstrateBackend::kSim &&
                          w.kind != Kind::kSsspFailure);
  }
  for (const std::vector<Metric>* group :
       std::initializer_list<const std::vector<Metric>*>{&e2e, &extra,
                                                         &layers}) {
    for (const Metric& m : *group) {
      std::printf("metric %s %s %s\n", m.name.c_str(), Num(m.value).c_str(),
                  m.unit.c_str());
    }
  }

  if (args.trace && !args.trace_out.empty()) {
    const std::string header =
        "\"workload\":\"" + std::string(w.name) +
        "\",\"seed\":" + std::to_string(args.seed);
    if (!spans.Write(args.trace_out, header)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu spans to %s\n", spans.size(),
                args.trace_out.c_str());
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              MetricsJson(args.trace ? layers : e2e).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace tornado

int main(int argc, char** argv) {
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::perfbench::Args args;
  std::string error;
  if (!tornado::perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "error: %s\n%s", error.c_str(),
                 tornado::perfbench::kUsage);
    return 2;
  }
  return tornado::perfbench::Run(args);
}
