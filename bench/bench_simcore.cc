// Wall-clock throughput harness for the simulation substrate itself: the
// event loop, the reliable transport, and the versioned store are the
// constant factors every figure/table bench pays per simulated message, so
// their real-time cost is tracked here as BENCH_simcore.json (repo root).
//
// Unlike the fig*/table* benches (which measure *virtual* time), this one
// measures *host* wall time: events drained per second, puts+snapshot-reads
// per second, reliable messages per second, and the end-to-end wall time of
// a small fig5-pagerank run.
//
// Flags:
//   --smoke            scaled-down sizes for CI (seconds, not minutes)
//   --out <path>       where to write the JSON (default BENCH_simcore.json)
//   --check <path>     compare against a previously committed JSON and exit
//                      non-zero if el_drain_events_per_sec or any kernel_*
//                      throughput regressed >30%, or if net_events_per_msg
//                      (a deterministic count) rose at all. Refuses to
//                      compare when the committed JSON was produced with
//                      different knobs (smoke size, host core count):
//                      cross-knob numbers measure nothing.
//   --no-json          skip writing the JSON (just print the table)
//   --backend=sim|par_sim|thread|both
//                      which runtime substrate(s) drive the fig5 e2e run
//                      (default sim; thread measures real OS threads;
//                      par_sim sweeps a shard-count scaling curve;
//                      both runs all three)
//   --shards=N         top of the par_sim scaling curve (default 4): the
//                      e2e run is measured at shard counts 1, 2, 4, ... N
//
// Any other argument, the `--out=PATH` / `--check=PATH` spellings, or a
// flag without its value print a usage line and exit 2 before any work.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "kernel/flat_map.h"
#include "kernel/kernels.h"
#include "net/network.h"
#include "sim/event_loop.h"
#include "storage/versioned_store.h"
#include "stream/graph_stream.h"

namespace tornado {
namespace bench {
namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic cheap mixer so scheduled times / read points are spread
// without depending on the substrate's own RNG.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

// --- 1. Event-loop drain: schedule N events at scattered times, drain. ---
double BenchEventLoopDrain(uint64_t n) {
  EventLoop loop;
  uint64_t sink = 0;
  const double t0 = WallNow();
  for (uint64_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(Mix(i) % 1000000) * 1e-3;
    loop.ScheduleAt(t, [&sink, i]() { sink += i; });
  }
  const uint64_t fired = loop.Run();
  const double dt = WallNow() - t0;
  TCHECK_EQ(fired, n);
  TCHECK_GT(sink, 0u);
  return static_cast<double>(n) / dt;
}

// --- 2. Schedule/cancel churn: the retransmit-timer re-arm pattern. ---
double BenchEventLoopChurn(uint64_t n) {
  EventLoop loop;
  const double t0 = WallNow();
  EventId prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const EventId id = loop.Schedule(1e6 + static_cast<double>(i), []() {});
    if (prev != 0) loop.Cancel(prev);
    prev = id;
  }
  loop.Cancel(prev);
  const double dt = WallNow() - t0;
  TCHECK_EQ(loop.pending(), 0u);
  // One schedule + one cancel per iteration.
  return static_cast<double>(2 * n) / dt;
}

// --- 3. Versioned store: version-chain appends + snapshot reads. ---
double BenchStorePutRead(uint64_t vertices, uint64_t iters, uint64_t reads) {
  VersionedStore store;
  std::vector<uint8_t> value(32, 0);
  const double t0 = WallNow();
  for (uint64_t it = 1; it <= iters; ++it) {
    for (uint64_t v = 0; v < vertices; ++v) {
      value[0] = static_cast<uint8_t>(it);
      store.Put(/*loop=*/0, v, it, value);
    }
  }
  uint64_t sink = 0;
  for (uint64_t r = 0; r < reads; ++r) {
    const VertexId v = Mix(r) % vertices;
    const Iteration at = 1 + Mix(r + 17) % iters;
    const VersionView got = store.Get(0, v, at);
    if (got) sink += got[0];
  }
  const double dt = WallNow() - t0;
  TCHECK_GT(sink, 0u);
  return static_cast<double>(vertices * iters + reads) / dt;
}

// --- 4. Reliable transport burst: messages/sec and fired events/msg. ---
struct NetBurstResult {
  double msgs_per_sec = 0.0;
  double events_per_msg = 0.0;
};

struct NullPayload : Payload {
  const char* name() const override { return "Null"; }
};

class CountingNode : public Node {
 public:
  void OnMessage(NodeId, const Payload&) override { ++received; }
  uint64_t received = 0;
};

NetBurstResult BenchNetBurst(uint64_t messages) {
  EventLoop loop;
  CostModel cost;
  Network net(&loop, cost, /*seed=*/11);
  CountingNode a, b;
  net.RegisterNode(&a, /*host=*/0);
  net.RegisterNode(&b, /*host=*/1);
  auto payload = std::make_shared<NullPayload>();
  const double t0 = WallNow();
  uint64_t fired = 0;
  for (uint64_t i = 0; i < messages; ++i) {
    net.Send(/*src=*/0, /*dst=*/1, payload, /*reliable=*/true);
  }
  fired += loop.Run();
  const double dt = WallNow() - t0;
  TCHECK_EQ(b.received, messages);
  NetBurstResult r;
  r.msgs_per_sec = static_cast<double>(messages) / dt;
  r.events_per_msg = static_cast<double>(fired) / static_cast<double>(messages);
  return r;
}

// --- 5. End-to-end: a small fig5-style pagerank run, wall seconds. ---
// On the sim backend this measures the simulator's constant factors; on
// the thread backend it is a true wall-clock run (ingestion happens in
// real time, so the rate knob sets a hard floor on the duration).
double BenchPagerankE2E(uint64_t tuples, SubstrateBackend backend,
                        uint32_t shards = 4) {
  JobConfig config = PageRankJob(/*delay_bound=*/64);
  config.program = std::make_shared<PageRankProgram>(0.85, 3e-3);
  config.cost.progress_period = 2e-3;
  config.backend = backend;
  config.sim_shards = shards;
  StreamFactory stream = [tuples]() {
    return std::make_unique<GraphStream>(BenchGraph(tuples, /*seed=*/5));
  };
  const double t0 = WallNow();
  Histogram h = RunApproximateSeries(config, stream, /*warmup=*/tuples * 3 / 10,
                                     tuples, /*query_every=*/tuples / 5,
                                     /*rate=*/1500.0, /*max_queries=*/3);
  const double dt = WallNow() - t0;
  TCHECK_GT(h.count(), 0u);
  return dt;
}

// --- 6. Kernel substrate: the SoA batch kernels behind the four algo
// programs (src/kernel/). Scatter ops/sec is the per-element throughput of
// the algo's Scatter-side kernel under the auto-dispatched SIMD variant;
// deltas applied/sec is the algo's OnUpdate state-delta pattern over the
// sorted flat SoA containers; the speedup is forced-scalar time over
// auto-dispatched time for the same reduction pass.
struct KernelBenchResult {
  double scatter_ops_per_sec = 0.0;
  double deltas_per_sec = 0.0;
  double simd_speedup = 1.0;
};

// One Scatter-side kernel pass for `algo` over n-element arrays; returns a
// value derived from the data so the work cannot be elided.
double KernelPass(const std::string& algo, const double* x, const double* y,
                  double* w, size_t n) {
  const kernel::KernelOps& ops = kernel::Kernels();
  if (algo == "pagerank") return ops.sum(x, n);      // rank re-sum
  if (algo == "sssp") return ops.min(x, n);          // candidate min
  if (algo == "kmeans") return ops.sqdist(x, y, n);  // distance scan
  ops.sgd_step(w, x, 64.0, 1e-3, 1e-4, n);           // descent step
  return w[0];
}

// The gather side: the algo's per-delta state mutation over SoA state.
double BenchKernelDeltas(const std::string& algo, uint64_t deltas,
                         const std::vector<double>& x) {
  const kernel::KernelOps& ops = kernel::Kernels();
  const size_t n = x.size();
  double t0 = 0.0;
  if (algo == "kmeans") {
    // Point-delta folds: axpy into a cluster's running coordinate sums.
    FlatMap<uint32_t, std::vector<double>, 8> sums;
    for (uint32_t k = 0; k < 10; ++k) sums[k].assign(20, 0.0);
    t0 = WallNow();
    for (uint64_t i = 0; i < deltas; ++i) {
      std::vector<double>& s = sums.at_index(Mix(i) % 10);
      ops.axpy(s.data(), (i & 1) ? 1.0 : -1.0, x.data(), 20);
    }
  } else if (algo == "sgd") {
    // Mini-batch gradient applies against a dense weight vector.
    std::vector<double> weights(28, 0.0);
    t0 = WallNow();
    for (uint64_t i = 0; i < deltas; ++i) {
      ops.sgd_step(weights.data(), x.data(), 64.0, 1e-6, 1e-4,
                   weights.size());
    }
    TCHECK(std::isfinite(weights[0]));
  } else {
    // pagerank / sssp: producer-keyed upserts with occasional retraction,
    // over a bounded producer working set (bench-graph in-degrees are
    // small).
    FlatMap<VertexId, double, 8> m;
    t0 = WallNow();
    for (uint64_t i = 0; i < deltas; ++i) {
      const VertexId src = Mix(i) % 64;
      if (algo == "sssp" && Mix(i + 3) % 16 == 0) {
        m.erase(src);
        continue;
      }
      auto [it, inserted] = m.emplace(src, x[i & (n - 1)]);
      if (!inserted) it->second = x[i & (n - 1)];
    }
  }
  return static_cast<double>(deltas) / (WallNow() - t0);
}

KernelBenchResult BenchKernelAlgo(const std::string& algo, uint64_t reps,
                                  uint64_t deltas, size_t n) {
  std::vector<double> x(n), y(n), w(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    x[i] = 1e-3 * static_cast<double>(1 + Mix(i) % 1000);
    y[i] = 1e-3 * static_cast<double>(1 + Mix(i + 7) % 1000);
  }

  double sink = 0.0;
  double t0 = WallNow();
  for (uint64_t r = 0; r < reps; ++r) {
    sink += KernelPass(algo, x.data(), y.data(), w.data(), n);
  }
  const double active_dt = WallNow() - t0;

  // Forced-scalar reference for the speedup column.
  const kernel::KernelVariant active = kernel::ActiveKernelVariant();
  TCHECK(kernel::SetKernelVariant(kernel::KernelVariant::kScalar));
  std::fill(w.begin(), w.end(), 0.0);
  t0 = WallNow();
  for (uint64_t r = 0; r < reps; ++r) {
    sink += KernelPass(algo, x.data(), y.data(), w.data(), n);
  }
  const double scalar_dt = WallNow() - t0;
  TCHECK(kernel::SetKernelVariant(active));
  TCHECK(std::isfinite(sink));

  KernelBenchResult r;
  r.scatter_ops_per_sec =
      static_cast<double>(reps) * static_cast<double>(n) / active_dt;
  r.simd_speedup = scalar_dt / active_dt;
  r.deltas_per_sec = BenchKernelDeltas(algo, deltas, x);
  return r;
}

// Minimal extractor for the flat JSON this bench writes: finds
// "<key>": <number> and returns the number (0.0 when absent).
double JsonNumber(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  bool write_json = true;
  bool run_sim = true;     // which backend(s) drive the fig5 e2e run
  bool run_thread = false;
  bool run_par = false;
  uint32_t max_shards = 4;  // top of the par_sim scaling curve
  std::string out_path = "BENCH_simcore.json";
  std::string check_path;
  // Strict: anything unrecognised exits 2 before any work or output, so a
  // typo such as `--out=x` cannot silently overwrite the default JSON.
  const auto usage = [&](const std::string& problem) {
    std::fprintf(stderr,
                 "bench_simcore: %s\n"
                 "usage: bench_simcore [--smoke] [--no-json] [--out PATH] "
                 "[--check PATH] [--backend=sim|par_sim|thread|both] "
                 "[--shards=N]\n",
                 problem.c_str());
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--no-json") {
      write_json = false;
    } else if (arg == "--out" || arg == "--check") {
      if (i + 1 == argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        return usage(arg + " needs a PATH value");
      }
      (arg == "--out" ? out_path : check_path) = argv[++i];
    } else if (arg == "--backend=sim") {
      run_sim = true; run_thread = false; run_par = false;
    } else if (arg == "--backend=thread") {
      run_sim = false; run_thread = true; run_par = false;
    } else if (arg == "--backend=par_sim") {
      run_sim = false; run_thread = false; run_par = true;
    } else if (arg == "--backend=both") {
      run_sim = true; run_thread = true; run_par = true;
    } else if (arg.rfind("--shards=", 0) == 0) {
      const char* value = arg.c_str() + std::strlen("--shards=");
      char* end = nullptr;
      const unsigned long n = std::strtoul(value, &end, 10);
      if (*value < '0' || *value > '9' || *end != '\0' || n == 0 ||
          n > UINT32_MAX) {
        return usage("--shards needs a positive shard count");
      }
      max_shards = static_cast<uint32_t>(n);
    } else {
      return usage("unknown flag '" + arg + "'");
    }
  }

  // par_sim scaling curve: powers of two up to and including max_shards.
  std::vector<uint32_t> shard_curve;
  for (uint32_t s = 1; s < max_shards; s <<= 1) shard_curve.push_back(s);
  shard_curve.push_back(max_shards);

  PrintHeader("Simulation-substrate wall-clock throughput", "BENCH_simcore");
  // Built before the work so its top-level wall_seconds covers the run.
  BenchJson json("simcore");

  const uint64_t kDrainN = smoke ? 400000 : 2000000;
  const uint64_t kChurnN = smoke ? 400000 : 2000000;
  const uint64_t kVerts = smoke ? 400 : 1000;
  const uint64_t kIters = smoke ? 250 : 500;
  const uint64_t kReads = smoke ? 400000 : 2000000;
  const uint64_t kMsgs = smoke ? 20000 : 60000;
  const uint64_t kTuples = smoke ? 4000 : 8000;
  const uint64_t kKernelReps = smoke ? 20000 : 100000;
  const uint64_t kKernelDeltas = smoke ? 500000 : 2000000;
  const size_t kKernelLen = 1024;  // power of two (indexing masks below)

  const double el_drain = BenchEventLoopDrain(kDrainN);
  const double el_churn = BenchEventLoopChurn(kChurnN);
  const double store_ops = BenchStorePutRead(kVerts, kIters, kReads);
  const NetBurstResult net = BenchNetBurst(kMsgs);
  const double pagerank_wall =
      run_sim ? BenchPagerankE2E(kTuples, SubstrateBackend::kSim) : 0.0;
  const double pagerank_wall_thread =
      run_thread ? BenchPagerankE2E(kTuples, SubstrateBackend::kThread) : 0.0;
  std::vector<double> pagerank_wall_par;  // one entry per shard_curve point
  if (run_par) {
    for (const uint32_t shards : shard_curve) {
      pagerank_wall_par.push_back(
          BenchPagerankE2E(kTuples, SubstrateBackend::kParSim, shards));
    }
  }
  const std::vector<std::string> kKernelAlgos = {"pagerank", "sssp", "kmeans",
                                                 "sgd"};
  std::vector<KernelBenchResult> kernels;
  for (const std::string& algo : kKernelAlgos) {
    kernels.push_back(
        BenchKernelAlgo(algo, kKernelReps, kKernelDeltas, kKernelLen));
  }

  Table table({"microbench", "metric", "value"});
  table.AddRow({"event-loop drain", "events/sec", Table::Num(el_drain, 0)});
  table.AddRow({"event-loop churn", "sched+cancel/sec", Table::Num(el_churn, 0)});
  table.AddRow({"versioned store", "puts+reads/sec", Table::Num(store_ops, 0)});
  table.AddRow({"reliable channel", "msgs/sec", Table::Num(net.msgs_per_sec, 0)});
  table.AddRow({"reliable channel", "fired events/msg",
                Table::Num(net.events_per_msg, 2)});
  if (run_sim) {
    table.AddRow({"fig5 pagerank e2e (sim)", "wall seconds",
                  Table::Num(pagerank_wall, 2)});
  }
  if (run_thread) {
    table.AddRow({"fig5 pagerank e2e (thread)", "wall seconds",
                  Table::Num(pagerank_wall_thread, 2)});
  }
  for (size_t i = 0; i < pagerank_wall_par.size(); ++i) {
    table.AddRow({"fig5 pagerank e2e (par_sim, " +
                      std::to_string(shard_curve[i]) + " shards)",
                  "wall seconds", Table::Num(pagerank_wall_par[i], 2)});
  }
  const std::string variant =
      kernel::KernelVariantName(kernel::ActiveKernelVariant());
  for (size_t i = 0; i < kKernelAlgos.size(); ++i) {
    table.AddRow({"kernel " + kKernelAlgos[i] + " (" + variant + ")",
                  "scatter ops/sec",
                  Table::Num(kernels[i].scatter_ops_per_sec, 0)});
    table.AddRow({"kernel " + kKernelAlgos[i], "deltas applied/sec",
                  Table::Num(kernels[i].deltas_per_sec, 0)});
    table.AddRow({"kernel " + kKernelAlgos[i], "speedup vs scalar",
                  Table::Num(kernels[i].simd_speedup, 2)});
  }
  table.Print();

  // The full knob set is written on every run (and checked by --check):
  // mixing results produced under different knobs — a smoke-sized run
  // checked against a full-sized baseline, or a different host profile —
  // silently compares incomparable numbers.
  const struct {
    const char* key;
    double value;
  } knob_set[] = {
      {"smoke", smoke ? 1.0 : 0.0},
      {"drain_events", static_cast<double>(kDrainN)},
      {"net_messages", static_cast<double>(kMsgs)},
      {"host_cores",
       static_cast<double>(std::thread::hardware_concurrency())},
  };

  if (write_json) {
    for (const auto& knob : knob_set) json.AddKnob(knob.key, knob.value);
    json.AddKnob("kernel_variant", variant);
    json.AddResult("el_drain_events_per_sec", el_drain);
    json.AddResult("el_churn_ops_per_sec", el_churn);
    json.AddResult("store_ops_per_sec", store_ops);
    json.AddResult("net_msgs_per_sec", net.msgs_per_sec);
    json.AddResult("net_events_per_msg", net.events_per_msg);
    if (run_sim) {
      json.AddResult("pagerank_e2e_wall_seconds", pagerank_wall);
    }
    if (run_thread) {
      json.AddResult("pagerank_e2e_wall_seconds_thread", pagerank_wall_thread);
    }
    if (run_par) {
      // Scaling curve of the parallel sim. Interpretation requires the
      // host_cores knob (always written, above): windows run concurrently
      // only when real cores back the shard workers, so on a single-core
      // host the curve is flat-to-worse (barrier overhead, no parallelism)
      // by construction.
      for (size_t i = 0; i < pagerank_wall_par.size(); ++i) {
        json.AddResult("pagerank_e2e_wall_seconds_par_sim_shards_" +
                           std::to_string(shard_curve[i]),
                       pagerank_wall_par[i]);
      }
    }
    for (size_t i = 0; i < kKernelAlgos.size(); ++i) {
      json.AddResult("kernel_scatter_ops_per_sec_" + kKernelAlgos[i],
                     kernels[i].scatter_ops_per_sec);
      json.AddResult("kernel_deltas_per_sec_" + kKernelAlgos[i],
                     kernels[i].deltas_per_sec);
      json.AddResult("kernel_simd_speedup_" + kKernelAlgos[i],
                     kernels[i].simd_speedup);
    }
    // Pre-overhaul ("before") numbers: the map/priority-queue event loop,
    // per-message retransmit timers, and std::map version chains, measured
    // on the reference machine with the full (non-smoke) sizes. Committed
    // alongside the live results so the JSON documents the speedup.
    json.AddResult("baseline_el_drain_events_per_sec", 530195.9);
    json.AddResult("baseline_el_churn_ops_per_sec", 3604918.8);
    json.AddResult("baseline_store_ops_per_sec", 1275007.2);
    json.AddResult("baseline_net_msgs_per_sec", 186158.9);
    json.AddResult("baseline_net_events_per_msg", 6.49);
    json.AddResult("baseline_pagerank_e2e_wall_seconds", 8.79);
    if (!json.WriteFile(out_path)) {
      std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "cannot open baseline %s\n", check_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string baseline = buf.str();

    // Refuse cross-knob comparisons outright.
    for (const auto& knob : knob_set) {
      const double committed_knob = JsonNumber(baseline, knob.key);
      if (committed_knob != knob.value) {
        std::fprintf(stderr,
                     "FAIL: knob %s mismatch (baseline %g, this run %g); "
                     "refusing to compare results produced under different "
                     "knobs — regenerate %s on this host first\n",
                     knob.key, committed_knob, knob.value,
                     check_path.c_str());
        return 1;
      }
    }

    const double committed =
        JsonNumber(baseline, "el_drain_events_per_sec");
    if (committed <= 0.0) {
      std::fprintf(stderr, "baseline %s has no el_drain_events_per_sec\n",
                   check_path.c_str());
      return 1;
    }
    const double ratio = el_drain / committed;
    std::printf("perf check: %.0f events/sec vs committed %.0f (%.0f%%)\n",
                el_drain, committed, ratio * 100.0);
    bool failed = false;
    if (ratio < 0.7) {
      std::fprintf(stderr,
                   "FAIL: event-loop drain regressed >30%% vs %s\n",
                   check_path.c_str());
      failed = true;
    }
    // Fired events per delivered message is a count of the simulator's
    // own work, identical on every host at the same knobs: any rise is a
    // regression. The slack only absorbs the JSON's 9-digit rounding.
    const double committed_epm = JsonNumber(baseline, "net_events_per_msg");
    if (committed_epm > 0.0) {
      std::printf("perf check: %.6f events/msg vs committed %.6f\n",
                  net.events_per_msg, committed_epm);
      if (net.events_per_msg > committed_epm * (1.0 + 1e-7)) {
        std::fprintf(stderr,
                     "FAIL: reliable-channel events per message rose above "
                     "%s\n",
                     check_path.c_str());
        failed = true;
      }
    }
    for (size_t i = 0; i < kKernelAlgos.size(); ++i) {
      const struct {
        const char* what;
        std::string key;
        double current;
      } checks[] = {
          {"scatter", "kernel_scatter_ops_per_sec_" + kKernelAlgos[i],
           kernels[i].scatter_ops_per_sec},
          {"deltas", "kernel_deltas_per_sec_" + kKernelAlgos[i],
           kernels[i].deltas_per_sec},
      };
      for (const auto& check : checks) {
        const double committed_k = JsonNumber(baseline, check.key);
        if (committed_k <= 0.0) continue;  // baseline predates the kernels
        const double kernel_ratio = check.current / committed_k;
        std::printf("perf check: %s %s %.0f/sec vs committed %.0f (%.0f%%)\n",
                    kKernelAlgos[i].c_str(), check.what, check.current,
                    committed_k, kernel_ratio * 100.0);
        if (kernel_ratio < 0.7) {
          std::fprintf(stderr, "FAIL: kernel %s %s regressed >30%% vs %s\n",
                       kKernelAlgos[i].c_str(), check.what,
                       check_path.c_str());
          failed = true;
        }
      }
    }
    if (failed) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tornado

int main(int argc, char** argv) {
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  return tornado::bench::Main(argc, argv);
}
