// Cross-backend equivalence (docs/RUNTIME.md): the same job must behave
// identically on the deterministic simulation across runs (byte-identical
// causal trace); the parallel simulation must reproduce the serial trace
// byte for byte at every shard count (docs/PARSIM.md); and the thread
// backend — real OS threads, wall clock, in-process mailboxes — must
// converge to the same pagerank fixed point once both backends have
// ingested the identical stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/pagerank.h"
#include "check/invariant_checker.h"
#include "core/cluster.h"
#include "runtime/par_sim_substrate.h"
#include "runtime/thread_substrate.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "sim/cost_model.h"
#include "stream/graph_stream.h"
#include "trace/trace_recorder.h"

namespace tornado {
namespace {

constexpr uint64_t kVertices = 80;
constexpr uint64_t kTuples = 500;

// Trace-comparing runs must not overflow the recorder: the serial
// backend has one lane and par_sim has shards + 1, so a per-lane cap
// truncates the two runs at *different* suffixes and the byte
// comparison reports a bogus divergence. The full fixed-point workload
// above records tens of millions of events (the 1e-12 branch relaxation
// runs thousands of iterations), so the byte-identity tests run a
// compact variant — byte-identity is a property of the simulation
// machinery, not of convergence depth — with lanes sized well above the
// run and a zero-drop assertion.
constexpr uint64_t kTraceVertices = 16;
constexpr uint64_t kTraceTuples = 100;
constexpr double kTraceTolerance = 1e-7;
constexpr size_t kTraceMaxEvents = 4'000'000;

// Workload knobs for one RunToFixedPoint call; defaults reproduce the
// full fixed-point run the rank-comparison tests use.
struct RunParams {
  uint64_t vertices = kVertices;
  uint64_t tuples = kTuples;
  double tolerance = 1e-12;
  uint32_t shards = 4;
};

constexpr RunParams kTraceRun = {kTraceVertices, kTraceTuples,
                                 kTraceTolerance, /*shards=*/4};

// gtest's failure printer for multi-megabyte strings is useless; report
// the first divergent byte and a little context instead.
testing::AssertionResult TracesIdentical(const std::string& a,
                                         const std::string& b) {
  if (a == b) return testing::AssertionSuccess();
  size_t i = 0;
  const size_t n = std::min(a.size(), b.size());
  while (i < n && a[i] == b[i]) ++i;
  const size_t from = i < 80 ? 0 : i - 80;
  return testing::AssertionFailure()
         << "traces diverge at byte " << i << " (sizes " << a.size() << " vs "
         << b.size() << ")\n  a: ..." << a.substr(from, 160) << "\n  b: ..."
         << b.substr(from, 160);
}

JobConfig MakeConfig(SubstrateBackend backend, const RunParams& params) {
  JobConfig config;
  // The default tolerance sits far below the comparison bound: the
  // branch loops then relax all the way to the (unique) fixed point of
  // the final graph, so both backends must agree to ~1e-11 even though
  // their main loops took different paths to it.
  config.program = std::make_shared<PageRankProgram>(/*damping=*/0.85,
                                                     params.tolerance);
  config.delay_bound = 64;
  config.num_processors = 4;  // thread backend: >= 4 real node threads
  config.num_hosts = 2;
  config.ingest_rate = 8000.0;
  config.merge_branches = true;
  config.seed = 42;
  config.backend = backend;
  config.sim_shards = params.shards;
  return config;
}

GraphStreamOptions MakeStream(const RunParams& params) {
  GraphStreamOptions options;
  options.num_vertices = params.vertices;
  options.num_tuples = params.tuples;
  options.preferential = 0.7;
  options.deletion_ratio = 0.05;
  return options;
}

// Ingests the whole stream, queries the final graph, and returns the
// converged branch ranks keyed by vertex. The invariant checker rides
// along; any protocol violation fails the test.
std::map<VertexId, double> RunToFixedPoint(SubstrateBackend backend,
                                           std::string* trace_json,
                                           const RunParams& params = {}) {
  JobConfig config = MakeConfig(backend, params);

  // Declared before the cluster: observers must outlive it (on the thread
  // backend, node threads report into the checker until Shutdown joins).
  CheckObserver::Options check_options;
  check_options.abort_on_violation = false;
  CheckObserver checker(check_options);

  TornadoCluster cluster(config,
                         std::make_unique<GraphStream>(MakeStream(params)));
  cluster.AddEngineObserver(&checker);

  if (trace_json != nullptr) cluster.EnableTracing(kTraceMaxEvents);

  cluster.Start();
  EXPECT_TRUE(cluster.RunUntilEmitted(params.tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(0.3);  // drain in-flight input

  const uint64_t query = cluster.ingester().SubmitQuery();
  EXPECT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  const LoopId branch = cluster.BranchOf(query);

  std::map<VertexId, double> ranks;
  for (VertexId v = 0; v < params.vertices; ++v) {
    auto state = cluster.ReadVertexState(branch, v);
    if (state == nullptr) continue;
    ranks[v] = static_cast<const PageRankState&>(*state).rank;
  }
  EXPECT_FALSE(ranks.empty());

  cluster.DeepCheckInvariants();
  EXPECT_TRUE(checker.violations().empty())
      << checker.violations().size() << " protocol violations on the "
      << cluster.substrate().name() << " backend, first: "
      << (checker.violations().empty()
              ? ""
              : checker.violations()[0].invariant + ": " +
                    checker.violations()[0].detail);

  if (trace_json != nullptr) {
    EXPECT_EQ(cluster.trace()->dropped(), 0u)
        << "trace overflow voids the byte-identity comparison; raise "
           "kTraceMaxEvents";
    std::ostringstream os;
    cluster.trace()->WriteChromeTrace(os);
    *trace_json = os.str();
  }
  return ranks;
}

TEST(SubstrateEquivalenceTest, SimRunsAreByteIdentical) {
  std::string trace_a;
  std::string trace_b;
  const auto ranks_a =
      RunToFixedPoint(SubstrateBackend::kSim, &trace_a, kTraceRun);
  const auto ranks_b =
      RunToFixedPoint(SubstrateBackend::kSim, &trace_b, kTraceRun);

  ASSERT_FALSE(trace_a.empty());
  // The full causal trace — every event, timestamp, and argument — must
  // match byte for byte: the sim backend's determinism guarantee.
  EXPECT_EQ(trace_a, trace_b);
  EXPECT_EQ(ranks_a, ranks_b);
}

TEST(SubstrateEquivalenceTest, ThreadBackendReachesSimFixedPoint) {
  const auto sim_ranks = RunToFixedPoint(SubstrateBackend::kSim, nullptr);
  const auto thread_ranks =
      RunToFixedPoint(SubstrateBackend::kThread, nullptr);

  // Both backends ingested the identical stream (it is exhausted before
  // the query), so the branch loops solve the same system and must land
  // on the same fixed point.
  ASSERT_EQ(sim_ranks.size(), thread_ranks.size());
  double max_delta = 0.0;
  for (const auto& [vertex, rank] : sim_ranks) {
    const auto it = thread_ranks.find(vertex);
    ASSERT_NE(it, thread_ranks.end()) << "vertex " << vertex;
    max_delta = std::max(max_delta, std::fabs(rank - it->second));
  }
  EXPECT_LE(max_delta, 1e-9) << "backends diverged by " << max_delta;
}

// --- Parallel simulation ---------------------------------------------------

// The core par_sim claim (docs/PARSIM.md): the sharded conservative-window
// simulation is not merely deterministic, it reproduces the *serial*
// backend's causal trace byte for byte — same events, same virtual
// timestamps, same arguments, same file bytes — at any shard count.
TEST(SubstrateEquivalenceTest, ParSimMatchesSimTraceByteForByte) {
  std::string sim_trace;
  const auto sim_ranks =
      RunToFixedPoint(SubstrateBackend::kSim, &sim_trace, kTraceRun);
  ASSERT_FALSE(sim_trace.empty());

  for (const uint32_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE("par_sim shards=" + std::to_string(shards));
    std::string par_trace;
    RunParams par_params = kTraceRun;
    par_params.shards = shards;
    const auto par_ranks =
        RunToFixedPoint(SubstrateBackend::kParSim, &par_trace, par_params);
    EXPECT_TRUE(TracesIdentical(sim_trace, par_trace));
    EXPECT_EQ(sim_ranks, par_ranks);
  }
}

// Replays a corpus scenario through the ScenarioRunner on both sim
// backends and demands identical traces, identical figure series, and
// identical final counters. This covers what the plain pagerank run
// cannot: failure injection (broadcast to mirrors), drive-boundary action
// application, and the bucketed sampling path.
void ExpectParSimMatchesSim(const scenario::Scenario& base, uint32_t shards) {
  auto run = [](const scenario::Scenario& s, std::string* trace) {
    scenario::RunOptions options;
    options.after_build = [](TornadoCluster& c) {
      c.EnableTracing(kTraceMaxEvents);
    };
    scenario::ScenarioRunner runner(s, std::move(options));
    scenario::ScenarioVerdict verdict = runner.Run();
    EXPECT_EQ(runner.cluster()->trace()->dropped(), 0u);
    std::ostringstream os;
    runner.cluster()->trace()->WriteChromeTrace(os);
    *trace = os.str();
    return verdict;
  };

  scenario::Scenario par = base;
  par.backend = SubstrateBackend::kParSim;
  par.shards = shards;

  std::string sim_trace;
  std::string par_trace;
  const auto sim_verdict = run(base, &sim_trace);
  const auto par_verdict = run(par, &par_trace);

  EXPECT_TRUE(sim_verdict.completed && sim_verdict.invariants_held)
      << sim_verdict.Summary();
  EXPECT_TRUE(par_verdict.completed && par_verdict.invariants_held)
      << par_verdict.Summary();
  ASSERT_FALSE(sim_trace.empty());
  EXPECT_TRUE(TracesIdentical(sim_trace, par_trace));
  EXPECT_EQ(sim_verdict.updates_per_bucket, par_verdict.updates_per_bucket);
  EXPECT_EQ(sim_verdict.counters, par_verdict.counters);
  EXPECT_EQ(sim_verdict.fixed_point_reached, par_verdict.fixed_point_reached);
}

scenario::Scenario LoadCorpusScenario(const std::string& file) {
  scenario::Scenario s;
  std::vector<std::string> errors;
  const std::string path = std::string(TORNADO_SCENARIO_CORPUS) + "/" + file;
  EXPECT_TRUE(scenario::LoadScenarioFile(path, &s, &errors))
      << (errors.empty() ? path : errors[0]);
  return s;
}

// fig8d's processor crash/restart timeline, scaled down.
TEST(SubstrateEquivalenceTest, ParSimMatchesSimOnFig8dScenario) {
  scenario::Scenario base =
      LoadCorpusScenario("fig8d_processor_failure.json");
  // Scale the corpus run down to test size; keep the crash inside the
  // sampled window and the recovery inside it too.
  base.workload.tuples = 2600;
  base.drive.warmup_tuples = 1300;
  base.drive.settle_seconds = 0.25;
  base.drive.sample_count = 24;
  ASSERT_FALSE(base.timeline.empty());
  base.timeline[0].downtime = 0.25;
  // 6 hosts -> two per shard, master and ingester split.
  ExpectParSimMatchesSim(base, /*shards=*/3);
}

// A one-way cut: processors 3 and 4 keep sending to processor 0 while
// every ack back to them is lost, so the contents of each channel's
// pending follow-up ack decide which messages are retransmitted.
TEST(SubstrateEquivalenceTest, ParSimMatchesSimOnAsymmetricPartition) {
  ExpectParSimMatchesSim(LoadCorpusScenario("asymmetric_partition.json"),
                         /*shards=*/3);
}

// --- Mailbox contention --------------------------------------------------
//
// Many node threads hammering a single target mailbox is the thread
// backend's worst case for the per-node Mutex in ThreadTransport::NodeRec.
// This test exists to run under the thread-substrate TSan CI job: any
// unguarded access on the mailbox path (enqueue vs. drain vs. depth
// probes) shows up as a data race here.

struct PingMsg final : Payload {
  const char* name() const override { return "ping"; }
};

class SinkNode final : public Node {
 public:
  void OnMessage(NodeId /*src*/, const Payload& /*msg*/) override {
    received_.fetch_add(1, std::memory_order_relaxed);
  }

  int64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int64_t> received_{0};
};

// Sends `bursts` batches of `per_burst` messages at the sink, yielding
// back to its own mailbox between batches so deliveries from all hammers
// interleave rather than serialize.
class HammerNode final : public Node {
 public:
  HammerNode(NodeId sink, int bursts, int per_burst)
      : sink_(sink), bursts_left_(bursts), per_burst_(per_burst) {}

  void OnMessage(NodeId /*src*/, const Payload& /*msg*/) override {}

  void Kick() {
    ScheduleSelf(0.0, [this] { Burst(); });
  }

 private:
  void Burst() {
    for (int i = 0; i < per_burst_; ++i) {
      Send(sink_, std::make_shared<PingMsg>(), /*reliable=*/true);
    }
    if (--bursts_left_ > 0) ScheduleSelf(0.0, [this] { Burst(); });
  }

  const NodeId sink_;
  int bursts_left_;  // touched only on this node's service thread
  const int per_burst_;
};

TEST(SubstrateEquivalenceTest, ThreadMailboxContentionDrainsClean) {
  constexpr int kHammers = 16;
  constexpr int kBursts = 20;
  constexpr int kPerBurst = 25;
  constexpr int64_t kExpected =
      static_cast<int64_t>(kHammers) * kBursts * kPerBurst;

  // Nodes are declared before the substrate so the substrate's
  // destructor (which joins the service threads) runs first on any
  // early-exit path.
  SinkNode sink;
  std::vector<std::unique_ptr<HammerNode>> hammers;
  for (int i = 0; i < kHammers; ++i) {
    hammers.push_back(
        std::make_unique<HammerNode>(/*sink=*/0, kBursts, kPerBurst));
  }

  ThreadSubstrate substrate(/*base_seed=*/7);
  substrate.thread_transport()->RegisterNode(&sink, /*host=*/0,
                                             /*speed_factor=*/1.0);
  ASSERT_EQ(sink.id(), 0u);
  for (auto& hammer : hammers) {
    substrate.thread_transport()->RegisterNode(hammer.get(), /*host=*/1,
                                               /*speed_factor=*/1.0);
    hammer->Kick();  // queued behind the start gate until Start()
  }

  substrate.Start();
  const bool drained = substrate.RunUntil(
      [&] {
        return sink.received() == kExpected &&
               substrate.thread_transport()->InFlightCount() == 0;
      },
      /*timeout=*/120.0, /*check_every=*/0.001);
  EXPECT_TRUE(drained) << "delivered " << sink.received() << " of "
                       << kExpected << ", in flight "
                       << substrate.thread_transport()->InFlightCount();
  substrate.Shutdown();

  EXPECT_EQ(sink.received(), kExpected);
  EXPECT_EQ(substrate.thread_transport()->InFlightCount(), 0u);
  EXPECT_EQ(substrate.thread_transport()->InboxDepth(0), 0u);
}

// --- Shutdown ordering -----------------------------------------------------
//
// Send() is lossless on both concurrent backends, so a run that ends the
// instant after a burst must still deliver every accepted message: the
// thread backend drains each mailbox when its service thread observes
// stop, and the parallel sim injects outbox packets at every barrier (and
// sweeps any residue in Shutdown) so slice boundaries that land mid-window
// never strand a cross-shard message.

TEST(SubstrateEquivalenceTest, ThreadShutdownDeliversAcceptedMessages) {
  constexpr int64_t kCount = 200;

  SinkNode sink;
  ThreadSubstrate substrate(/*base_seed=*/11);
  substrate.thread_transport()->RegisterNode(&sink, /*host=*/0,
                                             /*speed_factor=*/1.0);
  substrate.Start();
  // Race the burst against Shutdown: the sink's service thread has had no
  // time to drain 200 messages when stop is raised, so most of them are
  // still queued and only the stop-time drain can deliver them.
  for (int64_t i = 0; i < kCount; ++i) {
    substrate.thread_transport()->Send(/*src=*/0, /*dst=*/0,
                                       std::make_shared<PingMsg>(),
                                       /*reliable=*/true);
  }
  substrate.Shutdown();

  EXPECT_EQ(sink.received(), kCount);
  EXPECT_EQ(substrate.thread_transport()->InFlightCount(), 0);
  EXPECT_EQ(substrate.thread_transport()->InboxDepth(0), 0u);
}

TEST(SubstrateEquivalenceTest, ParSimMidWindowSlicesLoseNoMessages) {
  constexpr int kBursts = 8;
  constexpr int kPerBurst = 16;
  constexpr int64_t kExpected = static_cast<int64_t>(kBursts) * kPerBurst;

  SinkNode sink;  // registered first -> NodeId 0, host 1 -> shard 1
  HammerNode hammer(/*sink=*/0, kBursts, kPerBurst);  // host 0 -> shard 0

  const CostModel cost;
  ParSimSubstrate substrate(cost, /*base_seed=*/5, /*num_shards=*/2);
  substrate.transport()->RegisterNode(&sink, /*host=*/1);
  substrate.transport()->RegisterNode(&hammer, /*host=*/0);
  hammer.Kick();
  substrate.Start();

  // Advance in slices far smaller than the conservative window, so every
  // RunFor boundary lands mid-window with cross-shard packets in flight.
  // Nothing may be stranded at a boundary: each subsequent slice must
  // keep delivering until all bursts arrive.
  const double lookahead = cost.net_latency * (1.0 - cost.net_jitter);
  const double slice = lookahead / 7.0;
  int slices = 0;
  while (sink.received() < kExpected && slices < 20000) {
    substrate.RunFor(slice);
    ++slices;
  }
  EXPECT_EQ(sink.received(), kExpected)
      << "after " << slices << " mid-window slices";
  EXPECT_EQ(substrate.transport()->InboxDepth(0), 0u);

  substrate.Shutdown();
  substrate.Shutdown();  // idempotent
  EXPECT_EQ(sink.received(), kExpected);
}

}  // namespace
}  // namespace tornado
