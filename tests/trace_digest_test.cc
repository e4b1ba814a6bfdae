// Pins what a same-seed `sim` run does, as seen from above the transport.
// A short Fig. 5 PageRank job and two corpus scenarios (fig8d's processor
// failure and an asymmetric partition) are hashed through 64-bit FNV-1a:
// every engine event with its arguments and the bits of its virtual
// timestamp, plus each node's delivery order (source, payload type, cause
// id). The digests ignore how the simulator
// schedules its own bookkeeping (event counts, timers, transport acks), so
// they change only when a change moves an engine event in virtual time or
// reorders a node's deliveries.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "algos/workloads.h"
#include "core/cluster.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "stream/graph_stream.h"

namespace tornado {
namespace {

class Fnv1a {
 public:
  void AddU64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= static_cast<uint8_t>(v >> (8 * i));
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddString(const char* s) {
    const size_t n = std::strlen(s);
    AddU64(n);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= static_cast<uint8_t>(s[i]);
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Folds engine events (timestamped) and per-node deliveries into digests.
class DigestObserver final : public EngineObserver, public TransportObserver {
 public:
  void Attach(TornadoCluster& cluster) {
    cluster_ = &cluster;
    cluster.AddEngineObserver(this);
    cluster.substrate().transport()->set_observer(this);
  }

  uint64_t Digest() const {
    Fnv1a fnv;
    fnv.AddU64(engine_.value());
    fnv.AddU64(engine_events_);
    fnv.AddU64(deliveries_.size());
    for (const Fnv1a& node : deliveries_) fnv.AddU64(node.value());
    return fnv.value();
  }
  uint64_t engine_events() const { return engine_events_; }

  // --- EngineObserver ---
  void OnInputGathered(LoopId loop, VertexId vertex) override {
    Engine(1, {loop, vertex});
  }
  void OnPrepare(LoopId loop, LoopEpoch epoch, VertexId producer,
                 uint64_t fanout) override {
    Engine(2, {loop, epoch, producer, fanout});
  }
  void OnAck(LoopId loop, LoopEpoch epoch, VertexId consumer,
             VertexId producer, Iteration iteration) override {
    Engine(3, {loop, epoch, consumer, producer, iteration});
  }
  void OnCommit(LoopId loop, LoopEpoch epoch, VertexId vertex,
                Iteration iteration, Iteration tau,
                Iteration horizon) override {
    Engine(4, {loop, epoch, vertex, iteration, tau, horizon});
  }
  void OnBlock(LoopId loop, LoopEpoch epoch, VertexId vertex,
               Iteration iteration) override {
    Engine(5, {loop, epoch, vertex, iteration});
  }
  void OnUnblocked(LoopId loop, LoopEpoch epoch, VertexId vertex,
                   Iteration iteration) override {
    Engine(6, {loop, epoch, vertex, iteration});
  }
  void OnFlush(LoopId loop, uint64_t versions) override {
    Engine(7, {loop, versions});
  }
  void OnLoopCreated(LoopId loop, LoopEpoch epoch, Iteration tau,
                     uint32_t processor) override {
    Engine(8, {loop, epoch, tau, processor});
  }
  void OnLoopDropped(LoopId loop, uint32_t processor) override {
    Engine(9, {loop, processor});
  }
  void OnEngineReset(uint32_t processor) override { Engine(10, {processor}); }
  void OnTerminated(LoopId loop, LoopEpoch epoch, uint32_t processor,
                    Iteration new_tau) override {
    Engine(11, {loop, epoch, processor, new_tau});
  }
  void OnMergeAdopted(LoopId loop, LoopEpoch epoch, VertexId vertex,
                      Iteration merge_iteration) override {
    Engine(12, {loop, epoch, vertex, merge_iteration});
  }

  // --- TransportObserver ---
  void OnDeliver(NodeId src, NodeId dst, const Payload& payload) override {
    if (dst >= deliveries_.size()) deliveries_.resize(dst + 1);
    Fnv1a& node = deliveries_[dst];
    node.AddU64(src);
    node.AddString(payload.name());
    node.AddU64(payload.cause_id);
  }

 private:
  void Engine(uint64_t kind, std::initializer_list<uint64_t> args) {
    ++engine_events_;
    engine_.AddU64(kind);
    engine_.AddU64(std::bit_cast<uint64_t>(cluster_->now()));
    for (const uint64_t a : args) engine_.AddU64(a);
  }

  TornadoCluster* cluster_ = nullptr;
  Fnv1a engine_;
  uint64_t engine_events_ = 0;
  std::vector<Fnv1a> deliveries_;  // indexed by destination node
};

// A Fig. 5 PageRank job (the PageRank panel of bench_fig5: the catalogue's
// graph shape and program, delay bound 64, 8 processors on 4 hosts, 2 ms
// progress period) on a short stream: ingest, settle, then one branch query.
TEST(TraceDigestTest, Fig5PageRankDigestIsPinned) {
  const GraphStreamOptions stream = workloads::Graph(2000, 42);

  JobConfig config;
  workloads::UsePageRank(&config);
  config.delay_bound = 64;
  config.num_processors = 8;
  config.num_hosts = 4;
  config.ingest_rate = 10000.0;
  config.ingest_batch = 10;
  config.seed = 1;
  config.cost.progress_period = 2e-3;

  TornadoCluster cluster(config, std::make_unique<GraphStream>(stream));
  DigestObserver digest;
  digest.Attach(cluster);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(stream.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(0.5);
  const uint64_t query = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  EXPECT_GT(digest.engine_events(), 0u);
  EXPECT_EQ(digest.Digest(), 0x507073127c5928e5ULL);
}

// Runs a corpus scenario on `sim` and returns its digest.
uint64_t ScenarioDigest(const std::string& file) {
  scenario::Scenario s;
  std::vector<std::string> errors;
  const std::string path = std::string(TORNADO_SCENARIO_CORPUS) + "/" + file;
  EXPECT_TRUE(scenario::LoadScenarioFile(path, &s, &errors))
      << (errors.empty() ? path : errors[0]);

  DigestObserver digest;
  scenario::RunOptions options;
  options.after_build = [&digest](TornadoCluster& c) { digest.Attach(c); };
  scenario::ScenarioRunner runner(s, std::move(options));
  const scenario::ScenarioVerdict verdict = runner.Run();
  EXPECT_TRUE(verdict.completed && verdict.invariants_held)
      << verdict.Summary();
  EXPECT_GT(digest.engine_events(), 0u);
  return digest.Digest();
}

TEST(TraceDigestTest, Fig8dProcessorFailureDigestIsPinned) {
  EXPECT_EQ(ScenarioDigest("fig8d_processor_failure.json"),
            0x1f08856c12f3844dULL);
}

// processor:0 cannot reach processors 3 and 4 for 0.6 s while they keep
// sending to it: their acks are lost on the cut path, so what the
// pending follow-up acks cover decides which messages are retransmitted.
TEST(TraceDigestTest, AsymmetricPartitionDigestIsPinned) {
  EXPECT_EQ(ScenarioDigest("asymmetric_partition.json"),
            0x9a6c215c576fa750ULL);
}

}  // namespace
}  // namespace tornado
