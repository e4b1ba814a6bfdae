// End-to-end failure tracing: kill and recover a processor under an
// enabled trace, then extract the recovery gap from the exported Chrome
// trace JSON exactly the way tools/trace_report does. This is the
// acceptance path for the fig 8d trace artifact.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "algos/sssp.h"
#include "core/cluster.h"
#include "stream/graph_stream.h"
#include "trace/report.h"
#include "trace/trace_recorder.h"

namespace tornado {
namespace {

JobConfig MakeConfig() {
  JobConfig config;
  config.program = std::make_shared<SsspProgram>(0);
  config.delay_bound = 8;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 100000.0;
  config.ingest_batch = 10;
  config.seed = 31;
  return config;
}

GraphStreamOptions MakeStream() {
  GraphStreamOptions options;
  options.num_vertices = 150;
  options.num_tuples = 2000;
  options.seed = 5;
  return options;
}

TEST(TraceRecoveryTest, ReportExtractsAPositiveRecoveryGap) {
  TornadoCluster cluster(MakeConfig(),
                         std::make_unique<GraphStream>(MakeStream()));
  cluster.EnableTracing();
  cluster.Start();
  // Warm up past the first terminated iterations so the recovery has
  // store state to roll back to (a kill before any termination drops the
  // whole loop, and with the stream exhausted nothing would recompute).
  ASSERT_TRUE(cluster.RunUntilEmitted(2000, 600.0));
  cluster.RunFor(1.0);

  const NodeId victim = cluster.processor_node(1);
  cluster.transport().KillNode(victim);
  cluster.failures().RecoverAt(victim, cluster.now() + 0.4);
  cluster.RunFor(1.5);  // recovery rollback + enough time to commit again

  std::ostringstream os;
  cluster.trace()->WriteChromeTrace(os);
  const std::string json = os.str();

  // Perfetto-loadable shape: the envelope plus per-line events.
  ASSERT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  ASSERT_EQ(json.substr(json.size() - 3), "]}\n");

  std::istringstream in(json);
  TraceSummary summary;
  std::string error;
  ASSERT_TRUE(SummarizeChromeTrace(in, &summary, &error)) << error;
  EXPECT_GT(summary.total_events, 0u);
  EXPECT_EQ(summary.instants.count("node_killed"), 1u);
  EXPECT_GT(summary.instants.count("recovery_rollback"), 0u);

  ASSERT_EQ(summary.recoveries.size(), 1u);
  const TraceSummary::RecoveryEvent& ev = summary.recoveries[0];
  EXPECT_EQ(ev.node, victim);
  ASSERT_TRUE(ev.complete());
  EXPECT_GT(ev.gap_seconds(), 0.0);
  EXPECT_GE(ev.recovered_ts, ev.killed_ts);

  // The human-readable report names the gap.
  const std::string report = FormatSummary(summary, 5);
  EXPECT_NE(report.find("recovery gaps"), std::string::npos);
  EXPECT_NE(report.find("first post-recovery commit"), std::string::npos);
}

}  // namespace
}  // namespace tornado
