// Ablation study of the design knobs DESIGN.md calls out:
//
//  (a) the delay bound B — staleness vs. coordination trade-off for a
//      fixed SSSP branch workload (Section 6.3's axis, swept densely);
//  (b) the master's progress-collection period — how often the detector
//      runs determines both the main loop's iteration cadence and branch
//      convergence-detection latency;
//  (c) the no-op commit-notification protocol — message amplification the
//      full-fan-out commit contract costs, measured as messages per
//      committed update;
//  (d) the consistency policy — synchronous (Δ=1) vs. bounded-async vs.
//      fully-async execution of the same job (Table 2's axis), selected
//      via JobConfig::consistency and measured through the engine
//      observer's #updates / #prepares / #blocked counters.
//
// Every run is the SSSP branch drive of scenarios/sssp_branch_bounds.json
// at 24000 tuples, with the knob under study overridden in memory; each
// distinct configuration runs once and the sections share its result.

#include <map>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "scenario/runner.h"

namespace tornado {
namespace bench {
namespace {

constexpr uint64_t kTuples = 24000;

struct Run {
  double latency = -1.0;
  uint64_t updates = 0;
  uint64_t prepares = 0;
  uint64_t messages = 0;
  uint64_t blocked = 0;
};

/// The branch query's run of `base` at (bound, period, mode).
Run RunOnce(const scenario::Scenario& base, uint64_t bound,
            double progress_period,
            ConsistencyMode mode = ConsistencyMode::kBoundedAsync) {
  scenario::Scenario s = base;
  s.consistency.delay_bound = bound;
  s.consistency.mode = mode;
  s.cost["progress_period"] = progress_period;
  int64_t msg0 = 0, upd0 = 0, blk0 = 0;
  scenario::RunOptions hooks;
  hooks.before_query = [&](TornadoCluster& cluster) {
    msg0 = cluster.metrics().Get(metric::kMessagesSent);
    upd0 = cluster.metrics().Get(metric::kUpdatesCommitted);
    blk0 = cluster.metrics().Get(metric::kUpdatesBlocked);
  };
  scenario::ScenarioRunner runner(std::move(s), std::move(hooks));
  const scenario::ScenarioVerdict verdict = runner.Run();
  Run run;
  if (!verdict.completed) return run;
  TornadoCluster& cluster = *runner.cluster();
  run.latency = verdict.query_latency;
  run.messages = cluster.metrics().Get(metric::kMessagesSent) - msg0;
  run.updates = cluster.metrics().Get(metric::kUpdatesCommitted) - upd0;
  run.prepares = cluster.master().TotalPrepares(
      cluster.BranchOf(cluster.master().queries().front().query_id));
  run.blocked = cluster.metrics().Get(metric::kUpdatesBlocked) - blk0;
  return run;
}

void Ablate() {
  PrintHeader("Ablation: delay bound, detector period, commit fan-out",
              "DESIGN.md design choices (no direct paper counterpart)");
  scenario::Scenario base =
      LoadBenchScenario(TORNADO_SCENARIO_DIR "/sssp_branch_bounds.json");
  base.workload.tuples = kTuples;
  base.drive.warmup_tuples = kTuples / 2;

  std::printf("(a) delay bound sweep (progress period 5 ms)\n");
  Table bounds({"B", "branch latency (s)", "#updates", "#prepares",
                "blocked updates"});
  std::map<uint64_t, Run> at_5ms;  // by bound; (b), (c) and (d) reuse it
  for (uint64_t bound : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 256u, 4096u}) {
    const Run& run = at_5ms[bound] = RunOnce(base, bound, 5e-3);
    bounds.AddRow({Table::Int(bound), Table::Num(run.latency, 3),
                   Table::Int(run.updates), Table::Int(run.prepares),
                   Table::Int(run.blocked)});
  }
  bounds.Print();

  std::printf("\n(b) progress-collection period sweep (B = 64)\n");
  Table periods({"period (ms)", "branch latency (s)"});
  for (double period : {1e-3, 2e-3, 5e-3, 10e-3, 20e-3, 50e-3}) {
    const Run run = period == 5e-3 ? at_5ms[64] : RunOnce(base, 64, period);
    periods.AddRow({Table::Num(period * 1e3, 0), Table::Num(run.latency, 3)});
  }
  periods.Print();

  std::printf(
      "\n(c) commit fan-out: messages per committed update (B = 64)\n");
  const Run& run = at_5ms[64];
  if (run.updates > 0) {
    std::printf(
        "  %.2f messages per update (%llu messages, %llu updates) — the\n"
        "  excess over ~2 (update + transport ack) is PREPARE/ACK rounds\n"
        "  plus the no-op notifications that keep consumers' PrepareLists\n"
        "  live when values are suppressed.\n",
        static_cast<double>(run.messages) / static_cast<double>(run.updates),
        static_cast<unsigned long long>(run.messages),
        static_cast<unsigned long long>(run.updates));
  }

  std::printf(
      "\n(d) consistency policy sweep (Table 2's synchronous / bounded /\n"
      "    fully-asynchronous axis; B = 8 where the bound applies)\n");
  Table modes({"policy", "branch latency (s)", "#updates", "#prepares",
               "blocked updates"});
  const std::pair<const char*, ConsistencyMode> kModes[] = {
      {"synchronous", ConsistencyMode::kSynchronous},
      {"bounded-async", ConsistencyMode::kBoundedAsync},
      {"fully-async", ConsistencyMode::kFullyAsync},
  };
  for (const auto& [name, mode] : kModes) {
    const Run run = mode == ConsistencyMode::kBoundedAsync
                        ? at_5ms[8]
                        : RunOnce(base, 8, 5e-3, mode);
    modes.AddRow({name, Table::Num(run.latency, 3), Table::Int(run.updates),
                  Table::Int(run.prepares), Table::Int(run.blocked)});
  }
  modes.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tornado

int main(int argc, char** argv) {
  tornado::bench::ParseBenchArgs(argc, argv);
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::bench::Ablate();
  return 0;
}
