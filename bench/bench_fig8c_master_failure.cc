// Figure 8c: updates per second of an SSSP branch loop around a master
// failure, under delay bounds 1, 16 and 65536 (the paper uses 256 as its
// middle bound; our scaled-down branch needs far fewer iterations, so 16 is
// the bound that exhausts mid-run the way the paper's 256 does).
//
// Expected shape (paper): the synchronous loop (B=1) stops almost
// immediately after the master dies (it depends on every termination
// notification); the middle bound keeps running until its updates hit the
// delay bound, then stalls; the essentially-unbounded loop (B=65536)
// continues as if nothing happened. All loops resume after the master
// recovers.
//
// The failure drive lives in scenarios/fig8c_master_failure.json; the
// shared driver (RunFailureCurve, bench_util) sweeps the bound in memory.

#include "bench/bench_util.h"
#include "common/logging.h"

int main(int argc, char** argv) {
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::bench::RunFailureCurve(
      {TORNADO_SCENARIO_DIR "/fig8c_master_failure.json",
       "Branch-loop update rate around a master failure", "Figure 8c",
       "master", "fig8c_master_failure"},
      tornado::bench::ParseBenchArgs(argc, argv, /*artifacts=*/true));
  return 0;
}
