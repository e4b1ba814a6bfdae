// Figure 8d: updates per second of an SSSP branch loop around a single
// processor failure, under delay bounds 1, 16 and 65536 (the paper uses 256
// as its middle bound; see bench_fig8c_master_failure.cc).
//
// Expected shape (paper): the synchronous loop stops shortly after the
// failure (no iteration can terminate without the dead worker's
// vertices); the asynchronous loops keep going for a while, but vertices
// whose consumers live on the dead processor cannot finish their PREPARE
// rounds, so the stall propagates through the dependency graph until
// recovery rolls the loop back to the last terminated iteration and
// throughput resumes.
//
// The failure drive lives in scenarios/fig8d_processor_failure.json; the
// shared driver (RunFailureCurve, bench_util) sweeps the bound in memory.

#include "bench/bench_util.h"
#include "common/logging.h"

int main(int argc, char** argv) {
  tornado::SetLogLevel(tornado::LogLevel::kWarning);
  tornado::bench::RunFailureCurve(
      {TORNADO_SCENARIO_DIR "/fig8d_processor_failure.json",
       "Branch-loop update rate around a processor failure", "Figure 8d",
       "one of 8 processors", "fig8d_processor_failure"},
      tornado::bench::ParseBenchArgs(argc, argv, /*artifacts=*/true));
  return 0;
}
