// Offline analysis of a Chrome trace-event JSON produced by the
// TraceRecorder (docs/OBSERVABILITY.md): per-phase time breakdown, top
// stall causes (blocked_at_bound attribution), and recovery gaps around
// injected failures.
//
// Usage: trace_report <trace.json> [--top N]
// Exit 2 with the usage line on a bad argument (a --top needs a count);
// exit 1, naming the line, on a trace that does not parse.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace/report.h"

int main(int argc, char** argv) {
  std::string path;
  size_t top_stalls = 5;
  const auto usage = [](const std::string& problem) {
    std::fprintf(stderr,
                 "trace_report: %s\n"
                 "usage: trace_report <trace.json> [--top N]\n",
                 problem.c_str());
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--top") {
      const char* value = i + 1 < argc ? argv[++i] : "";
      char* end = nullptr;
      top_stalls = static_cast<size_t>(std::strtoul(value, &end, 10));
      if (*value < '0' || *value > '9' || *end != '\0') {
        return usage("--top needs a count, not '" + std::string(value) + "'");
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return usage("unknown flag '" + arg + "'");
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage("unexpected argument '" + arg + "'");
    }
  }
  if (path.empty()) return usage("no trace file given");

  tornado::TraceSummary summary;
  std::string error;
  if (!tornado::SummarizeChromeTraceFile(path, &summary, &error)) {
    std::fprintf(stderr, "trace_report: %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  if (summary.total_events == 0) {
    std::fprintf(stderr, "trace_report: %s holds no trace events\n",
                 path.c_str());
    return 1;
  }
  std::fputs(tornado::FormatSummary(summary, top_stalls).c_str(), stdout);
  return 0;
}
