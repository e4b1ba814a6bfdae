#ifndef TORNADO_TRACE_REPORT_H_
#define TORNADO_TRACE_REPORT_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace tornado {

/// Aggregated view of one Chrome trace produced by TraceRecorder.
/// Field times are virtual seconds (the JSON stores microseconds).
struct TraceSummary {
  /// Per-span-name totals ("prepare_round", "blocked_at_bound", ...).
  struct PhaseStat {
    uint64_t count = 0;
    double total_seconds = 0.0;
  };

  /// One (loop, vertex) that spent time blocked at the delay bound.
  struct StallEntry {
    uint64_t loop = 0;
    uint64_t vertex = 0;
    uint64_t intervals = 0;  // completed blocked_at_bound spans
    uint64_t updates = 0;    // updates buffered across those spans
    double total_seconds = 0.0;
  };

  /// One injected failure and the recovery that followed it.
  struct RecoveryEvent {
    uint64_t node = 0;
    double killed_ts = 0.0;
    double recovered_ts = -1.0;          // -1: never recovered in-trace
    double first_commit_after = -1.0;    // -1: no commit after recovery
    bool on_failed_node = false;  // first commit was on the failed node

    bool complete() const {
      return recovered_ts >= 0.0 && first_commit_after >= 0.0;
    }
    /// Failure time -> first post-recovery commit.
    double gap_seconds() const {
      return complete() ? first_commit_after - killed_ts : -1.0;
    }
  };

  uint64_t total_events = 0;
  double first_ts = 0.0;
  double last_ts = 0.0;
  std::map<std::string, PhaseStat> phases;        // 'X' spans, cat protocol
  std::map<std::string, uint64_t> instants;       // 'i' counts by name
  std::map<std::string, uint64_t> messages;       // net slices by type
  std::vector<StallEntry> stalls;                 // sorted, longest first
  std::vector<RecoveryEvent> recoveries;          // in kill order
};

/// Parses a TraceRecorder Chrome trace and aggregates it into `*out`.
/// WriteChromeTrace writes a `{"traceEvents":[` header line, one JSON
/// event per line (each but the last ending in a comma) and a `]}` footer
/// line; each event line is parsed with JsonParse. Returns false, with
/// `*error` naming the 1-based line, when the header or footer is missing,
/// a line does not parse, or an event's "name", "ph" or "ts" is missing or
/// has the wrong type.
bool SummarizeChromeTrace(std::istream& in, TraceSummary* out,
                          std::string* error);

/// Same, from a file; also false when the file cannot be read.
bool SummarizeChromeTraceFile(const std::string& path, TraceSummary* out,
                              std::string* error);

/// Human-readable report: per-phase time breakdown, top stall causes,
/// recovery gaps around injected failures.
std::string FormatSummary(const TraceSummary& summary,
                          size_t top_stalls = 5);

}  // namespace tornado

#endif  // TORNADO_TRACE_REPORT_H_
