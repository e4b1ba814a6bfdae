#include "trace/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include "common/json.h"

namespace tornado {

namespace {

constexpr const char* kTraceHeader = "{\"traceEvents\":[";
constexpr const char* kTraceFooter = "]}";

constexpr JsonValue::Type kNumber = JsonValue::Type::kNumber;
constexpr JsonValue::Type kString = JsonValue::Type::kString;

// An optional numeric field of `object`; 0 when absent.
double Number(const JsonValue* object, const char* key) {
  const JsonValue* value =
      object == nullptr ? nullptr : object->Find(key, kNumber);
  return value == nullptr ? 0.0 : value->number;
}

uint64_t Arg(const JsonValue& event, const char* key) {
  return static_cast<uint64_t>(Number(event.Find("args"), key));
}

std::string Seconds(double s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", s);
  return buf;
}

struct CommitPoint {
  double ts = 0.0;
  uint64_t track = 0;
};

}  // namespace

bool SummarizeChromeTrace(std::istream& in, TraceSummary* out,
                          std::string* error) {
  TraceSummary summary;
  std::map<std::pair<uint64_t, uint64_t>, TraceSummary::StallEntry> stalls;
  std::vector<CommitPoint> commits;
  bool first_event = true;

  size_t line_no = 1;
  const auto fail = [&](const std::string& message) {
    *error = "line " + std::to_string(line_no) + ": " + message;
    return false;
  };
  std::string line;
  std::getline(in, line);
  if (line != kTraceHeader) {
    return fail(std::string("expected the ") + kTraceHeader + " header");
  }
  bool footer = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;  // the event list of an empty trace
    if (footer) return fail("content after the ]} footer");
    if (line == kTraceFooter) {
      footer = true;
      continue;
    }
    if (line.back() == ',') line.pop_back();
    JsonValue event;
    std::string parse_error;
    if (!JsonParse(line, &event, &parse_error)) return fail(parse_error);
    const JsonValue* name_value = event.Find("name", kString);
    const JsonValue* ph_value = event.Find("ph", kString);
    const JsonValue* ts_value = event.Find("ts", kNumber);
    if (name_value == nullptr) return fail("event has no string \"name\"");
    if (ph_value == nullptr) return fail("event has no string \"ph\"");
    const std::string& name = name_value->string_value;
    const std::string& ph = ph_value->string_value;
    if (ph == "M") continue;  // track-name metadata carries no time
    if (ts_value == nullptr) return fail("event has no numeric \"ts\"");
    const double ts = ts_value->number / 1e6;

    ++summary.total_events;
    if (first_event || ts < summary.first_ts) summary.first_ts = ts;
    if (first_event || ts > summary.last_ts) summary.last_ts = ts;
    first_event = false;

    const JsonValue* cat = event.Find("cat", kString);

    if (ph == "X") {
      const double dur_us = Number(&event, "dur");
      if (cat != nullptr && cat->string_value == "net") {
        ++summary.messages[name];
      } else {
        TraceSummary::PhaseStat& stat = summary.phases[name];
        ++stat.count;
        stat.total_seconds += dur_us / 1e6;
      }
      if (name == "blocked_at_bound") {
        const uint64_t loop = Arg(event, "loop");
        const uint64_t vertex = Arg(event, "vertex");
        TraceSummary::StallEntry& entry = stalls[{loop, vertex}];
        entry.loop = loop;
        entry.vertex = vertex;
        ++entry.intervals;
        entry.updates += Arg(event, "updates");
        entry.total_seconds += dur_us / 1e6;
      }
    } else if (ph == "i") {
      ++summary.instants[name];
      if (name == "commit") {
        commits.push_back(
            CommitPoint{ts, static_cast<uint64_t>(Number(&event, "tid"))});
      } else if (name == "node_killed") {
        TraceSummary::RecoveryEvent ev;
        ev.node = Arg(event, "node");
        ev.killed_ts = ts;
        summary.recoveries.push_back(ev);
      } else if (name == "node_recovered") {
        const uint64_t node = Arg(event, "node");
        // Close the most recent open kill of this node.
        for (auto it = summary.recoveries.rbegin();
             it != summary.recoveries.rend(); ++it) {
          if (it->node == node && it->recovered_ts < 0.0) {
            it->recovered_ts = ts;
            break;
          }
        }
      }
    }
  }

  if (!footer) return fail("truncated trace: no ]} footer");

  // Recovery gap: prefer the first commit on the failed node's own track
  // (the recovered processor resuming work); when it never commits again
  // — e.g. a master failure — fall back to the first commit anywhere.
  for (TraceSummary::RecoveryEvent& ev : summary.recoveries) {
    if (ev.recovered_ts < 0.0) continue;
    double any = -1.0;
    for (const CommitPoint& c : commits) {
      if (c.ts < ev.recovered_ts) continue;
      if (any < 0.0) any = c.ts;
      if (c.track == ev.node) {
        ev.first_commit_after = c.ts;
        ev.on_failed_node = true;
        break;
      }
    }
    if (!ev.on_failed_node) ev.first_commit_after = any;
  }

  summary.stalls.reserve(stalls.size());
  for (auto& [key, entry] : stalls) summary.stalls.push_back(entry);
  std::sort(summary.stalls.begin(), summary.stalls.end(),
            [](const TraceSummary::StallEntry& a,
               const TraceSummary::StallEntry& b) {
              if (a.total_seconds != b.total_seconds) {
                return a.total_seconds > b.total_seconds;
              }
              if (a.loop != b.loop) return a.loop < b.loop;
              return a.vertex < b.vertex;
            });
  *out = std::move(summary);
  return true;
}

bool SummarizeChromeTraceFile(const std::string& path, TraceSummary* out,
                              std::string* error) {
  std::ifstream in(path);
  if (!in.is_open()) {
    *error = "cannot open the file";
    return false;
  }
  return SummarizeChromeTrace(in, out, error);
}

std::string FormatSummary(const TraceSummary& summary, size_t top_stalls) {
  std::ostringstream os;
  os << "trace: " << summary.total_events << " events over ["
     << Seconds(summary.first_ts) << ", " << Seconds(summary.last_ts)
     << "] virtual seconds\n";

  os << "\nphase breakdown (spans):\n";
  if (summary.phases.empty()) os << "  (none)\n";
  for (const auto& [name, stat] : summary.phases) {
    os << "  " << name << ": n=" << stat.count
       << " total=" << Seconds(stat.total_seconds) << "s";
    if (stat.count > 0) {
      os << " mean="
         << Seconds(stat.total_seconds / static_cast<double>(stat.count))
         << "s";
    }
    os << "\n";
  }

  os << "\nprotocol instants:\n";
  if (summary.instants.empty()) os << "  (none)\n";
  for (const auto& [name, count] : summary.instants) {
    os << "  " << name << ": " << count << "\n";
  }

  if (!summary.messages.empty()) {
    os << "\nmessages (send+deliver slices):\n";
    for (const auto& [name, count] : summary.messages) {
      os << "  " << name << ": " << count << "\n";
    }
  }

  os << "\ntop stall causes (blocked_at_bound):\n";
  if (summary.stalls.empty()) os << "  (none)\n";
  for (size_t i = 0; i < summary.stalls.size() && i < top_stalls; ++i) {
    const TraceSummary::StallEntry& entry = summary.stalls[i];
    os << "  loop " << entry.loop << " vertex " << entry.vertex << ": "
       << Seconds(entry.total_seconds) << "s over " << entry.intervals
       << " intervals (" << entry.updates << " updates held)\n";
  }

  os << "\nrecovery gaps:\n";
  if (summary.recoveries.empty()) os << "  (no injected failures)\n";
  for (const TraceSummary::RecoveryEvent& ev : summary.recoveries) {
    os << "  node " << ev.node << ": killed at " << Seconds(ev.killed_ts);
    if (ev.recovered_ts < 0.0) {
      os << ", never recovered in-trace\n";
      continue;
    }
    os << ", recovered at " << Seconds(ev.recovered_ts);
    if (ev.first_commit_after < 0.0) {
      os << ", no commit after recovery\n";
      continue;
    }
    os << ", first post-recovery commit at "
       << Seconds(ev.first_commit_after)
       << (ev.on_failed_node ? " (on the failed node)" : " (cluster-wide)")
       << " -> gap " << Seconds(ev.gap_seconds()) << "s\n";
  }
  return os.str();
}

}  // namespace tornado
