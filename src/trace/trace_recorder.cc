#include "trace/trace_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <utility>

#include "common/json.h"
#include "common/logging.h"

namespace tornado {

namespace {

/// Microsecond timestamp with fixed precision: deterministic printf
/// formatting is what makes same-seed traces byte-identical.
std::string Micros(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e6);
  return buf;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void WriteArgs(std::ostream& os, const TraceArgs& args) {
  os << "\"args\":{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) os << ",";
    os << "\"" << key << "\":" << value;
    first = false;
  }
  os << "}";
}

}  // namespace

TraceRecorder::TraceRecorder(const Clock* clock, uint32_t lanes,
                             size_t max_events)
    : clock_(clock), max_events_(max_events) {
  lanes_.resize(lanes == 0 ? 1 : lanes);
}

void TraceRecorder::SetTrackName(uint32_t track, const std::string& name) {
  track_names_[track] = name;
}

TraceRecorder::Lane& TraceRecorder::CurrentLane() {
  if (lanes_.size() == 1) return lanes_[0];
  // Shard lanes take their shard's index; anything else — the driver's
  // -1, or an out-of-range id from a misconfigured backend — lands in
  // the driver lane at the end.
  const int32_t lane = ExecutionLane::Current();
  if (lane >= 0 && static_cast<size_t>(lane) < lanes_.size() - 1) {
    return lanes_[static_cast<size_t>(lane)];
  }
  return lanes_.back();
}

void TraceRecorder::Push(TraceEvent ev) {
  Lane& lane = CurrentLane();
  if (lane.events.size() >= max_events_) {
    ++lane.dropped;
    return;
  }
  lane.record_ts.push_back(clock_->now());
  lane.events.push_back(std::move(ev));
}

void TraceRecorder::Span(const char* cat, const char* name, uint32_t track,
                         double begin_ts, double end_ts, TraceArgs args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = begin_ts;
  ev.dur = end_ts > begin_ts ? end_ts - begin_ts : 0.0;
  ev.ph = 'X';
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args);
  Push(std::move(ev));
}

void TraceRecorder::Instant(const char* cat, const char* name, uint32_t track,
                            TraceArgs args) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = clock_->now();
  ev.ph = 'i';
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.args = std::move(args);
  Push(std::move(ev));
}

void TraceRecorder::Counter(const char* cat, const std::string& name,
                            uint32_t track, double value) {
  // The sample is written as a bare JSON number, and JSON has no NaN/Inf.
  TCHECK(std::isfinite(value))
      << "trace counter " << name << " sampled the non-finite value "
      << value;
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = clock_->now();
  ev.ph = 'C';
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.value = value;
  Push(std::move(ev));
}

void TraceRecorder::Flow(char phase, const char* cat, const char* name,
                         uint32_t track, uint64_t flow_id) {
  if (!enabled_) return;
  TraceEvent ev;
  ev.ts = clock_->now();
  ev.ph = phase;
  ev.track = track;
  ev.cat = cat;
  ev.name = name;
  ev.flow = flow_id;
  Push(std::move(ev));
}

size_t TraceRecorder::size() const {
  size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.events.size();
  return n;
}

size_t TraceRecorder::dropped() const {
  size_t n = 0;
  for (const Lane& lane : lanes_) n += lane.dropped;
  return n;
}

void TraceRecorder::Clear() {
  for (Lane& lane : lanes_) {
    lane.events.clear();
    lane.record_ts.clear();
    lane.dropped = 0;
  }
}

void TraceRecorder::WriteChromeTrace(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Track-name metadata first so viewers label every row.
  for (const auto& [track, name] : track_names_) {
    if (!first) os << ",\n";
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << track
       << ",\"args\":{\"name\":" << JsonQuote(name) << "}}";
    first = false;
  }
  // Canonical export order: (record time, track, lane, intra-lane order).
  // Lane count 1 or N, serial or parallel, the same comparator runs — the
  // canonical form is exactly what makes an N-shard run's output
  // byte-identical to the serial run's. Record time interleaves the
  // lanes; the *track* breaks exact-double ties (deterministic setup
  // times, periodic timers) identically in every configuration, because
  // a track's events are recorded by a single lane and the serial
  // recorder sees the same (time, track) multiset; lane + lane order
  // keep same-track events in execution order.
  std::vector<std::pair<uint32_t, uint32_t>> merged;  // (lane, index)
  size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.events.size();
  merged.reserve(total);
  for (uint32_t l = 0; l < lanes_.size(); ++l) {
    for (uint32_t i = 0; i < lanes_[l].events.size(); ++i) {
      merged.emplace_back(l, i);
    }
  }
  std::sort(merged.begin(), merged.end(),
            [this](const std::pair<uint32_t, uint32_t>& a,
                   const std::pair<uint32_t, uint32_t>& b) {
              const double ta = lanes_[a.first].record_ts[a.second];
              const double tb = lanes_[b.first].record_ts[b.second];
              if (ta != tb) return ta < tb;
              const uint32_t ka = lanes_[a.first].events[a.second].track;
              const uint32_t kb = lanes_[b.first].events[b.second].track;
              if (ka != kb) return ka < kb;
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  for (const auto& [lane, index] : merged) {
    const TraceEvent& ev = lanes_[lane].events[index];
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":" << JsonQuote(ev.name) << ",\"cat\":\"" << ev.cat
       << "\",\"ph\":\"" << ev.ph << "\",\"ts\":" << Micros(ev.ts);
    switch (ev.ph) {
      case 'X':
        os << ",\"dur\":" << Micros(ev.dur);
        break;
      case 'i':
        os << ",\"s\":\"t\"";  // thread-scoped instant
        break;
      case 'C':
        break;
      case 's':
      case 'f':
        os << ",\"id\":" << ev.flow;
        if (ev.ph == 'f') os << ",\"bp\":\"e\"";  // bind to enclosing slice
        break;
      default:
        break;
    }
    os << ",\"pid\":0,\"tid\":" << ev.track << ",";
    if (ev.ph == 'C') {
      os << "\"args\":{\"value\":" << Number(ev.value) << "}";
    } else {
      WriteArgs(os, ev.args);
    }
    os << "}";
  }
  os << "\n]}\n";
}

bool TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteChromeTrace(out);
  return out.good();
}

}  // namespace tornado
