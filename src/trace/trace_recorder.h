#ifndef TORNADO_TRACE_TRACE_RECORDER_H_
#define TORNADO_TRACE_TRACE_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runtime/substrate.h"
#include "trace/trace_event.h"

namespace tornado {

/// Collects structured trace events stamped with the virtual clock and
/// exports them as Chrome trace-event JSON (loadable in Perfetto /
/// chrome://tracing).
///
/// Determinism contract: every recorded field derives from virtual time
/// and protocol state, and the JSON writer uses fixed-precision printf
/// formatting, so the same seed yields byte-identical output
/// (tests/trace_determinism_test.cc holds this).
///
/// The recorder can be paused; while paused, record calls are dropped at
/// the call site cost of one branch. The TORNADO_TRACE auto-attach keeps
/// the recorder paused so a traced build's full test suite does not
/// accumulate events — TornadoCluster::EnableTracing() resumes it.
/// A hard cap bounds memory on long runs; overflow events are counted,
/// not silently lost.
///
/// Threading: the recorder is lock-free by *partitioning*, not by being
/// single-threaded. It is built with a lane count; each record call
/// appends to the buffer of the caller's ExecutionLane
/// (runtime/substrate.h), so on the parallel sim backend every shard
/// writes its own lane and the driver (setup, barriers, samplers) writes
/// the last lane — no two threads ever share a buffer, and the window
/// barrier's epoch protocol provides the happens-before edges for
/// WriteChromeTrace's cross-lane read. Pause/Resume and SetTrackName are
/// driver-only calls made while shards are quiescent. The serial sim
/// backend is simply the lanes == 1 case of the same machinery.
///
/// Export uses one *canonical order* at every lane count: events sort by
/// (record time, track, lane, lane order), where record time is the
/// virtual clock at the record call (a span's *close* time). That
/// canonical form — not raw recording order — is what the byte-identity
/// guarantee rests on: record time interleaves the lanes, and when two
/// events carry the exact same double timestamp (t = 0 setup, periodic
/// timers) the *track* breaks the tie the same way in serial and at any
/// shard count, because a given track's events are recorded by a single
/// lane and stay in execution order via the (lane, lane order) tail. The
/// residual caveat — two *different* lanes recording the same track at
/// the same double timestamp — is spelled out in docs/PARSIM.md. The
/// thread backend has no deterministic clock and gets no recorder at all
/// (TornadoCluster::EnableTracing() warns and returns nullptr there).
class TraceRecorder {
 public:
  static constexpr size_t kDefaultMaxEvents = 500000;

  explicit TraceRecorder(const Clock* clock, uint32_t lanes = 1,
                         size_t max_events = kDefaultMaxEvents);

  void Pause() { enabled_ = false; }
  void Resume() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  /// Current substrate time (for subscribers synthesizing spans).
  double now() const { return clock_->now(); }

  /// Names a track ("processor 0", "master", ...) in the exported view.
  void SetTrackName(uint32_t track, const std::string& name);

  /// Records a complete span [begin_ts, end_ts] on `track`.
  void Span(const char* cat, const char* name, uint32_t track,
            double begin_ts, double end_ts, TraceArgs args = {});

  /// Records a point event at the current virtual time.
  void Instant(const char* cat, const char* name, uint32_t track,
               TraceArgs args = {});

  /// Records a counter sample (rendered as a graph by Perfetto). A
  /// non-finite `value` is a bug in the probe and aborts, naming `name`.
  void Counter(const char* cat, const std::string& name, uint32_t track,
               double value);

  /// Records a flow endpoint: phase 's' opens an arrow with id `flow_id`,
  /// phase 'f' terminates it. A flow binds to the span recorded on the
  /// same track at the same timestamp.
  void Flow(char phase, const char* cat, const char* name, uint32_t track,
            uint64_t flow_id);

  /// Recorded events in recording order. Single-lane recorders only
  /// (unit tests inspect them directly); multi-lane recorders expose
  /// their merged view through WriteChromeTrace.
  const std::vector<TraceEvent>& events() const { return lanes_[0].events; }
  size_t size() const;
  size_t dropped() const;
  void Clear();

  /// Writes the Chrome trace-event JSON ({"traceEvents": [...]}), one
  /// event per line, in the canonical (record time, track, lane, lane
  /// order) sort — identical output for serial and sharded runs.
  void WriteChromeTrace(std::ostream& os) const;

  /// Same, to a file. Returns false on I/O failure.
  bool WriteChromeTraceFile(const std::string& path) const;

 private:
  struct Lane {
    std::vector<TraceEvent> events;
    // Virtual time of each record call, index-aligned with `events`;
    // the primary key of the canonical export sort.
    std::vector<double> record_ts;
    size_t dropped = 0;
  };

  Lane& CurrentLane();
  void Push(TraceEvent ev);

  const Clock* clock_;
  bool enabled_ = true;
  size_t max_events_;  // per lane
  std::vector<Lane> lanes_;
  std::map<uint32_t, std::string> track_names_;
};

}  // namespace tornado

#endif  // TORNADO_TRACE_TRACE_RECORDER_H_
