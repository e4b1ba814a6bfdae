#include "perfbench/probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace tornado {
namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::atomic<uint64_t> next_generation{1};

// Adds the host time of one callback to `*seconds` when it goes out of
// scope.
class ScopedTimer {
 public:
  explicit ScopedTimer(double* seconds)
      : seconds_(seconds), start_(WallNow()) {}
  ~ScopedTimer() { *seconds_ += WallNow() - start_; }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  double* seconds_;
  double start_;
};

}  // namespace

TimedProgram::TimedProgram(std::shared_ptr<const VertexProgram> inner)
    : inner_(std::move(inner)),
      batch_(inner_ == nullptr ? nullptr : inner_->AsBatch()),
      generation_(next_generation.fetch_add(1)) {
  // Wrapping a per-update program as a batch program would move it onto
  // the engine's batch gather path and change what is measured.
  if (batch_ == nullptr) {
    std::fprintf(stderr, "TimedProgram: inner program must be a "
                         "BatchVertexProgram\n");
    std::abort();
  }
}

TimedProgram::~TimedProgram() = default;

ProgramTotals& TimedProgram::Local() const {
  // One slot per (thread, wrapper). The generation, not the address, keys
  // the cache: a later wrapper may reuse a freed wrapper's address.
  thread_local uint64_t cached_generation = 0;
  thread_local ProgramTotals* cached = nullptr;
  if (cached_generation != generation_) {
    const MutexLock lock(&mu_);
    slots_.push_back(std::make_unique<ProgramTotals>());
    cached = slots_.back().get();
    cached_generation = generation_;
  }
  return *cached;
}

ProgramTotals TimedProgram::Totals() const {
  ProgramTotals sum;
  const MutexLock lock(&mu_);
  for (const auto& slot : slots_) {
    sum.gather_s += slot->gather_s;
    sum.scatter_s += slot->scatter_s;
    sum.state_s += slot->state_s;
    sum.gather_calls += slot->gather_calls;
    sum.batch_calls += slot->batch_calls;
    sum.batch_items += slot->batch_items;
    sum.scatter_calls += slot->scatter_calls;
  }
  return sum;
}

std::unique_ptr<VertexState> TimedProgram::CreateState(VertexId id) const {
  ProgramTotals& t = Local();
  const ScopedTimer timer(&t.state_s);
  return inner_->CreateState(id);
}

std::unique_ptr<VertexState> TimedProgram::DeserializeState(
    BufferReader* reader) const {
  ProgramTotals& t = Local();
  const ScopedTimer timer(&t.state_s);
  return inner_->DeserializeState(reader);
}

bool TimedProgram::OnInput(VertexContext& ctx, const Delta& delta) const {
  ProgramTotals& t = Local();
  ++t.gather_calls;
  const ScopedTimer timer(&t.gather_s);
  return inner_->OnInput(ctx, delta);
}

bool TimedProgram::OnUpdate(VertexContext& ctx, VertexId source,
                            Iteration iteration,
                            const VertexUpdate& update) const {
  ProgramTotals& t = Local();
  ++t.gather_calls;
  const ScopedTimer timer(&t.gather_s);
  return inner_->OnUpdate(ctx, source, iteration, update);
}

bool TimedProgram::OnUpdateBatch(VertexContext& ctx, const QueuedUpdate* items,
                                 size_t n, double per_item_cost) const {
  ProgramTotals& t = Local();
  ++t.gather_calls;
  ++t.batch_calls;
  t.batch_items += n;
  const ScopedTimer timer(&t.gather_s);
  return batch_->OnUpdateBatch(ctx, items, n, per_item_cost);
}

void TimedProgram::Scatter(VertexContext& ctx) const {
  ProgramTotals& t = Local();
  ++t.scatter_calls;
  const ScopedTimer timer(&t.scatter_s);
  inner_->Scatter(ctx);
}

void TimedProgram::OnRestore(VertexState* state) const {
  ProgramTotals& t = Local();
  const ScopedTimer timer(&t.state_s);
  inner_->OnRestore(state);
}

bool TimedProgram::ActivateOnFork(const VertexState& state) const {
  return inner_->ActivateOnFork(state);
}

double TimedProgram::GatherCost() const { return inner_->GatherCost(); }
double TimedProgram::ScatterCost() const { return inner_->ScatterCost(); }

void RecoveryProbe::OnNodeKilled(NodeId /*node*/) {
  if (killed_at_ < 0.0) killed_at_ = clock_->now();
}

void RecoveryProbe::OnCommit(LoopId, LoopEpoch, VertexId, Iteration, Iteration,
                             Iteration) {
  const double now = clock_->now();
  if (killed_at_ >= 0.0) {
    const double since = std::max(last_commit_, killed_at_);
    longest_gap_ = std::max(longest_gap_, now - since);
  }
  last_commit_ = now;
}

double RecoveryProbe::RecoverySeconds(double end) const {
  if (killed_at_ < 0.0) return 0.0;
  return std::max(longest_gap_, end - std::max(last_commit_, killed_at_));
}

SpanLog::SpanLog() : origin_(WallNow()) {}

int SpanLog::Begin(const std::string& name, int parent, uint64_t query) {
  Span span;
  span.name = name;
  span.start = WallNow() - origin_;
  span.parent = parent;
  span.query = query;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int span, double child_s) {
  spans_[static_cast<size_t>(span)].end = WallNow() - origin_;
  spans_[static_cast<size_t>(span)].child_s = child_s;
}

bool SpanLog::Write(const std::string& path,
                    const std::string& header_json) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  out << "{" << header_json << ",\"spans\":[\n";
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                  "\"parent\":%d,\"query\":%llu,\"child_s\":%.9f}%s\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.query), s.child_s,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return out.good();
}

}  // namespace perfbench
}  // namespace tornado
