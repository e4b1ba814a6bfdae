#include "engine/session_table.h"

#include <utility>

#include "common/logging.h"
#include "common/serde.h"

namespace tornado {

SessionTable::SessionTable(const JobConfig* config, VersionedStore* store)
    : config_(config), store_(store) {}

LoopState* SessionTable::Get(LoopId loop) {
  auto it = loops_.find(loop);
  return it == loops_.end() ? nullptr : &it->second;
}

const LoopState* SessionTable::Get(LoopId loop) const {
  auto it = loops_.find(loop);
  return it == loops_.end() ? nullptr : &it->second;
}

LoopState& SessionTable::Create(LoopId loop, LoopEpoch epoch, Iteration tau) {
  loops_.erase(loop);
  LoopState ls;
  ls.loop = loop;
  ls.epoch = epoch;
  ls.tau = tau;
  return loops_.emplace(loop, std::move(ls)).first->second;
}

Rng SessionTable::MakeVertexRng(LoopId loop, VertexId id) const {
  return Rng(config_->seed ^ (id * 0x9E3779B97F4A7C15ULL) ^
             (static_cast<uint64_t>(loop) << 32));
}

bool SessionTable::LoadFromStore(const LoopState& ls, VertexId id,
                                 Iteration at, VertexSession* out) const {
  // Guard spans the whole read: the VersionView stays valid only until
  // the store's next mutation (thread substrate: any node thread).
  const VersionedStore::Guard guard = store_->Lock();
  const VersionView blob = store_->Get(ls.loop, id, at);
  if (!blob) return false;
  BufferReader reader(blob.data(), blob.size());
  out->state = config_->program->DeserializeState(&reader);
  std::vector<uint64_t> targets;
  TCHECK(reader.GetU64Vec(&targets).ok()) << "corrupt vertex record";
  out->SetTargets(std::vector<VertexId>(targets.begin(), targets.end()));
  const Iteration version = store_->GetVersionIteration(ls.loop, id, at);
  out->iter = version;
  out->last_commit = version;
  return true;
}

VertexSession& SessionTable::GetOrCreate(LoopState& ls, VertexId id,
                                         Iteration load_at) {
  auto it = ls.vertices.find(id);
  if (it != ls.vertices.end()) return it->second;

  VertexSession s;
  s.id = id;
  s.rng = MakeVertexRng(ls.loop, id);
  if (!LoadFromStore(ls, id, load_at, &s)) {
    s.state = config_->program->CreateState(id);
    s.iter = ls.tau;
    s.last_commit = kNoIteration;
  }
  return ls.vertices.emplace(id, std::move(s)).first->second;
}

void SessionTable::Persist(LoopState& ls, VertexSession& s,
                           Iteration iteration) {
  persist_buffer_.Clear();
  s.state->Serialize(&persist_buffer_);
  persist_buffer_.PutU64Vec(s.targets());
  store_->PutBytes(ls.loop, s.id, iteration, persist_buffer_.data().data(),
                   persist_buffer_.size());
  ++ls.writes_since_flush;
}

uint64_t SessionTable::FlushForReport(LoopState& ls, Iteration horizon) {
  const uint64_t pending = ls.writes_since_flush;
  if (pending == 0) return 0;
  store_->Flush(ls.loop, horizon);
  ls.writes_since_flush = 0;
  return pending;
}

}  // namespace tornado
