#ifndef TORNADO_COMMON_SERDE_H_
#define TORNADO_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/status.h"

namespace tornado {

/// Append-only binary encoder. Vertex states are serialized through this
/// before being materialized in the state store or flushed to a checkpoint,
/// mirroring how Tornado serializes vertex versions into external storage.
class BufferWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  /// LEB128 variable-length unsigned integer.
  void PutVarint(uint64_t v);

  /// Same bytes as a PutDouble per element, written with one copy.
  void PutDoubleVec(const std::vector<double>& v) {
    PutVarint(v.size());
    PutRaw(v.data(), v.size() * sizeof(double));
  }

  void PutU64Vec(const std::vector<uint64_t>& v) {
    PutVarint(v.size());
    for (uint64_t u : v) PutVarint(u);
  }

  const std::vector<uint8_t>& data() const { return buf_; }
  std::vector<uint8_t> Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  /// Empties the buffer but keeps its capacity, so one writer can be
  /// reused across records without reallocating.
  void Clear() { buf_.clear(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  std::vector<uint8_t> buf_;
};

/// Sequential binary decoder over a borrowed byte span. All getters report
/// truncation through Status instead of reading out of bounds.
class BufferReader {
 public:
  BufferReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit BufferReader(const std::vector<uint8_t>& buf)
      : BufferReader(buf.data(), buf.size()) {}

  Status GetU8(uint8_t* out);
  Status GetU32(uint32_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetU64(uint64_t* out) { return GetRaw(out, sizeof(*out)); }
  Status GetDouble(double* out) { return GetRaw(out, sizeof(*out)); }
  Status GetVarint(uint64_t* out);
  Status GetDoubleVec(std::vector<double>* out);
  Status GetU64Vec(std::vector<uint64_t>* out);

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status GetRaw(void* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace tornado

#endif  // TORNADO_COMMON_SERDE_H_
