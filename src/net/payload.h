#ifndef TORNADO_NET_PAYLOAD_H_
#define TORNADO_NET_PAYLOAD_H_

#include <cstdint>
#include <memory>

namespace tornado {

/// Logical node address inside the simulated cluster.
using NodeId = uint32_t;

/// Physical machine index; several worker nodes can share one host and
/// then share its NIC (the paper runs up to 200 threads on 20 machines).
using HostId = uint32_t;

/// Base class for every message body carried by the network. The transport
/// treats payloads as opaque; the engine defines the concrete types in
/// core/messages.h.
struct Payload {
  virtual ~Payload() = default;

  /// Short type name for logs and traces.
  virtual const char* name() const = 0;

  /// Causal round id for tracing; 0 = untracked. The protocol engine stamps
  /// one fresh id per prepare round: the PrepareMsg fanout, every AckMsg that
  /// answers it (immediate or deferred), and the UpdateMsg scatter of the
  /// commit it enabled all carry the same id, so a commit in a trace can be
  /// walked back through the acks and prepares that produced it. Payloads
  /// travel as PayloadPtr on every backend, so the id is never serialized.
  uint64_t cause_id = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

}  // namespace tornado

#endif  // TORNADO_NET_PAYLOAD_H_
