#include "engine/consistency_policy.h"

#include "common/logging.h"

namespace tornado {

std::unique_ptr<ConsistencyPolicy> MakeConsistencyPolicy(
    const JobConfig& config) {
  switch (config.consistency) {
    case ConsistencyMode::kBoundedAsync:
      return std::make_unique<BoundedAsyncPolicy>(config.delay_bound);
    case ConsistencyMode::kSynchronous:
      return std::make_unique<BoundedAsyncPolicy>(1);
    case ConsistencyMode::kFullyAsync:
      return std::make_unique<FullyAsyncPolicy>();
  }
  TCHECK(false) << "unknown consistency mode";
  return nullptr;
}

}  // namespace tornado
