// Runtime CPU dispatch for the batch kernels: pick the widest variant the
// host supports, once, at first use. One override:
//
//   TORNADO_KERNEL_VARIANT=scalar|sse2|avx2   pin an exact variant
//
// Because every variant is bit-identical (docs/KERNELS.md), the override
// is a performance knob, never a correctness one — which is exactly what
// the dispatch-matrix test asserts.

#include "kernel/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"

namespace tornado {
namespace kernel {

extern const KernelOps kScalarKernels;
#if defined(__x86_64__) || defined(_M_X64)
extern const KernelOps kSse2Kernels;
extern const KernelOps kAvx2Kernels;
#endif

namespace {

bool HostSupports(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return true;
#if defined(__x86_64__) || defined(_M_X64)
    case KernelVariant::kSse2:
      return true;  // SSE2 is the x86-64 baseline
    case KernelVariant::kAvx2:
#if defined(__GNUC__) || defined(__clang__)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
#else
    case KernelVariant::kSse2:
    case KernelVariant::kAvx2:
      return false;
#endif
  }
  return false;
}

const KernelOps* TableFor(KernelVariant v) {
  switch (v) {
#if defined(__x86_64__) || defined(_M_X64)
    case KernelVariant::kSse2:
      return &kSse2Kernels;
    case KernelVariant::kAvx2:
      return &kAvx2Kernels;
#endif
    default:
      return &kScalarKernels;
  }
}

KernelVariant SelectFromEnv() {
  const char* pin = std::getenv("TORNADO_KERNEL_VARIANT");
  if (pin != nullptr) {
    if (std::strcmp(pin, "scalar") == 0) return KernelVariant::kScalar;
    if (std::strcmp(pin, "sse2") == 0 && HostSupports(KernelVariant::kSse2)) {
      return KernelVariant::kSse2;
    }
    if (std::strcmp(pin, "avx2") == 0 && HostSupports(KernelVariant::kAvx2)) {
      return KernelVariant::kAvx2;
    }
    TLOG_WARN << "TORNADO_KERNEL_VARIANT=" << pin
                   << " unknown or unsupported on this host; auto-selecting";
  }
  if (HostSupports(KernelVariant::kAvx2)) return KernelVariant::kAvx2;
  if (HostSupports(KernelVariant::kSse2)) return KernelVariant::kSse2;
  return KernelVariant::kScalar;
}

// The one selection slot, so the environment is read (and a bad value
// warned about) once. It holds the table rather than the variant because
// Kernels() runs per call of the hot loops (one per 20-wide KMeans
// distance); ActiveKernelVariant() maps the table back.
std::atomic<const KernelOps*>& ActiveTable() {
  static std::atomic<const KernelOps*> active{TableFor(SelectFromEnv())};
  return active;
}

}  // namespace

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kSse2:
      return "sse2";
    case KernelVariant::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelOps& Kernels() { return *ActiveTable().load(std::memory_order_acquire); }

KernelVariant ActiveKernelVariant() {
  const KernelOps* active = ActiveTable().load(std::memory_order_acquire);
  for (const KernelVariant v : SupportedKernelVariants()) {
    if (TableFor(v) == active) return v;
  }
  return KernelVariant::kScalar;
}

std::vector<KernelVariant> SupportedKernelVariants() {
  std::vector<KernelVariant> out = {KernelVariant::kScalar};
  if (HostSupports(KernelVariant::kSse2)) out.push_back(KernelVariant::kSse2);
  if (HostSupports(KernelVariant::kAvx2)) out.push_back(KernelVariant::kAvx2);
  return out;
}

bool SetKernelVariant(KernelVariant v) {
  if (!HostSupports(v)) return false;
  ActiveTable().store(TableFor(v), std::memory_order_release);
  return true;
}

void ResetKernelVariant() { SetKernelVariant(SelectFromEnv()); }

}  // namespace kernel
}  // namespace tornado
