#ifndef TORNADO_KERNEL_SIMD_VEC_H_
#define TORNADO_KERNEL_SIMD_VEC_H_

// Portable 8-lane double vector, compiled per-TU at one of three levels:
//
//   TORNADO_SIMD_LEVEL 0  — scalar (double[8] loops)
//   TORNADO_SIMD_LEVEL 1  — SSE2   (4 x __m128d)
//   TORNADO_SIMD_LEVEL 2  — AVX2   (2 x __m256d)
//
// Each kernel variant TU (kernels_scalar.cc / kernels_sse2.cc /
// kernels_avx2.cc) defines TORNADO_SIMD_LEVEL and TORNADO_SIMD_NS before
// including this header, so every level gets its own namespace and there
// is exactly one definition of each DVec8 per program. The active variant
// is picked once at startup by kernel/dispatch.cc (CPUID, with the
// TORNADO_KERNEL_VARIANT override).
//
// Determinism contract (docs/KERNELS.md): all three levels perform the
// same IEEE-754 operations on the same lane assignment, so any
// lane-by-lane computation — and any reduction that combines the eight
// lane accumulators in the shared canonical tree — is bit-identical
// across levels. Min uses the SSE `a < b ? a : b` operand order at every
// level. These TUs are compiled with -ffp-contract=off so the scalar
// level cannot fuse a*b+c into an FMA the vector levels don't issue.

#ifndef TORNADO_SIMD_LEVEL
#define TORNADO_SIMD_LEVEL 0
#endif
#ifndef TORNADO_SIMD_NS
#define TORNADO_SIMD_NS vec_scalar
#endif

#if TORNADO_SIMD_LEVEL >= 1
#include <emmintrin.h>
#endif
#if TORNADO_SIMD_LEVEL >= 2
#include <immintrin.h>
#endif

#include <cstddef>

namespace tornado {
namespace kernel {
namespace TORNADO_SIMD_NS {

/// Eight doubles; lane j of a load from `p` is p[j] at every level.
struct DVec8;

#if TORNADO_SIMD_LEVEL == 2

struct DVec8 {
  __m256d lo;  // lanes 0..3
  __m256d hi;  // lanes 4..7

  static DVec8 Zero() {
    return {_mm256_setzero_pd(), _mm256_setzero_pd()};
  }
  static DVec8 Broadcast(double s) {
    return {_mm256_set1_pd(s), _mm256_set1_pd(s)};
  }
  static DVec8 Load(const double* p) {
    return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
  }
  void Store(double* p) const {
    _mm256_storeu_pd(p, lo);
    _mm256_storeu_pd(p + 4, hi);
  }
  friend DVec8 operator+(DVec8 a, DVec8 b) {
    return {_mm256_add_pd(a.lo, b.lo), _mm256_add_pd(a.hi, b.hi)};
  }
  friend DVec8 operator-(DVec8 a, DVec8 b) {
    return {_mm256_sub_pd(a.lo, b.lo), _mm256_sub_pd(a.hi, b.hi)};
  }
  friend DVec8 operator*(DVec8 a, DVec8 b) {
    return {_mm256_mul_pd(a.lo, b.lo), _mm256_mul_pd(a.hi, b.hi)};
  }
  friend DVec8 operator/(DVec8 a, DVec8 b) {
    return {_mm256_div_pd(a.lo, b.lo), _mm256_div_pd(a.hi, b.hi)};
  }
  static DVec8 Min(DVec8 a, DVec8 b) {
    return {_mm256_min_pd(a.lo, b.lo), _mm256_min_pd(a.hi, b.hi)};
  }
};

#elif TORNADO_SIMD_LEVEL == 1

struct DVec8 {
  __m128d v0;  // lanes 0..1
  __m128d v1;  // lanes 2..3
  __m128d v2;  // lanes 4..5
  __m128d v3;  // lanes 6..7

  static DVec8 Zero() {
    const __m128d z = _mm_setzero_pd();
    return {z, z, z, z};
  }
  static DVec8 Broadcast(double s) {
    const __m128d b = _mm_set1_pd(s);
    return {b, b, b, b};
  }
  static DVec8 Load(const double* p) {
    return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2), _mm_loadu_pd(p + 4),
            _mm_loadu_pd(p + 6)};
  }
  void Store(double* p) const {
    _mm_storeu_pd(p, v0);
    _mm_storeu_pd(p + 2, v1);
    _mm_storeu_pd(p + 4, v2);
    _mm_storeu_pd(p + 6, v3);
  }
  friend DVec8 operator+(DVec8 a, DVec8 b) {
    return {_mm_add_pd(a.v0, b.v0), _mm_add_pd(a.v1, b.v1),
            _mm_add_pd(a.v2, b.v2), _mm_add_pd(a.v3, b.v3)};
  }
  friend DVec8 operator-(DVec8 a, DVec8 b) {
    return {_mm_sub_pd(a.v0, b.v0), _mm_sub_pd(a.v1, b.v1),
            _mm_sub_pd(a.v2, b.v2), _mm_sub_pd(a.v3, b.v3)};
  }
  friend DVec8 operator*(DVec8 a, DVec8 b) {
    return {_mm_mul_pd(a.v0, b.v0), _mm_mul_pd(a.v1, b.v1),
            _mm_mul_pd(a.v2, b.v2), _mm_mul_pd(a.v3, b.v3)};
  }
  friend DVec8 operator/(DVec8 a, DVec8 b) {
    return {_mm_div_pd(a.v0, b.v0), _mm_div_pd(a.v1, b.v1),
            _mm_div_pd(a.v2, b.v2), _mm_div_pd(a.v3, b.v3)};
  }
  static DVec8 Min(DVec8 a, DVec8 b) {
    return {_mm_min_pd(a.v0, b.v0), _mm_min_pd(a.v1, b.v1),
            _mm_min_pd(a.v2, b.v2), _mm_min_pd(a.v3, b.v3)};
  }
};

#else  // scalar

struct DVec8 {
  double l[8];

  static DVec8 Zero() { return {{0, 0, 0, 0, 0, 0, 0, 0}}; }
  static DVec8 Broadcast(double s) { return {{s, s, s, s, s, s, s, s}}; }
  static DVec8 Load(const double* p) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = p[j];
    return r;
  }
  void Store(double* p) const {
    for (int j = 0; j < 8; ++j) p[j] = l[j];
  }
  friend DVec8 operator+(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] + b.l[j];
    return r;
  }
  friend DVec8 operator-(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] - b.l[j];
    return r;
  }
  friend DVec8 operator*(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] * b.l[j];
    return r;
  }
  friend DVec8 operator/(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] / b.l[j];
    return r;
  }
  /// SSE minpd operand order: `a < b ? a : b`, so NaN/-0 handling matches
  /// the vector levels bit-for-bit.
  static DVec8 Min(DVec8 a, DVec8 b) {
    DVec8 r;
    for (int j = 0; j < 8; ++j) r.l[j] = a.l[j] < b.l[j] ? a.l[j] : b.l[j];
    return r;
  }
};

#endif  // TORNADO_SIMD_LEVEL

}  // namespace TORNADO_SIMD_NS
}  // namespace kernel
}  // namespace tornado

#endif  // TORNADO_KERNEL_SIMD_VEC_H_
