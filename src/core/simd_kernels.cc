#include "core/simd_kernels.h"

// All SIMD intrinsics in the library live in this translation unit (enforced
// by warplint-scalar-ref): the rest of src/core stays portable C++, and every
// vector kernel here has a *Scalar reference twin that the bit-identity test
// matrix (grid ≡ fused at 1/2/8 threads) runs against via
// WarpLdaOptions::force_scalar_kernels.
//
// The build deliberately carries no -march flags, so __AVX2__ is never
// defined globally; the vector paths are compiled with function-level
// __attribute__((target("avx2"))) and selected once at runtime via
// __builtin_cpu_supports. Dispatch cost is one predictable branch per batch,
// not per token.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define WARPLDA_SIMD_X86 1
#include <immintrin.h>
#endif

namespace warplda {
namespace simd {

namespace {

constexpr uint64_t kGamma = 0x9E3779B97F4A7C15ULL;
constexpr uint64_t kMix1 = 0xBF58476D1CE4E5B9ULL;
constexpr uint64_t kMix2 = 0x94D049BB133111EBULL;

#if WARPLDA_SIMD_X86

bool DetectAvx2() { return __builtin_cpu_supports("avx2") != 0; }

/// 64-bit lane-wise multiply (AVX2 has no _mm256_mullo_epi64):
/// lo(a*b) = lo(a)*lo(b) + ((lo(a)*hi(b) + hi(a)*lo(b)) << 32).
__attribute__((target("avx2"))) inline __m256i MulLo64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i cross1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
  const __m256i cross2 = _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32));
  const __m256i hi =
      _mm256_slli_epi64(_mm256_add_epi64(cross1, cross2), 32);
  return _mm256_add_epi64(lo, hi);
}

/// SplitMix64 finalizer, 4 lanes at once. Bit-identical to util/rng.h's
/// scalar SplitMix64 (same constants, same shifts) minus the += kGamma step,
/// which callers apply to their running counter first.
__attribute__((target("avx2"))) inline __m256i Mix64(__m256i x) {
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 30)),
              _mm256_set1_epi64x(static_cast<int64_t>(kMix1)));
  x = MulLo64(_mm256_xor_si256(x, _mm256_srli_epi64(x, 27)),
              _mm256_set1_epi64x(static_cast<int64_t>(kMix2)));
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, 31));
}

__attribute__((target("avx2"))) void DeriveStreamStatesAvx2(
    uint64_t stream_base, uint32_t tag, const uint64_t* tokens, size_t n,
    RngState* out) {
  const uint64_t base = stream_base ^ (static_cast<uint64_t>(tag) << 56);
  const __m256i base_v = _mm256_set1_epi64x(static_cast<int64_t>(base));
  const __m256i gamma_v = _mm256_set1_epi64x(static_cast<int64_t>(kGamma));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i tok = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(tokens + i));
    // seed = SplitMix64(base ^ token)
    __m256i x = _mm256_add_epi64(_mm256_xor_si256(base_v, tok), gamma_v);
    const __m256i seed = Mix64(x);
    // Rng::Seed expansion: 4 more gamma-advance + mix rounds.
    alignas(32) uint64_t lanes[4][4];
    x = seed;
    for (int s = 0; s < 4; ++s) {
      x = _mm256_add_epi64(x, gamma_v);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes[s]), Mix64(x));
    }
    for (int lane = 0; lane < 4; ++lane) {
      out[i + lane] = {lanes[0][lane], lanes[1][lane], lanes[2][lane],
                       lanes[3][lane]};
    }
  }
  // GCC emits no vzeroupper before a sibling call into non-AVX code, so
  // clear the upper YMM halves by hand: left dirty, they slow every later
  // SSE instruction in the process (corpus generation after a sampler Init
  // ran about 2x slower).
  _mm256_zeroupper();
  if (i < n) DeriveStreamStatesScalar(stream_base, tag, tokens + i, n - i,
                                      out + i);
}

__attribute__((target("avx2"))) void ComputeAcceptRatiosAvx2(
    size_t n, const double* a_t, const double* b_t, const double* a_cur,
    const double* b_cur, double* ratio, uint8_t* ge1) {
  const __m256d one = _mm256_set1_pd(1.0);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d num =
        _mm256_mul_pd(_mm256_loadu_pd(a_t + i), _mm256_loadu_pd(b_cur + i));
    const __m256d den =
        _mm256_mul_pd(_mm256_loadu_pd(a_cur + i), _mm256_loadu_pd(b_t + i));
    const __m256d r = _mm256_div_pd(num, den);
    _mm256_storeu_pd(ratio + i, r);
    const int bits =
        _mm256_movemask_pd(_mm256_cmp_pd(r, one, _CMP_GE_OQ));
    ge1[i] = static_cast<uint8_t>(bits & 1);
    ge1[i + 1] = static_cast<uint8_t>((bits >> 1) & 1);
    ge1[i + 2] = static_cast<uint8_t>((bits >> 2) & 1);
    ge1[i + 3] = static_cast<uint8_t>((bits >> 3) & 1);
  }
  _mm256_zeroupper();  // before the scalar tail, as in DeriveStreamStatesAvx2
  if (i < n) {
    ComputeAcceptRatiosScalar(n - i, a_t + i, b_t + i, a_cur + i, b_cur + i,
                              ratio + i, ge1 + i);
  }
}

#endif  // WARPLDA_SIMD_X86

}  // namespace

bool HasAvx2() {
#if WARPLDA_SIMD_X86
  static const bool supported = DetectAvx2();
  return supported;
#else
  return false;
#endif
}

const char* ActiveKernelFeatures() { return HasAvx2() ? "avx2" : "scalar"; }

void DeriveStreamStatesScalar(uint64_t stream_base, uint32_t tag,
                              const uint64_t* tokens, size_t n,
                              RngState* out) {
  const uint64_t base = stream_base ^ (static_cast<uint64_t>(tag) << 56);
  for (size_t i = 0; i < n; ++i) {
    // Exactly Rng(SplitMix64(base ^ token)): one seed mix, then the 4-step
    // expansion Rng::Seed performs.
    uint64_t x = SplitMix64(base ^ tokens[i]);
    for (int s = 0; s < 4; ++s) {
      x += kGamma;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * kMix1;
      z = (z ^ (z >> 27)) * kMix2;
      out[i][s] = z ^ (z >> 31);
    }
  }
}

void DeriveStreamStates(uint64_t stream_base, uint32_t tag,
                        const uint64_t* tokens, size_t n, RngState* out,
                        bool force_scalar) {
#if WARPLDA_SIMD_X86
  if (!force_scalar && HasAvx2()) {
    DeriveStreamStatesAvx2(stream_base, tag, tokens, n, out);
    return;
  }
#else
  (void)force_scalar;
#endif
  DeriveStreamStatesScalar(stream_base, tag, tokens, n, out);
}

void ComputeAcceptRatiosScalar(size_t n, const double* a_t, const double* b_t,
                               const double* a_cur, const double* b_cur,
                               double* ratio, uint8_t* ge1) {
  for (size_t i = 0; i < n; ++i) {
    // Same expression tree as the vector path and as the fused AcceptChain:
    // (mul, mul, div) — bit-identical IEEE doubles on every path.
    const double r = (a_t[i] * b_cur[i]) / (a_cur[i] * b_t[i]);
    ratio[i] = r;
    ge1[i] = r >= 1.0 ? 1 : 0;
  }
}

void ComputeAcceptRatios(size_t n, const double* a_t, const double* b_t,
                         const double* a_cur, const double* b_cur,
                         double* ratio, uint8_t* ge1, bool force_scalar) {
#if WARPLDA_SIMD_X86
  if (!force_scalar && HasAvx2()) {
    ComputeAcceptRatiosAvx2(n, a_t, b_t, a_cur, b_cur, ratio, ge1);
    return;
  }
#else
  (void)force_scalar;
#endif
  ComputeAcceptRatiosScalar(n, a_t, b_t, a_cur, b_cur, ratio, ge1);
}

}  // namespace simd
}  // namespace warplda
