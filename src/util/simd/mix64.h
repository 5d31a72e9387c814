// Mix64 (the SplitMix64 finalizer, util/rng.h) replicated across the four
// SIMD lanes of util/simd/simd.h. Shared by the frequency-oracle kernels
// (src/fo/fo_kernels.cc, vectorized HashCounter) and the wire checksum
// (src/fo/wire.cc, lane mixing): the sequence must stay the exact scalar
// finalizer — any drift breaks protocol compatibility with clients hashing
// through the scalar Mix64, and fo_kernel_test / wire_fuzz_test pin it.
#ifndef LDPIDS_UTIL_SIMD_MIX64_H_
#define LDPIDS_UTIL_SIMD_MIX64_H_

#include <cstdint>

#include "util/simd/simd.h"

namespace ldpids::simd {

// SplitMix64's golden-gamma increment, applied by Mix64 before finalizing.
inline constexpr uint64_t kMix64Golden = 0x9E3779B97F4A7C15ULL;

inline U64x Mix64V(U64x x) {
  U64x z = AddU64(x, BroadcastU64(kMix64Golden));
  z = MulLoU64(XorU64(z, ShrU64(z, 30)),
               BroadcastU64(0xBF58476D1CE4E5B9ULL));
  z = MulLoU64(XorU64(z, ShrU64(z, 27)),
               BroadcastU64(0x94D049BB133111EBULL));
  return XorU64(z, ShrU64(z, 31));
}

}  // namespace ldpids::simd

#endif  // LDPIDS_UTIL_SIMD_MIX64_H_
