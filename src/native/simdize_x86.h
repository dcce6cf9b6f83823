//===- native/simdize_x86.h - Host-SIMD wrapper for emitted kernels ------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin per-ISA wrapper layer the native backend's emitted kernels
/// compile against: one `vx_*` function per generic vector operation of
/// the VM (`sim/Machine.cpp` is the semantic reference — every function
/// here must be bit-identical to the interpreter on every input). The
/// translation unit defines SIMDIZE_NATIVE_V to the vector byte width and
/// exactly one ISA selector before including this header:
///
///   SIMDIZE_NATIVE_ISA_SHIM    portable scalar model, any power-of-2 V
///   SIMDIZE_NATIVE_ISA_SSE2    __m128i intrinsics, V = 16
///   SIMDIZE_NATIVE_ISA_AVX2    __m256i intrinsics, V = 32
///   SIMDIZE_NATIVE_ISA_AVX512  __m512i intrinsics (F+BW), V = 64
///
/// Operation semantics (all must match MachineState::execInst):
///
///   vx_ld / vx_st          address truncated to a V-byte boundary
///   vx_sld<N>              bytes [N, N+V) of A ++ B, immediate N in [0,V]
///   vx_shiftpair(A,B,S)    same with a runtime shift S in [0,V]
///   vx_splice(A,B,P)       first P bytes from A, the rest from B
///   vx_splat_i8/16/32      lane-replicated immediate (little-endian)
///   vx_add/sub/mul_*       wrap-around unsigned lane arithmetic
///   vx_min/max_*           signed lane comparisons
///   vx_and/or/xor_*        bitwise (lane width irrelevant)
///   vx_cmp_{lt,le,gt,ge,eq,ne}_*  signed lane compare to all-ones/zero mask
///   vx_sel(M,S,C)          bytewise (S & M) | (C & ~M) — the vselect blend
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_SIMDIZE_X86_H
#define SIMDIZE_NATIVE_SIMDIZE_X86_H

#ifndef SIMDIZE_NATIVE_V
#error "define SIMDIZE_NATIVE_V to the vector byte width before including"
#endif

#include <cstdint>
#include <cstring>

//===----------------------------------------------------------------------===//
// Portable shim: scalar model of the operations, any power-of-2 V. The
// always-available fallback ISA (and the only one off x86).
//===----------------------------------------------------------------------===//
#if defined(SIMDIZE_NATIVE_ISA_SHIM)

/// One V-byte vector register.
struct vx_t {
  unsigned char B[SIMDIZE_NATIVE_V];
};

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P = reinterpret_cast<uintptr_t>(Addr) &
                ~static_cast<uintptr_t>(SIMDIZE_NATIVE_V - 1);
  vx_t V;
  std::memcpy(V.B, reinterpret_cast<const unsigned char *>(P),
              SIMDIZE_NATIVE_V);
  return V;
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P = reinterpret_cast<uintptr_t>(Addr) &
                ~static_cast<uintptr_t>(SIMDIZE_NATIVE_V - 1);
  std::memcpy(reinterpret_cast<unsigned char *>(P), V.B, SIMDIZE_NATIVE_V);
}

inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  unsigned char Concat[2 * SIMDIZE_NATIVE_V];
  std::memcpy(Concat, A.B, SIMDIZE_NATIVE_V);
  std::memcpy(Concat + SIMDIZE_NATIVE_V, B.B, SIMDIZE_NATIVE_V);
  vx_t Out;
  std::memcpy(Out.B, Concat + S, SIMDIZE_NATIVE_V);
  return Out;
}

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= SIMDIZE_NATIVE_V,
                "shift immediate out of range");
  return vx_shiftpair(A, B, N);
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  vx_t Out;
  for (int K = 0; K < SIMDIZE_NATIVE_V; ++K)
    Out.B[K] = K < P ? A.B[K] : B.B[K];
  return Out;
}

namespace simdize_x86_detail {

template <typename Lane, typename Fn> inline vx_t lanewise(vx_t A, vx_t B,
                                                           Fn F) {
  vx_t Out;
  for (unsigned K = 0; K < SIMDIZE_NATIVE_V / sizeof(Lane); ++K) {
    Lane X, Y;
    std::memcpy(&X, A.B + K * sizeof(Lane), sizeof(Lane));
    std::memcpy(&Y, B.B + K * sizeof(Lane), sizeof(Lane));
    Lane R = F(X, Y);
    std::memcpy(Out.B + K * sizeof(Lane), &R, sizeof(Lane));
  }
  return Out;
}

template <typename Lane> inline vx_t splat(long Value) {
  vx_t Out;
  Lane V = static_cast<Lane>(Value);
  for (unsigned K = 0; K < SIMDIZE_NATIVE_V / sizeof(Lane); ++K)
    std::memcpy(Out.B + K * sizeof(Lane), &V, sizeof(Lane));
  return Out;
}

} // namespace simdize_x86_detail

#define SIMDIZE_X86_BINOP(NAME, LANE, EXPR)                                  \
  inline vx_t NAME(vx_t A, vx_t B) {                                         \
    return simdize_x86_detail::lanewise<LANE>(                               \
        A, B, [](LANE X, LANE Y) -> LANE { return EXPR; });                  \
  }

SIMDIZE_X86_BINOP(vx_add_i8, uint8_t, X + Y)
SIMDIZE_X86_BINOP(vx_sub_i8, uint8_t, X - Y)
SIMDIZE_X86_BINOP(vx_mul_i8, uint8_t, X *Y)
SIMDIZE_X86_BINOP(vx_and_i8, uint8_t, X &Y)
SIMDIZE_X86_BINOP(vx_or_i8, uint8_t, X | Y)
SIMDIZE_X86_BINOP(vx_xor_i8, uint8_t, X ^ Y)
SIMDIZE_X86_BINOP(vx_add_i16, uint16_t, X + Y)
SIMDIZE_X86_BINOP(vx_sub_i16, uint16_t, X - Y)
SIMDIZE_X86_BINOP(vx_mul_i16, uint16_t, X *Y)
SIMDIZE_X86_BINOP(vx_and_i16, uint16_t, X &Y)
SIMDIZE_X86_BINOP(vx_or_i16, uint16_t, X | Y)
SIMDIZE_X86_BINOP(vx_xor_i16, uint16_t, X ^ Y)
SIMDIZE_X86_BINOP(vx_add_i32, uint32_t, X + Y)
SIMDIZE_X86_BINOP(vx_sub_i32, uint32_t, X - Y)
SIMDIZE_X86_BINOP(vx_mul_i32, uint32_t, X *Y)
SIMDIZE_X86_BINOP(vx_and_i32, uint32_t, X &Y)
SIMDIZE_X86_BINOP(vx_or_i32, uint32_t, X | Y)
SIMDIZE_X86_BINOP(vx_xor_i32, uint32_t, X ^ Y)
SIMDIZE_X86_BINOP(vx_min_i8, int8_t, X < Y ? X : Y)
SIMDIZE_X86_BINOP(vx_max_i8, int8_t, X > Y ? X : Y)
SIMDIZE_X86_BINOP(vx_min_i16, int16_t, X < Y ? X : Y)
SIMDIZE_X86_BINOP(vx_max_i16, int16_t, X > Y ? X : Y)
SIMDIZE_X86_BINOP(vx_min_i32, int32_t, X < Y ? X : Y)
SIMDIZE_X86_BINOP(vx_max_i32, int32_t, X > Y ? X : Y)

#define SIMDIZE_X86_CMP(NAME, OP)                                            \
  SIMDIZE_X86_BINOP(NAME##_i8, int8_t, X OP Y ? int8_t(-1) : int8_t(0))      \
  SIMDIZE_X86_BINOP(NAME##_i16, int16_t, X OP Y ? int16_t(-1) : int16_t(0))  \
  SIMDIZE_X86_BINOP(NAME##_i32, int32_t, X OP Y ? int32_t(-1) : int32_t(0))

SIMDIZE_X86_CMP(vx_cmp_lt, <)
SIMDIZE_X86_CMP(vx_cmp_le, <=)
SIMDIZE_X86_CMP(vx_cmp_gt, >)
SIMDIZE_X86_CMP(vx_cmp_ge, >=)
SIMDIZE_X86_CMP(vx_cmp_eq, ==)
SIMDIZE_X86_CMP(vx_cmp_ne, !=)

#undef SIMDIZE_X86_CMP
#undef SIMDIZE_X86_BINOP

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  vx_t Out;
  for (int K = 0; K < SIMDIZE_NATIVE_V; ++K)
    Out.B[K] = static_cast<unsigned char>((IfSet.B[K] & Mask.B[K]) |
                                          (IfClear.B[K] & ~Mask.B[K]));
  return Out;
}

inline vx_t vx_splat_i8(long V) {
  return simdize_x86_detail::splat<uint8_t>(V);
}
inline vx_t vx_splat_i16(long V) {
  return simdize_x86_detail::splat<uint16_t>(V);
}
inline vx_t vx_splat_i32(long V) {
  return simdize_x86_detail::splat<uint32_t>(V);
}

//===----------------------------------------------------------------------===//
// SSE2: __m128i, V = 16. Baseline x86-64 — always compilable there.
// SSE2 has no epi32 mullo, no signed epi8/epi32 min/max, and no byte
// mullo, so those fall back to the classic widen/compare sequences.
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_SSE2)

#if SIMDIZE_NATIVE_V != 16
#error "SSE2 lowering requires V = 16"
#endif

#include <emmintrin.h>

typedef __m128i vx_t;

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(15);
  return _mm_load_si128(reinterpret_cast<const __m128i *>(P));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(15);
  _mm_store_si128(reinterpret_cast<__m128i *>(P), V);
}

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 16, "shift immediate out of range");
  if constexpr (N == 0)
    return A;
  else if constexpr (N == 16)
    return B;
  else
    return _mm_or_si128(_mm_srli_si128(A, N), _mm_slli_si128(B, 16 - N));
}

inline vx_t vx_select(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return _mm_or_si128(_mm_and_si128(Mask, IfSet),
                      _mm_andnot_si128(Mask, IfClear));
}

/// Runtime shift pair in registers. With W = S / 8 and R = S % 8, qword k
/// of the result is (X_k >> 8R) | (Y_k << (64 - 8R)), where X and Y are
/// the qword windows of A ++ B starting at W and W + 1: X is A, (A.hi,
/// B.lo) or B, and Y the next one along. The masks and counts depend on
/// S alone, so a loop-invariant S leaves two selects, two shifts and an
/// or in the loop body. A count of 64 shifts a qword out entirely, which
/// makes R = 0 exact.
inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  __m128i Mid = _mm_castpd_si128(
      _mm_shuffle_pd(_mm_castsi128_pd(A), _mm_castsi128_pd(B), 1));
  __m128i W = _mm_set1_epi32(static_cast<int>(S >> 3));
  __m128i AtA = _mm_cmpeq_epi32(W, _mm_setzero_si128());
  __m128i AtMid = _mm_cmpeq_epi32(W, _mm_set1_epi32(1));
  __m128i X = vx_select(AtA, A, vx_select(AtMid, Mid, B));
  __m128i Y = vx_select(AtA, Mid, B);
  int R = static_cast<int>(8 * (S & 7));
  return _mm_or_si128(_mm_srl_epi64(X, _mm_cvtsi32_si128(R)),
                      _mm_sll_epi64(Y, _mm_cvtsi32_si128(64 - R)));
}

/// 0xFF in bytes [0, P), 0x00 above — the vsplice select mask.
inline vx_t vx_splice_mask(long P) {
  const __m128i Idx = _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                    12, 13, 14, 15);
  return _mm_cmplt_epi8(Idx, _mm_set1_epi8(static_cast<char>(P)));
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  return vx_select(vx_splice_mask(P), A, B);
}

inline vx_t vx_splat_i8(long V) {
  return _mm_set1_epi8(static_cast<char>(V));
}
inline vx_t vx_splat_i16(long V) {
  return _mm_set1_epi16(static_cast<short>(V));
}
inline vx_t vx_splat_i32(long V) {
  return _mm_set1_epi32(static_cast<int>(V));
}

inline vx_t vx_add_i8(vx_t A, vx_t B) { return _mm_add_epi8(A, B); }
inline vx_t vx_sub_i8(vx_t A, vx_t B) { return _mm_sub_epi8(A, B); }
inline vx_t vx_add_i16(vx_t A, vx_t B) { return _mm_add_epi16(A, B); }
inline vx_t vx_sub_i16(vx_t A, vx_t B) { return _mm_sub_epi16(A, B); }
inline vx_t vx_add_i32(vx_t A, vx_t B) { return _mm_add_epi32(A, B); }
inline vx_t vx_sub_i32(vx_t A, vx_t B) { return _mm_sub_epi32(A, B); }
inline vx_t vx_mul_i16(vx_t A, vx_t B) { return _mm_mullo_epi16(A, B); }

/// Byte mullo: widen each half to i16, multiply, mask to the low byte,
/// and pack (exact because every lane is already in [0, 255]).
inline vx_t vx_mul_i8(vx_t A, vx_t B) {
  __m128i Z = _mm_setzero_si128();
  __m128i Lo = _mm_mullo_epi16(_mm_unpacklo_epi8(A, Z),
                               _mm_unpacklo_epi8(B, Z));
  __m128i Hi = _mm_mullo_epi16(_mm_unpackhi_epi8(A, Z),
                               _mm_unpackhi_epi8(B, Z));
  __m128i M = _mm_set1_epi16(0x00FF);
  return _mm_packus_epi16(_mm_and_si128(Lo, M), _mm_and_si128(Hi, M));
}

/// 32-bit mullo from the even/odd _mm_mul_epu32 pair (no _mm_mullo_epi32
/// before SSE4.1).
inline vx_t vx_mul_i32(vx_t A, vx_t B) {
  __m128i Even = _mm_mul_epu32(A, B);
  __m128i Odd = _mm_mul_epu32(_mm_srli_si128(A, 4), _mm_srli_si128(B, 4));
  __m128i EvenLo = _mm_shuffle_epi32(Even, _MM_SHUFFLE(0, 0, 2, 0));
  __m128i OddLo = _mm_shuffle_epi32(Odd, _MM_SHUFFLE(0, 0, 2, 0));
  return _mm_unpacklo_epi32(EvenLo, OddLo);
}

inline vx_t vx_and_i8(vx_t A, vx_t B) { return _mm_and_si128(A, B); }
inline vx_t vx_or_i8(vx_t A, vx_t B) { return _mm_or_si128(A, B); }
inline vx_t vx_xor_i8(vx_t A, vx_t B) { return _mm_xor_si128(A, B); }
inline vx_t vx_and_i16(vx_t A, vx_t B) { return _mm_and_si128(A, B); }
inline vx_t vx_or_i16(vx_t A, vx_t B) { return _mm_or_si128(A, B); }
inline vx_t vx_xor_i16(vx_t A, vx_t B) { return _mm_xor_si128(A, B); }
inline vx_t vx_and_i32(vx_t A, vx_t B) { return _mm_and_si128(A, B); }
inline vx_t vx_or_i32(vx_t A, vx_t B) { return _mm_or_si128(A, B); }
inline vx_t vx_xor_i32(vx_t A, vx_t B) { return _mm_xor_si128(A, B); }

inline vx_t vx_min_i16(vx_t A, vx_t B) { return _mm_min_epi16(A, B); }
inline vx_t vx_max_i16(vx_t A, vx_t B) { return _mm_max_epi16(A, B); }
inline vx_t vx_min_i8(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi8(A, B), B, A);
}
inline vx_t vx_max_i8(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi8(A, B), A, B);
}
inline vx_t vx_min_i32(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi32(A, B), B, A);
}
inline vx_t vx_max_i32(vx_t A, vx_t B) {
  return vx_select(_mm_cmpgt_epi32(A, B), A, B);
}

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return vx_select(Mask, IfSet, IfClear);
}

// Signed lane compares. SSE2 has eq/gt/lt natively; the other three are
// their complements (xor with all-ones).
inline vx_t vx_not(vx_t A) { return _mm_xor_si128(A, _mm_set1_epi8(-1)); }

inline vx_t vx_cmp_eq_i8(vx_t A, vx_t B) { return _mm_cmpeq_epi8(A, B); }
inline vx_t vx_cmp_eq_i16(vx_t A, vx_t B) { return _mm_cmpeq_epi16(A, B); }
inline vx_t vx_cmp_eq_i32(vx_t A, vx_t B) { return _mm_cmpeq_epi32(A, B); }
inline vx_t vx_cmp_ne_i8(vx_t A, vx_t B) { return vx_not(vx_cmp_eq_i8(A, B)); }
inline vx_t vx_cmp_ne_i16(vx_t A, vx_t B) {
  return vx_not(vx_cmp_eq_i16(A, B));
}
inline vx_t vx_cmp_ne_i32(vx_t A, vx_t B) {
  return vx_not(vx_cmp_eq_i32(A, B));
}
inline vx_t vx_cmp_gt_i8(vx_t A, vx_t B) { return _mm_cmpgt_epi8(A, B); }
inline vx_t vx_cmp_gt_i16(vx_t A, vx_t B) { return _mm_cmpgt_epi16(A, B); }
inline vx_t vx_cmp_gt_i32(vx_t A, vx_t B) { return _mm_cmpgt_epi32(A, B); }
inline vx_t vx_cmp_lt_i8(vx_t A, vx_t B) { return _mm_cmplt_epi8(A, B); }
inline vx_t vx_cmp_lt_i16(vx_t A, vx_t B) { return _mm_cmplt_epi16(A, B); }
inline vx_t vx_cmp_lt_i32(vx_t A, vx_t B) { return _mm_cmplt_epi32(A, B); }
inline vx_t vx_cmp_le_i8(vx_t A, vx_t B) { return vx_not(vx_cmp_gt_i8(A, B)); }
inline vx_t vx_cmp_le_i16(vx_t A, vx_t B) {
  return vx_not(vx_cmp_gt_i16(A, B));
}
inline vx_t vx_cmp_le_i32(vx_t A, vx_t B) {
  return vx_not(vx_cmp_gt_i32(A, B));
}
inline vx_t vx_cmp_ge_i8(vx_t A, vx_t B) { return vx_not(vx_cmp_lt_i8(A, B)); }
inline vx_t vx_cmp_ge_i16(vx_t A, vx_t B) {
  return vx_not(vx_cmp_lt_i16(A, B));
}
inline vx_t vx_cmp_ge_i32(vx_t A, vx_t B) {
  return vx_not(vx_cmp_lt_i32(A, B));
}

//===----------------------------------------------------------------------===//
// AVX2: __m256i, V = 32. The cross-lane shift pair composes vperm2i128
// with the per-128-lane vpalignr; lanewise arithmetic is all native
// except byte mullo (widen/pack is per-lane symmetric, so the SSE2
// sequence carries over).
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_AVX2)

#if SIMDIZE_NATIVE_V != 32
#error "AVX2 lowering requires V = 32"
#endif

#include <immintrin.h>

typedef __m256i vx_t;

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(31);
  return _mm256_load_si256(reinterpret_cast<const __m256i *>(P));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(31);
  _mm256_store_si256(reinterpret_cast<__m256i *>(P), V);
}

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 32, "shift immediate out of range");
  if constexpr (N == 0)
    return A;
  else if constexpr (N == 32)
    return B;
  else if constexpr (N == 16)
    return _mm256_permute2x128_si256(A, B, 0x21);
  else if constexpr (N < 16) {
    // Lane l of the result needs bytes [N, N+16) of concat(C_l, C_{l+1})
    // where C = [A_lo, A_hi, B_lo]; M = [A_hi, B_lo] supplies C_{l+1}.
    __m256i M = _mm256_permute2x128_si256(A, B, 0x21);
    return _mm256_alignr_epi8(M, A, N);
  } else {
    __m256i M = _mm256_permute2x128_si256(A, B, 0x21);
    return _mm256_alignr_epi8(B, M, N - 16);
  }
}

namespace simdize_x86_detail {

/// Dword k of the result is dword Idx_k of the 16-dword A ++ B: both
/// sources go through the single-source vpermd (which reads the index's
/// low three bits), and index bit 3 blends in B's pick.
inline __m256i pickDwords(__m256i A, __m256i B, __m256i Idx) {
  return _mm256_blendv_epi8(_mm256_permutevar8x32_epi32(A, Idx),
                            _mm256_permutevar8x32_epi32(B, Idx),
                            _mm256_cmpgt_epi32(Idx, _mm256_set1_epi32(7)));
}

} // namespace simdize_x86_detail

/// Runtime shift pair in registers, the qword scheme of the SSE2 variant:
/// X and Y are the qword windows of A ++ B starting at S / 8 and S / 8 + 1,
/// and the result is (X >> 8R) | (Y << (64 - 8R)) per qword, R = S % 8.
/// The gather indices and counts depend on S alone and hoist out of a
/// loop that shifts by an invariant S.
inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  __m256i XIdx =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(2 * (S >> 3))),
                       _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  __m256i YIdx = _mm256_add_epi32(XIdx, _mm256_set1_epi32(2));
  __m256i X = simdize_x86_detail::pickDwords(A, B, XIdx);
  __m256i Y = simdize_x86_detail::pickDwords(A, B, YIdx);
  long long R = 8 * (S & 7);
  return _mm256_or_si256(_mm256_srlv_epi64(X, _mm256_set1_epi64x(R)),
                         _mm256_sllv_epi64(Y, _mm256_set1_epi64x(64 - R)));
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  const __m256i Idx = _mm256_setr_epi8(
      0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19,
      20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31);
  // Idx and P are in [0, 32], so the signed byte compare is exact.
  __m256i M = _mm256_cmpgt_epi8(_mm256_set1_epi8(static_cast<char>(P)), Idx);
  return _mm256_blendv_epi8(B, A, M);
}

inline vx_t vx_splat_i8(long V) {
  return _mm256_set1_epi8(static_cast<char>(V));
}
inline vx_t vx_splat_i16(long V) {
  return _mm256_set1_epi16(static_cast<short>(V));
}
inline vx_t vx_splat_i32(long V) {
  return _mm256_set1_epi32(static_cast<int>(V));
}

inline vx_t vx_add_i8(vx_t A, vx_t B) { return _mm256_add_epi8(A, B); }
inline vx_t vx_sub_i8(vx_t A, vx_t B) { return _mm256_sub_epi8(A, B); }
inline vx_t vx_add_i16(vx_t A, vx_t B) { return _mm256_add_epi16(A, B); }
inline vx_t vx_sub_i16(vx_t A, vx_t B) { return _mm256_sub_epi16(A, B); }
inline vx_t vx_add_i32(vx_t A, vx_t B) { return _mm256_add_epi32(A, B); }
inline vx_t vx_sub_i32(vx_t A, vx_t B) { return _mm256_sub_epi32(A, B); }
inline vx_t vx_mul_i16(vx_t A, vx_t B) { return _mm256_mullo_epi16(A, B); }
inline vx_t vx_mul_i32(vx_t A, vx_t B) { return _mm256_mullo_epi32(A, B); }

inline vx_t vx_mul_i8(vx_t A, vx_t B) {
  __m256i Z = _mm256_setzero_si256();
  __m256i Lo = _mm256_mullo_epi16(_mm256_unpacklo_epi8(A, Z),
                                  _mm256_unpacklo_epi8(B, Z));
  __m256i Hi = _mm256_mullo_epi16(_mm256_unpackhi_epi8(A, Z),
                                  _mm256_unpackhi_epi8(B, Z));
  __m256i M = _mm256_set1_epi16(0x00FF);
  return _mm256_packus_epi16(_mm256_and_si256(Lo, M),
                             _mm256_and_si256(Hi, M));
}

inline vx_t vx_and_i8(vx_t A, vx_t B) { return _mm256_and_si256(A, B); }
inline vx_t vx_or_i8(vx_t A, vx_t B) { return _mm256_or_si256(A, B); }
inline vx_t vx_xor_i8(vx_t A, vx_t B) { return _mm256_xor_si256(A, B); }
inline vx_t vx_and_i16(vx_t A, vx_t B) { return _mm256_and_si256(A, B); }
inline vx_t vx_or_i16(vx_t A, vx_t B) { return _mm256_or_si256(A, B); }
inline vx_t vx_xor_i16(vx_t A, vx_t B) { return _mm256_xor_si256(A, B); }
inline vx_t vx_and_i32(vx_t A, vx_t B) { return _mm256_and_si256(A, B); }
inline vx_t vx_or_i32(vx_t A, vx_t B) { return _mm256_or_si256(A, B); }
inline vx_t vx_xor_i32(vx_t A, vx_t B) { return _mm256_xor_si256(A, B); }

inline vx_t vx_min_i8(vx_t A, vx_t B) { return _mm256_min_epi8(A, B); }
inline vx_t vx_max_i8(vx_t A, vx_t B) { return _mm256_max_epi8(A, B); }
inline vx_t vx_min_i16(vx_t A, vx_t B) { return _mm256_min_epi16(A, B); }
inline vx_t vx_max_i16(vx_t A, vx_t B) { return _mm256_max_epi16(A, B); }
inline vx_t vx_min_i32(vx_t A, vx_t B) { return _mm256_min_epi32(A, B); }
inline vx_t vx_max_i32(vx_t A, vx_t B) { return _mm256_max_epi32(A, B); }

inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return _mm256_or_si256(_mm256_and_si256(Mask, IfSet),
                         _mm256_andnot_si256(Mask, IfClear));
}

// Signed lane compares: eq/gt native, the rest by complement or swap.
inline vx_t vx_not256(vx_t A) {
  return _mm256_xor_si256(A, _mm256_set1_epi8(-1));
}

inline vx_t vx_cmp_eq_i8(vx_t A, vx_t B) { return _mm256_cmpeq_epi8(A, B); }
inline vx_t vx_cmp_eq_i16(vx_t A, vx_t B) { return _mm256_cmpeq_epi16(A, B); }
inline vx_t vx_cmp_eq_i32(vx_t A, vx_t B) { return _mm256_cmpeq_epi32(A, B); }
inline vx_t vx_cmp_ne_i8(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_eq_i8(A, B));
}
inline vx_t vx_cmp_ne_i16(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_eq_i16(A, B));
}
inline vx_t vx_cmp_ne_i32(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_eq_i32(A, B));
}
inline vx_t vx_cmp_gt_i8(vx_t A, vx_t B) { return _mm256_cmpgt_epi8(A, B); }
inline vx_t vx_cmp_gt_i16(vx_t A, vx_t B) { return _mm256_cmpgt_epi16(A, B); }
inline vx_t vx_cmp_gt_i32(vx_t A, vx_t B) { return _mm256_cmpgt_epi32(A, B); }
inline vx_t vx_cmp_lt_i8(vx_t A, vx_t B) { return _mm256_cmpgt_epi8(B, A); }
inline vx_t vx_cmp_lt_i16(vx_t A, vx_t B) { return _mm256_cmpgt_epi16(B, A); }
inline vx_t vx_cmp_lt_i32(vx_t A, vx_t B) { return _mm256_cmpgt_epi32(B, A); }
inline vx_t vx_cmp_le_i8(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_gt_i8(A, B));
}
inline vx_t vx_cmp_le_i16(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_gt_i16(A, B));
}
inline vx_t vx_cmp_le_i32(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_gt_i32(A, B));
}
inline vx_t vx_cmp_ge_i8(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_lt_i8(A, B));
}
inline vx_t vx_cmp_ge_i16(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_lt_i16(A, B));
}
inline vx_t vx_cmp_ge_i32(vx_t A, vx_t B) {
  return vx_not256(vx_cmp_lt_i32(A, B));
}

//===----------------------------------------------------------------------===//
// AVX-512 (F + BW): __m512i, V = 64. Shifts stay in registers: an
// immediate shift is valignq (whole 128-bit lanes) plus the per-lane
// vpalignr, the AVX-512 form of the AVX2 vperm2i128 + vpalignr pair; a
// runtime shift is a two-source vpermt2q qword gather plus variable qword
// shifts. vsplice is a single masked blend.
//===----------------------------------------------------------------------===//
#elif defined(SIMDIZE_NATIVE_ISA_AVX512)

#if SIMDIZE_NATIVE_V != 64
#error "AVX-512 lowering requires V = 64"
#endif

#include <immintrin.h>

typedef __m512i vx_t;

inline vx_t vx_ld(const unsigned char *Addr) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(63);
  return _mm512_load_si512(reinterpret_cast<const void *>(P));
}

inline void vx_st(unsigned char *Addr, vx_t V) {
  uintptr_t P =
      reinterpret_cast<uintptr_t>(Addr) & ~static_cast<uintptr_t>(63);
  _mm512_store_si512(reinterpret_cast<void *>(P), V);
}

namespace simdize_x86_detail {

// The shift networks below use the all-ones zero-masked form of valignq
// and vpsrlvq/vpsllvq, which compiles to the plain instruction: GCC 12's
// unmasked _mm512_alignr_epi64 and _mm512_s{r,l}lv_epi64 read an
// undefined pass-through and trip -Wuninitialized under -Wall.

/// Bytes [16Q, 16Q + 64) of A ++ B, Q in [0, 4]: a whole-lane window.
template <int Q> inline __m512i laneWindow(__m512i A, __m512i B) {
  if constexpr (Q == 0)
    return A;
  else if constexpr (Q == 4)
    return B;
  else
    return _mm512_maskz_alignr_epi64(0xFF, B, A, 2 * Q);
}

} // namespace simdize_x86_detail

template <int N> inline vx_t vx_sld(vx_t A, vx_t B) {
  static_assert(N >= 0 && N <= 64, "shift immediate out of range");
  // Lane l of the result is bytes [R, R + 16) of lane l of the windows at
  // Q and Q + 1 side by side, which is what vpalignr computes per lane.
  constexpr int Q = N / 16, R = N % 16;
  __m512i X = simdize_x86_detail::laneWindow<Q>(A, B);
  if constexpr (R == 0)
    return X;
  else
    return _mm512_alignr_epi8(simdize_x86_detail::laneWindow<Q + 1>(A, B),
                              X, R);
}

/// Runtime shift pair in registers, the qword scheme of the SSE2 variant:
/// vpermt2q gathers the qword windows X and Y of A ++ B starting at S / 8
/// and S / 8 + 1, and the result is (X >> 8R) | (Y << (64 - 8R)) per
/// qword, R = S % 8. The indices and counts depend on S alone and hoist
/// out of a loop that shifts by an invariant S.
inline vx_t vx_shiftpair(vx_t A, vx_t B, long S) {
  __m512i XIdx = _mm512_add_epi64(_mm512_set1_epi64(S >> 3),
                                  _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
  __m512i YIdx = _mm512_add_epi64(XIdx, _mm512_set1_epi64(1));
  __m512i X = _mm512_permutex2var_epi64(A, XIdx, B);
  __m512i Y = _mm512_permutex2var_epi64(A, YIdx, B);
  long long R = 8 * (S & 7);
  return _mm512_or_si512(
      _mm512_maskz_srlv_epi64(0xFF, X, _mm512_set1_epi64(R)),
      _mm512_maskz_sllv_epi64(0xFF, Y, _mm512_set1_epi64(64 - R)));
}

inline vx_t vx_splice(vx_t A, vx_t B, long P) {
  __mmask64 M = P >= 64 ? ~static_cast<__mmask64>(0)
                        : ((static_cast<__mmask64>(1) << P) - 1);
  return _mm512_mask_blend_epi8(M, B, A);
}

inline vx_t vx_splat_i8(long V) {
  return _mm512_set1_epi8(static_cast<char>(V));
}
inline vx_t vx_splat_i16(long V) {
  return _mm512_set1_epi16(static_cast<short>(V));
}
inline vx_t vx_splat_i32(long V) {
  return _mm512_set1_epi32(static_cast<int>(V));
}

inline vx_t vx_add_i8(vx_t A, vx_t B) { return _mm512_add_epi8(A, B); }
inline vx_t vx_sub_i8(vx_t A, vx_t B) { return _mm512_sub_epi8(A, B); }
inline vx_t vx_add_i16(vx_t A, vx_t B) { return _mm512_add_epi16(A, B); }
inline vx_t vx_sub_i16(vx_t A, vx_t B) { return _mm512_sub_epi16(A, B); }
inline vx_t vx_add_i32(vx_t A, vx_t B) { return _mm512_add_epi32(A, B); }
inline vx_t vx_sub_i32(vx_t A, vx_t B) { return _mm512_sub_epi32(A, B); }
inline vx_t vx_mul_i16(vx_t A, vx_t B) { return _mm512_mullo_epi16(A, B); }
inline vx_t vx_mul_i32(vx_t A, vx_t B) { return _mm512_mullo_epi32(A, B); }

inline vx_t vx_mul_i8(vx_t A, vx_t B) {
  __m512i Z = _mm512_setzero_si512();
  __m512i Lo = _mm512_mullo_epi16(_mm512_unpacklo_epi8(A, Z),
                                  _mm512_unpacklo_epi8(B, Z));
  __m512i Hi = _mm512_mullo_epi16(_mm512_unpackhi_epi8(A, Z),
                                  _mm512_unpackhi_epi8(B, Z));
  __m512i M = _mm512_set1_epi16(0x00FF);
  return _mm512_packus_epi16(_mm512_and_si512(Lo, M),
                             _mm512_and_si512(Hi, M));
}

inline vx_t vx_and_i8(vx_t A, vx_t B) { return _mm512_and_si512(A, B); }
inline vx_t vx_or_i8(vx_t A, vx_t B) { return _mm512_or_si512(A, B); }
inline vx_t vx_xor_i8(vx_t A, vx_t B) { return _mm512_xor_si512(A, B); }
inline vx_t vx_and_i16(vx_t A, vx_t B) { return _mm512_and_si512(A, B); }
inline vx_t vx_or_i16(vx_t A, vx_t B) { return _mm512_or_si512(A, B); }
inline vx_t vx_xor_i16(vx_t A, vx_t B) { return _mm512_xor_si512(A, B); }
inline vx_t vx_and_i32(vx_t A, vx_t B) { return _mm512_and_si512(A, B); }
inline vx_t vx_or_i32(vx_t A, vx_t B) { return _mm512_or_si512(A, B); }
inline vx_t vx_xor_i32(vx_t A, vx_t B) { return _mm512_xor_si512(A, B); }

inline vx_t vx_min_i8(vx_t A, vx_t B) { return _mm512_min_epi8(A, B); }
inline vx_t vx_max_i8(vx_t A, vx_t B) { return _mm512_max_epi8(A, B); }
inline vx_t vx_min_i16(vx_t A, vx_t B) { return _mm512_min_epi16(A, B); }
inline vx_t vx_max_i16(vx_t A, vx_t B) { return _mm512_max_epi16(A, B); }
inline vx_t vx_min_i32(vx_t A, vx_t B) { return _mm512_min_epi32(A, B); }
inline vx_t vx_max_i32(vx_t A, vx_t B) { return _mm512_max_epi32(A, B); }

/// (Mask & IfSet) | (~Mask & IfClear) in one vpternlogd (truth table 0xCA:
/// bit = a ? b : c for operand order (Mask, IfSet, IfClear)).
inline vx_t vx_sel(vx_t Mask, vx_t IfSet, vx_t IfClear) {
  return _mm512_ternarylogic_epi64(Mask, IfSet, IfClear, 0xCA);
}

// AVX-512 compares produce predicate masks; expand them back to the
// all-ones/zero lane masks the VM models (maskz_set1 of -1).
inline vx_t vx_cmp_eq_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpeq_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_ne_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpneq_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_lt_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmplt_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_le_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmple_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_gt_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpgt_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_ge_i8(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi8(_mm512_cmpge_epi8_mask(A, B), -1);
}
inline vx_t vx_cmp_eq_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpeq_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_ne_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpneq_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_lt_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmplt_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_le_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmple_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_gt_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpgt_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_ge_i16(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi16(_mm512_cmpge_epi16_mask(A, B), -1);
}
inline vx_t vx_cmp_eq_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpeq_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_ne_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpneq_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_lt_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmplt_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_le_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmple_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_gt_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpgt_epi32_mask(A, B), -1);
}
inline vx_t vx_cmp_ge_i32(vx_t A, vx_t B) {
  return _mm512_maskz_set1_epi32(_mm512_cmpge_epi32_mask(A, B), -1);
}

#else
#error "define exactly one SIMDIZE_NATIVE_ISA_{SHIM,SSE2,AVX2,AVX512}"
#endif

#endif // SIMDIZE_NATIVE_SIMDIZE_X86_H
