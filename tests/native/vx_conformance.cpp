//===- tests/native/vx_conformance.cpp - Every shift of simdize_x86.h ----===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A standalone translation unit that runs every shift and splice amount
/// of the wrapper header once. It needs SIMDIZE_NATIVE_V and one
/// SIMDIZE_NATIVE_ISA_* selector, either prepended (NativeWrapperTest
/// builds it that way through native::compileAndLoad and compares the
/// bytes with the VM) or on the command line, e.g.
///
///   c++ -std=c++20 -O2 -Wall -Wextra -Werror -mavx512f -mavx512bw
///       -DSIMDIZE_NATIVE_V=64 -DSIMDIZE_NATIVE_ISA_AVX512
///       -I src/native -c tests/native/vx_conformance.cpp
///
/// Input: the vectors A and B at In and In + V (V-aligned). Output, one
/// V-byte vector per slot from Out (V-aligned):
///
///   slot N               vx_sld<N>(A, B)        N in [0, V]
///   slot V + 1 + S       vx_shiftpair(A, B, S)  S in [0, MaxAmount]
///   slot 2(V + 1) + P    vx_splice(A, B, P)     P in [0, MaxAmount]
///
/// MaxAmount arrives at run time, so the runtime-amount wrappers are
/// compiled as they are in a kernel, not constant-folded.
///
//===----------------------------------------------------------------------===//

#include "simdize_x86.h"

#include <utility>

namespace {

constexpr int V = SIMDIZE_NATIVE_V;

template <int... N>
void allImmediateShifts(vx_t A, vx_t B, unsigned char *Out,
                        std::integer_sequence<int, N...>) {
  (vx_st(Out + N * V, vx_sld<N>(A, B)), ...);
}

} // namespace

extern "C" void simdize_vx_conformance(const unsigned char *In,
                                       unsigned char *Out, long MaxAmount) {
  vx_t A = vx_ld(In);
  vx_t B = vx_ld(In + V);
  allImmediateShifts(A, B, Out, std::make_integer_sequence<int, V + 1>());
  for (long S = 0; S <= MaxAmount; ++S)
    vx_st(Out + (V + 1 + S) * V, vx_shiftpair(A, B, S));
  for (long P = 0; P <= MaxAmount; ++P)
    vx_st(Out + (2 * (V + 1) + P) * V, vx_splice(A, B, P));
}
