//===- lower/KernelEmitter.h - vir::VProgram -> vx_* kernel C++ -----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowering a vir::VProgram to compilable C++: the kernel signature
/// convention, register declarations, parameter binding, the Setup /
/// steady-loop / Epilogue skeleton, scalar-instruction rendering,
/// predication/comment wrapping, and the vector-instruction selection onto
/// the vx_* wrapper layer of native/simdize_x86.h. native::NativeEmitter
/// wraps the kernels this renders into translation units; it is the only
/// path from a program to C++.
///
/// Two ABIs are emitted:
///
///   void FnName(unsigned char *<array0>, ..., long <param0>, ..., long ub)
///
/// — one byte pointer per array of the loop in declaration order, one
/// `long` per scalar parameter, then the trip count — and, on request, an
/// `extern "C"` memory-image wrapper
///
///   void FnName_image(unsigned char *Image, const long *Args)
///
/// that bakes in the sim::MemoryLayout base offsets and forwards
/// Args = [<param0>, ..., ub], so a dlopen'd kernel can run directly on a
/// dumped sim::Memory image.
///
/// Section 2.2 of the paper maps the generic operations onto AltiVec. The
/// vx_* names keep that mapping one call per operation; at V = 16 an
/// AltiVec rendering of the same kernel would substitute
///
///   vx_ld / vx_st              vec_ld / vec_st (truncating)
///   vx_sld<N>                  vec_sld(A, B, N)
///   vx_shiftpair(A, B, S)      vec_perm(A, B, vec_lvsl(S, 0))
///   vx_splice / vx_sel         vec_sel with a byte mask
///   vx_splat_*                 vec_splat
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_LOWER_KERNELEMITTER_H
#define SIMDIZE_LOWER_KERNELEMITTER_H

#include "vir/VInst.h"

#include <cstdint>
#include <string>
#include <vector>

namespace simdize {

namespace ir {
class Loop;
} // namespace ir
namespace vir {
class VProgram;
} // namespace vir

namespace lower {

/// Outcome of lowering: the kernel source, or the reason the program has
/// no rendering for the requested target.
struct LowerResult {
  std::string Code;
  std::string Error;
  bool ok() const { return Error.empty(); }
};

/// Renders one program's instructions as C++ statements over vx_t
/// registers.
class KernelEmitter {
public:
  KernelEmitter(const vir::VProgram &P, const ir::Loop &L) : P(P), L(L) {}

  /// Renders the complete kernel function `FnName`.
  std::string emitKernel(const std::string &FnName) const;

  /// The `extern "C"` memory-image adapter for \p FnName. \p ArrayBases
  /// are the byte offsets of \p L's arrays inside the image, in array
  /// declaration order (sim::MemoryLayout::baseOf). The wrapper's second
  /// argument packs [<param0>, ..., ub].
  static std::string emitImageWrapper(const ir::Loop &L,
                                      const std::string &FnName,
                                      const std::vector<int64_t> &ArrayBases);

private:
  /// A scalar operand: "s<reg>" or the immediate.
  std::string operand(const vir::ScalarOperand &Op) const;
  /// Byte address of a stride-one access.
  std::string address(const vir::Address &A) const;
  std::string stmt(const vir::VInst &I) const;
  std::string bareStmt(const vir::VInst &I) const;

  const vir::VProgram &P;
  const ir::Loop &L;
};

} // namespace lower
} // namespace simdize

#endif // SIMDIZE_LOWER_KERNELEMITTER_H
