//===- native/NativeEmitter.cpp -------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "native/NativeEmitter.h"

#include "ir/Loop.h"
#include "support/Format.h"
#include "vir/VProgram.h"

using namespace simdize;
using namespace simdize::native;

lower::LowerResult
native::emitNativeModule(const std::vector<KernelSpec> &Kernels,
                         unsigned VectorLen, ISA Isa) {
  lower::LowerResult Result;
  if (!isaSupportsWidth(Isa, VectorLen)) {
    Result.Error = strf(
        "native lowering: ISA %s cannot realize V = %u (sse2 pins 16, avx2 "
        "pins 32, avx512 pins 64; the shim takes any valid width)",
        isaName(Isa), VectorLen);
    return Result;
  }
  for (const KernelSpec &K : Kernels) {
    if (K.Program->getVectorLen() != VectorLen) {
      Result.Error = strf(
          "native lowering: kernel '%s' was simdized for V = %u but the "
          "module targets V = %u — recompile for a matching Target",
          K.Name.c_str(), K.Program->getVectorLen(), VectorLen);
      return Result;
    }
    if (!K.ArrayBases.empty() &&
        K.ArrayBases.size() != K.Loop->getArrays().size()) {
      Result.Error = strf(
          "native lowering: kernel '%s' supplies %zu array bases for %zu "
          "arrays",
          K.Name.c_str(), K.ArrayBases.size(), K.Loop->getArrays().size());
      return Result;
    }
  }

  std::string Out;
  Out += "// Generated by simdize::native::emitNativeModule.\n";
  Out += strf("// ISA: %s, V = %u. Requires simdize_x86.h.\n\n", isaName(Isa),
              VectorLen);
  Out += strf("#define SIMDIZE_NATIVE_V %u\n", VectorLen);
  Out += strf("#define %s 1\n", isaDefine(Isa));
  Out += "#include \"simdize_x86.h\"\n";
  for (const KernelSpec &K : Kernels) {
    Out += "\n";
    Out += lower::KernelEmitter(*K.Program, *K.Loop).emitKernel(K.Name);
    if (!K.ArrayBases.empty())
      Out += lower::KernelEmitter::emitImageWrapper(*K.Loop, K.Name,
                                                    K.ArrayBases);
  }
  Result.Code = std::move(Out);
  return Result;
}

lower::LowerResult native::emitNativeKernel(const vir::VProgram &P,
                                            const ir::Loop &L,
                                            const std::string &FnName,
                                            ISA Isa) {
  KernelSpec K;
  K.Program = &P;
  K.Loop = &L;
  K.Name = FnName;
  return emitNativeModule({K}, P.getVectorLen(), Isa);
}
