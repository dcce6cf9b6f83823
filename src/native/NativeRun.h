//===- native/NativeRun.h - Running dlopen'd kernels on sim images --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution side of the native tier: emit + compile + dlopen a
/// compiled program (NativeBatch amortizes one compiler invocation over
/// many kernels), then run the resulting entry points on
/// sim::Memory-compatible images. The image is staged through a 64-byte-
/// aligned buffer so in-image offsets keep their value modulo every
/// supported V on the host — the emitted SBase/alignment arithmetic and
/// the truncating loads/stores then agree bit-for-bit with the VM's
/// simulated addresses.
///
/// ISA degradation happens here: a request the host CPU (or the width)
/// cannot take falls back to bestISAForWidth, reported via usedISA() /
/// degraded(), never an error.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_NATIVERUN_H
#define SIMDIZE_NATIVE_NATIVERUN_H

#include "native/NativeEmitter.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace simdize {

namespace sim {
class Memory;
class MemoryLayout;
class ReferenceImage;
} // namespace sim

namespace native {

/// The image ABI every generated module exports per kernel.
using NativeEntry = void (*)(unsigned char *Image, const long *Args);

/// One runnable kernel: the resolved entry point plus its argument pack
/// [<param values>, ub], baked from the loop at preparation time.
struct NativeKernel {
  NativeEntry Entry = nullptr;
  std::vector<long> Args;
  bool ok() const { return Entry != nullptr; }
};

/// The ISA a run request actually gets: \p Requested when it can realize
/// \p VectorLen on this host, otherwise the best runnable fallback.
ISA resolveISAForRun(unsigned VectorLen, ISA Requested);

/// A reusable 64-byte-aligned staging image: allocate once, stage/run
/// many times. One-shot callers can use runNativeOnMemory instead; the
/// benches and bulk differentials hold one of these so repeated runs pay
/// a memcpy, not a fresh (page-faulting) allocation per call.
class AlignedImage {
public:
  explicit AlignedImage(int64_t Size);
  ~AlignedImage();
  AlignedImage(const AlignedImage &) = delete;
  AlignedImage &operator=(const AlignedImage &) = delete;

  unsigned char *data() { return Buf; }
  int64_t size() const { return Size; }

  /// memcpy \p Mem in (and zero the alignment padding); sizes must match.
  void stageFrom(const sim::Memory &Mem);
  /// memcpy the image back out into \p Mem.
  void copyTo(sim::Memory &Mem) const;

private:
  unsigned char *Buf = nullptr;
  int64_t Size = 0;
  size_t Padded = 0;
};

/// Runs \p K in place on \p Img (previously staged).
void runNative(const NativeKernel &K, AlignedImage &Img);

/// Runs \p K over \p Mem: copy into an aligned scratch image, execute,
/// copy back.
void runNativeOnMemory(const NativeKernel &K, sim::Memory &Mem);

/// Collects kernels into one translation unit and compiles them with a
/// single (cached) compiler invocation. Loops, programs, and layouts are
/// borrowed and must outlive compile().
class NativeBatch {
public:
  /// \p Requested is resolved per-width at compile() time; pass
  /// bestISAForWidth's choice by default.
  explicit NativeBatch(ISA Requested) : Requested(Requested) {}

  /// Adds one kernel; returns its index. Every added program must share
  /// one vector width (enforced at compile()).
  size_t add(const ir::Loop &L, const vir::VProgram &P,
             const sim::MemoryLayout &Layout);

  /// Emits, compiles, loads, and resolves every kernel. False on
  /// emission/compile/resolution failure with \p Error set.
  bool compile(std::string *Error);

  const NativeKernel &kernel(size_t Idx) const { return Kernels[Idx]; }
  size_t size() const { return Specs.size(); }

  /// Valid after compile(): the ISA the batch actually targeted, and
  /// whether that differs from the requested one.
  ISA usedISA() const { return Used; }
  bool degraded() const { return Degraded; }

private:
  ISA Requested;
  ISA Used = ISA::Shim;
  bool Degraded = false;
  unsigned VectorLen = 0;
  std::vector<KernelSpec> Specs;
  std::vector<std::vector<long>> ArgPacks;
  std::vector<NativeKernel> Kernels;
};

/// One-kernel convenience: emit + compile (content-hash cached) +
/// resolve. \p UsedOut, when given, reports the ISA after degradation.
NativeKernel prepareNativeKernel(const ir::Loop &L, const vir::VProgram &P,
                                 const sim::MemoryLayout &Layout,
                                 ISA Requested, std::string *Error,
                                 ISA *UsedOut = nullptr);

/// The native differential: runs \p P natively on \p Ref's initial image
/// and compares the full resulting image against the scalar oracle's
/// expected bytes. nullopt on bit-identity; otherwise a diagnostic
/// (first differing byte, the compile failure, or an image built at
/// another width or from another loop than \p L). \p Requested defaults
/// to the best host ISA for the program's width.
std::optional<std::string>
diffNativeAgainstOracle(const ir::Loop &L, const vir::VProgram &P,
                        const sim::ReferenceImage &Ref,
                        std::optional<ISA> Requested = std::nullopt);

} // namespace native
} // namespace simdize

#endif // SIMDIZE_NATIVE_NATIVERUN_H
