//===- native/NativeCompile.h - Compile-to-.so cache + dlopen -------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns generated kernel source into callable code: the system C++
/// compiler builds a shared object, dlopen loads it, and a two-level
/// content-hash cache (in-process handle map over an on-disk .so store)
/// makes repeated kernels — fuzz sweeps, benches, repeated test runs —
/// cost one dlopen instead of one compiler invocation. Keys are the
/// FNV-1a hash of (compiler, flags, wrapper header text, source), so any
/// change to the generator, the simdize_x86.h wrappers or the toolchain
/// misses cleanly.
///
/// The compiler defaults to the one this project was built with
/// (SIMDIZE_NATIVE_CXX, set by CMake); the SIMDIZE_NATIVE_CXX environment
/// variable overrides it, and SIMDIZE_NATIVE_CACHE overrides the on-disk
/// store location (default: <system tmp>/simdize-native-cache).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_NATIVE_NATIVECOMPILE_H
#define SIMDIZE_NATIVE_NATIVECOMPILE_H

#include "native/NativeISA.h"

#include <cstdint>
#include <string>

namespace simdize {
namespace native {

/// A loaded shared object. Handles live for the process lifetime (the
/// cache owns them; kernels stay callable once resolved).
class CompiledModule {
public:
  explicit CompiledModule(void *Handle) : Handle(Handle) {}

  /// dlsym by exact (extern "C") name; nullptr when absent.
  void *symbol(const std::string &Name) const;

private:
  void *Handle;
};

/// Cache effectiveness counters for one process.
struct NativeCompileStats {
  uint64_t Compiles = 0;    ///< Compiler actually invoked.
  uint64_t MemoryHits = 0;  ///< Served from the in-process handle map.
  uint64_t DiskHits = 0;    ///< .so found on disk; dlopen only.
  uint64_t Failures = 0;    ///< Compiler or dlopen failed.
};

/// Compiles \p Source for \p Isa into a cached shared object and loads
/// it. Returns the loaded module, or nullptr with \p Error set (the
/// compiler's stderr when compilation failed).
const CompiledModule *compileAndLoad(const std::string &Source, ISA Isa,
                                     std::string *Error);

/// The bytes of the simdize_x86.h that kernels compile against, read once
/// per process (empty if unreadable).
const std::string &wrapperHeaderText();

/// The content key of a module built from \p Source for \p Isa against
/// wrapper header bytes \p HeaderText. compileAndLoad keys on
/// wrapperHeaderText(), so an edited header never reloads a shared object
/// built against the old one.
uint64_t moduleCacheKey(const std::string &Source, ISA Isa,
                        const std::string &HeaderText);

/// Snapshot of this process's cache counters.
NativeCompileStats nativeCompileStats();

/// The on-disk store directory currently in effect.
std::string nativeCacheDir();

} // namespace native
} // namespace simdize

#endif // SIMDIZE_NATIVE_NATIVECOMPILE_H
