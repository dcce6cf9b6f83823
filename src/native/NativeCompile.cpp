//===- native/NativeCompile.cpp -------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "native/NativeCompile.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>

#include <dlfcn.h>
#include <unistd.h>

using namespace simdize;
using namespace simdize::native;

#ifndef SIMDIZE_NATIVE_CXX
#define SIMDIZE_NATIVE_CXX "c++"
#endif
#ifndef SIMDIZE_NATIVE_INCLUDE_DIR
#error "SIMDIZE_NATIVE_INCLUDE_DIR must point at the simdize_x86.h directory"
#endif

namespace {

struct CacheState {
  std::mutex Mu;
  std::map<uint64_t, std::unique_ptr<CompiledModule>> Loaded;
  NativeCompileStats Stats;
};

CacheState &cache() {
  static CacheState S;
  return S;
}

std::string compilerPath() {
  if (const char *Env = std::getenv("SIMDIZE_NATIVE_CXX"))
    return Env;
  return SIMDIZE_NATIVE_CXX;
}

constexpr uint64_t FnvBasis = 14695981039346656037ULL;

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::string compileFlags(ISA Isa) {
  std::string Flags = "-std=c++20 -O2 -fPIC -shared";
  for (const std::string &F : isaCompileFlags(Isa))
    Flags += " " + F;
  return Flags;
}

/// The module key given the header's own FNV-1a hash, so compileAndLoad
/// hashes the header once per process rather than once per call.
uint64_t moduleKey(const std::string &Compiler, const std::string &Flags,
                   uint64_t HeaderHash, const std::string &Source) {
  std::string Prefix =
      strf("%s\x1f%s\x1f%016llx\x1f", Compiler.c_str(), Flags.c_str(),
           static_cast<unsigned long long>(HeaderHash));
  return fnv1a(fnv1a(FnvBasis, Prefix), Source);
}

bool writeFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  Out.write(Contents.data(), static_cast<std::streamsize>(Contents.size()));
  return Out.good();
}

} // namespace

void *CompiledModule::symbol(const std::string &Name) const {
  return dlsym(Handle, Name.c_str());
}

std::string native::nativeCacheDir() {
  if (const char *Env = std::getenv("SIMDIZE_NATIVE_CACHE"))
    return Env;
  std::error_code EC;
  std::filesystem::path Tmp = std::filesystem::temp_directory_path(EC);
  if (EC)
    Tmp = "/tmp";
  return (Tmp / "simdize-native-cache").string();
}

const std::string &native::wrapperHeaderText() {
  static const std::string Text =
      readFile(std::string(SIMDIZE_NATIVE_INCLUDE_DIR) + "/simdize_x86.h");
  return Text;
}

uint64_t native::moduleCacheKey(const std::string &Source, ISA Isa,
                                const std::string &HeaderText) {
  return moduleKey(compilerPath(), compileFlags(Isa),
                   fnv1a(FnvBasis, HeaderText), Source);
}

const CompiledModule *native::compileAndLoad(const std::string &Source,
                                             ISA Isa, std::string *Error) {
  static const uint64_t HeaderHash = fnv1a(FnvBasis, wrapperHeaderText());
  std::string Compiler = compilerPath();
  std::string Flags = compileFlags(Isa);
  uint64_t Key = moduleKey(Compiler, Flags, HeaderHash, Source);

  CacheState &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  if (auto It = C.Loaded.find(Key); It != C.Loaded.end()) {
    ++C.Stats.MemoryHits;
    return It->second.get();
  }

  std::string Dir = nativeCacheDir();
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Stem = strf("%s/nk_%016llx", Dir.c_str(),
                          static_cast<unsigned long long>(Key));
  std::string So = Stem + ".so";

  if (!std::filesystem::exists(So)) {
    // Build into process-unique temporaries, then publish the .so with an
    // atomic rename so concurrent fuzz shards never load a half-written
    // object.
    std::string Tag = strf(".%ld", static_cast<long>(getpid()));
    std::string Cpp = Stem + Tag + ".cpp";
    std::string SoTmp = So + Tag;
    std::string Log = Stem + Tag + ".log";
    if (!writeFile(Cpp, Source)) {
      ++C.Stats.Failures;
      if (Error)
        *Error = "cannot write kernel source under " + Dir;
      return nullptr;
    }
    std::string Cmd =
        strf("\"%s\" %s -I \"%s\" -o \"%s\" \"%s\" 2> \"%s\"",
             Compiler.c_str(), Flags.c_str(), SIMDIZE_NATIVE_INCLUDE_DIR,
             SoTmp.c_str(), Cpp.c_str(), Log.c_str());
    int Rc = std::system(Cmd.c_str());
    if (Rc != 0) {
      ++C.Stats.Failures;
      if (Error)
        *Error = strf("'%s' failed (exit %d): %s", Compiler.c_str(), Rc,
                      readFile(Log).c_str());
      std::filesystem::remove(Cpp, EC);
      std::filesystem::remove(SoTmp, EC);
      std::filesystem::remove(Log, EC);
      return nullptr;
    }
    std::filesystem::rename(SoTmp, So, EC);
    if (EC) {
      ++C.Stats.Failures;
      if (Error)
        *Error = "cannot publish " + So + ": " + EC.message();
      return nullptr;
    }
    std::filesystem::remove(Cpp, EC);
    std::filesystem::remove(Log, EC);
    ++C.Stats.Compiles;
  } else {
    ++C.Stats.DiskHits;
  }

  void *Handle = dlopen(So.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    ++C.Stats.Failures;
    if (Error) {
      const char *Why = dlerror();
      *Error = "dlopen(" + So + ") failed: " + (Why ? Why : "unknown");
    }
    // A stale or truncated cache entry must not wedge the tier; drop it
    // so the next request recompiles.
    std::filesystem::remove(So, EC);
    return nullptr;
  }
  auto Module = std::make_unique<CompiledModule>(Handle);
  const CompiledModule *Out = Module.get();
  C.Loaded.emplace(Key, std::move(Module));
  return Out;
}

NativeCompileStats native::nativeCompileStats() {
  CacheState &C = cache();
  std::lock_guard<std::mutex> Lock(C.Mu);
  return C.Stats;
}
