//===- perfbench/main.cpp - The benchmark's command line ------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload {kernels|cold-compile|serve} --seed N --seconds S
///           --trace {0|1} --scratch DIR
///
/// Runs one workload for S seconds of measurement, checks every output,
/// prints a readable sheet and, as its last line, the JSON result. The
/// run keeps all of its files (native cache, compiler temporaries, the
/// server socket) in a private directory under DIR and removes it at the
/// end. Exit code 0 only when every output was correct; 2 on bad usage.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Format.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include <unistd.h>

using namespace perfbench;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {kernels|cold-compile|serve} --seed N "
               "--seconds S --trace {0|1} --scratch DIR\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string Scratch;
  for (int K = 1; K + 1 < Argc; K += 2) {
    std::string Flag = Argv[K], Val = Argv[K + 1];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Val;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 10);
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
    } else if (Flag == "--trace") {
      O.Trace = Val == "1";
    } else if (Flag == "--scratch") {
      Scratch = Val;
    } else if (Flag == "--child") {
      O.Child = Val;
    } else if (Flag == "--workdir") {
      O.WorkDir = Val;
    } else if (Flag == "--cache") {
      O.CacheDir = Val;
    } else {
      return usage(Argv[0]);
    }
    if (End && *End != '\0')
      return usage(Argv[0]);
  }
  if (Argc % 2 != 1 || !(O.Seconds > 0) ||
      (O.Workload != "kernels" && O.Workload != "cold-compile" &&
       O.Workload != "serve"))
    return usage(Argv[0]);

  if (!O.Child.empty()) {
    if (O.WorkDir.empty() || O.CacheDir.empty())
      return usage(Argv[0]);
    if (O.Child == "setup" && O.Workload == "kernels")
      return kernelsSetupChild(O);
    if (O.Child == "reload" && O.Workload == "cold-compile")
      return coldReloadChild(O);
    return usage(Argv[0]);
  }
  if (Scratch.empty())
    return usage(Argv[0]);

  // Everything the run writes stays under its private directory: the
  // native kernel cache, the compiler's temporaries (TMPDIR, inherited by
  // every compiler the native tier spawns) and the server socket. The
  // socket path is kept relative, well inside sun_path's limit.
  std::error_code EC;
  std::filesystem::path Dir =
      std::filesystem::path(Scratch) / simdize::strf("run-%ld", (long)getpid());
  std::filesystem::remove_all(Dir, EC);
  std::filesystem::create_directories(Dir / "tmp", EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 Dir.string().c_str(), EC.message().c_str());
    return 1;
  }
  O.WorkDir = std::filesystem::relative(Dir, EC).string();
  if (EC || O.WorkDir.empty())
    O.WorkDir = Dir.string();
  ::setenv("TMPDIR", std::filesystem::absolute(Dir / "tmp").c_str(), 1);
  useNativeCache(freshDir(O, "native-cache"));

  Results R(O);
  try {
    if (O.Workload == "kernels")
      runKernels(O, R);
    else if (O.Workload == "cold-compile")
      runColdCompile(O, R);
    else
      runServe(O, R);
  } catch (const std::exception &Ex) {
    R.fail(std::string("exception: ") + Ex.what());
  }
  int Rc = R.finish();
  std::filesystem::remove_all(Dir, EC);
  return Rc;
}
