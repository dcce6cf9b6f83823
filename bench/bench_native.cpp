//===- bench/bench_native.cpp - Native vs decoded-VM wall clock -----------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The perf claim of the native execution tier, measured: steady-state
/// synthesized kernels are compiled under every shift policy at V = 16,
/// 32, and 64, then each program is timed three ways over the same
/// memory image — the scalar interpreter, the decoded VM, and the
/// dlopen'd native kernel (best host ISA per width). The native kernel is
/// timed twice: per call with the image staged in (what a caller of
/// runNativeOnMemory pays), and kernel-only on an image staged once.
/// Reports a ns/element table, the wall-clock-vs-OPD correlation per tier
/// and width (the paper's cost model is operations per datum; this checks
/// how far that proxy tracks real time), and writes everything as
/// BENCH_native.json (--out=FILE overrides).
///
/// Gates, each failing the run with exit 1:
///   - the geometric-mean native-vs-decoded-VM speedup across the matrix
///     (staging included) must be >= 5x;
///   - on a host with AVX-512 BW, every (loop, policy) cell's kernel-only
///     time at V = 64 must not exceed its time at V = 32 (half the OPD
///     must not cost more).
/// Every native image is checked bit-identical against the scalar oracle
/// before it is timed — a fast-but-wrong kernel cannot pass.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "native/NativeRun.h"
#include "obs/Json.h"
#include "pipeline/Pipeline.h"
#include "policies/Policies.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "sim/ScalarInterp.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace simdize;

namespace {

constexpr unsigned Widths[] = {16, 32, 64};

/// Steady-state workloads: trip counts far past the 3B guard at V = 64,
/// so prologue/epilogue cost is noise and the timed loop is the body.
std::vector<synth::SynthParams> benchLoops() {
  synth::SynthParams A;
  A.Statements = 1;
  A.LoadsPerStmt = 2;
  A.TripCount = 1 << 16;
  A.Ty = ir::ElemType::Int32;
  A.Seed = 11;

  synth::SynthParams B = A;
  B.Statements = 2;
  B.LoadsPerStmt = 4;
  B.Ty = ir::ElemType::Int16;
  B.Seed = 12;

  synth::SynthParams C = A;
  C.LoadsPerStmt = 3;
  C.Ty = ir::ElemType::Int8;
  C.Seed = 13;
  return {A, B, C};
}

/// Median-free repetition timer: runs \p Fn until at least ~20ms of work
/// is accumulated and returns mean ns per call.
template <typename Fn> double timeNsPerCall(Fn &&F) {
  using Clock = std::chrono::steady_clock;
  F(); // warm caches, fault in the image
  int64_t Reps = 1;
  for (;;) {
    auto T0 = Clock::now();
    for (int64_t I = 0; I < Reps; ++I)
      F();
    double Ns = std::chrono::duration<double, std::nano>(Clock::now() - T0)
                    .count();
    if (Ns >= 2e7 || Reps >= (1 << 22))
      return Ns / static_cast<double>(Reps);
    Reps *= 4;
  }
}

/// Pearson correlation; NaN when either side is constant (no variance to
/// correlate) or fewer than two samples exist.
double pearson(const std::vector<double> &X, const std::vector<double> &Y) {
  if (X.size() != Y.size() || X.size() < 2)
    return std::nan("");
  double N = static_cast<double>(X.size());
  double SX = 0, SY = 0;
  for (size_t I = 0; I < X.size(); ++I) {
    SX += X[I];
    SY += Y[I];
  }
  double MX = SX / N, MY = SY / N;
  double Cov = 0, VX = 0, VY = 0;
  for (size_t I = 0; I < X.size(); ++I) {
    Cov += (X[I] - MX) * (Y[I] - MY);
    VX += (X[I] - MX) * (X[I] - MX);
    VY += (Y[I] - MY) * (Y[I] - MY);
  }
  if (VX <= 0 || VY <= 0)
    return std::nan("");
  return Cov / std::sqrt(VX * VY);
}

struct Row {
  std::string Loop;
  std::string Policy;
  unsigned Width = 0;
  const char *Isa = "";
  double Opd = 0;
  double ScalarNs = 0; ///< All Ns fields are ns per element.
  double VmNs = 0;
  double NativeNs = 0; ///< Staging + kernel.
  double KernelNs = 0; ///< Kernel only, on an already staged image.
  double Speedup = 0;  ///< VmNs / NativeNs.
};

} // namespace

int main(int Argc, char **Argv) {
  std::string OutPath = "BENCH_native.json";
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    if (Arg.rfind("--out=", 0) == 0 && Arg.size() > 6) {
      OutPath = Arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: %s [--out=FILE]\n", Argv[0]);
      return 2;
    }
  }

  const policies::PolicyKind Policies[] = {
      policies::PolicyKind::Zero, policies::PolicyKind::Eager,
      policies::PolicyKind::Lazy, policies::PolicyKind::Dominant,
      policies::PolicyKind::Optimal};

  // Stable stores for everything the timed closures borrow.
  std::deque<ir::Loop> Loops;
  std::deque<sim::OracleCache> Oracles;
  std::deque<pipeline::CompileResult> Programs;

  struct Pending {
    size_t LoopIdx;
    std::string LoopName;
    std::string PolicyName;
    const vir::VProgram *P;
    const sim::ReferenceImage *Ref;
    size_t KernelIdx; ///< Index into its width's NativeBatch.
  };
  std::map<unsigned, std::vector<Pending>> ByWidth;
  std::map<unsigned, native::NativeBatch> Batches;
  for (unsigned W : Widths)
    Batches.emplace(W, native::NativeBatch(native::bestISAForWidth(W)));

  std::vector<synth::SynthParams> Params = benchLoops();
  for (size_t LI = 0; LI < Params.size(); ++LI) {
    Loops.push_back(synth::synthesizeLoop(Params[LI]));
    Oracles.emplace_back(Loops.back(), 7);
    const ir::Loop &L = Loops.back();
    std::string LoopName =
        strf("loop%zu-%s", LI, ir::elemTypeName(Params[LI].Ty));
    for (unsigned W : Widths) {
      const sim::ReferenceImage &Ref = Oracles.back().get(W);
      for (policies::PolicyKind Policy : Policies) {
        pipeline::CompileRequest Req;
        Req.Simd.Policy = Policy;
        Req.Simd.SoftwarePipelining = true;
        Req.Simd.Tgt = Target(W);
        pipeline::CompileResult R = pipeline::runPipeline(L, Req);
        if (!R.Simd.ok()) {
          std::fprintf(stderr, "error: %s %s@%u failed to compile: %s\n",
                       LoopName.c_str(), policies::policyName(Policy), W,
                       R.error().c_str());
          return 1;
        }
        Programs.push_back(std::move(R));
        const vir::VProgram &P = *Programs.back().Simd.Program;
        size_t Idx = Batches.at(W).add(L, P, Ref.getLayout());
        ByWidth[W].push_back({LI, LoopName, policies::policyName(Policy), &P,
                              &Ref, Idx});
      }
    }
  }

  for (auto &[W, Batch] : Batches) {
    std::string Err;
    if (!Batch.compile(&Err)) {
      std::fprintf(stderr, "error: native batch @%u failed: %s\n", W,
                   Err.c_str());
      return 1;
    }
  }

  std::vector<Row> Rows;
  // Scalar time depends only on (loop, layout width); memoized across the
  // five policies sharing each cell.
  std::map<std::pair<size_t, unsigned>, double> ScalarNsCache;
  for (auto &[W, Pendings] : ByWidth) {
    native::NativeBatch &Batch = Batches.at(W);
    for (const Pending &Pn : Pendings) {
      const ir::Loop &L = Loops[Pn.LoopIdx];
      const sim::ReferenceImage &Ref = *Pn.Ref;
      double Datums = static_cast<double>(L.getUpperBound()) *
                      static_cast<double>(L.getStmts().size());

      // Correctness before speed: VM check (also yields the OPD), then
      // one native run compared bit-for-bit against the oracle.
      sim::CheckResult C = sim::checkSimdization(L, *Pn.P, Ref);
      if (!C.Ok) {
        std::fprintf(stderr, "error: %s %s@%u VM check failed: %s\n",
                     Pn.LoopName.c_str(), Pn.PolicyName.c_str(), W,
                     C.Message.c_str());
        return 1;
      }
      const native::NativeKernel &K = Batch.kernel(Pn.KernelIdx);
      {
        sim::Memory Img = Ref.getInitial();
        native::runNativeOnMemory(K, Img);
        if (!(Img == Ref.getExpected())) {
          std::fprintf(stderr,
                       "error: %s %s@%u native image differs from oracle\n",
                       Pn.LoopName.c_str(), Pn.PolicyName.c_str(), W);
          return 1;
        }
      }

      // Every tier re-stages the initial image per call into persistent
      // storage (assignment reuses capacity; the aligned image is
      // allocated once), so no tier pays per-iteration allocation or the
      // page faults of a fresh mapping — the loop body is what's timed.
      sim::Memory M = Ref.getInitial();
      auto ScalarKey = std::make_pair(Pn.LoopIdx, W);
      if (!ScalarNsCache.count(ScalarKey))
        ScalarNsCache[ScalarKey] = timeNsPerCall([&] {
          M = Ref.getInitial();
          sim::runScalarLoop(L, Ref.getLayout(), M);
        }) / Datums;

      sim::DecodedProgram DP(*Pn.P, Ref.getLayout());
      double VmNs = timeNsPerCall([&] {
                      M = Ref.getInitial();
                      sim::runDecoded(DP, M);
                    }) /
                    Datums;
      native::AlignedImage Img(Ref.getInitial().size());
      double NativeNs = timeNsPerCall([&] {
                          Img.stageFrom(Ref.getInitial());
                          native::runNative(K, Img);
                        }) /
                        Datums;
      // Rerunning on its own output leaves the kernel's work unchanged
      // (wrap-around arithmetic, same addresses), so one staging serves.
      Img.stageFrom(Ref.getInitial());
      double KernelNs =
          timeNsPerCall([&] { native::runNative(K, Img); }) / Datums;

      Row R;
      R.Loop = Pn.LoopName;
      R.Policy = Pn.PolicyName;
      R.Width = W;
      R.Isa = native::isaName(Batch.usedISA());
      R.Opd = C.Stats.Counts.opd(static_cast<int64_t>(Datums));
      R.ScalarNs = ScalarNsCache[ScalarKey];
      R.VmNs = VmNs;
      R.NativeNs = NativeNs;
      R.KernelNs = KernelNs;
      R.Speedup = VmNs / NativeNs;
      Rows.push_back(std::move(R));
    }
  }

  std::printf("%-12s %-9s %5s %7s %7s  %10s %10s %10s %10s %8s\n", "loop",
              "policy", "width", "isa", "opd", "scalar", "vm", "native",
              "kernel", "native-x");
  double LogSum = 0;
  for (const Row &R : Rows) {
    std::printf(
        "%-12s %-9s %5u %7s %7.3f  %8.2fns %8.2fns %8.2fns %8.3fns %7.1fx\n",
        R.Loop.c_str(), R.Policy.c_str(), R.Width, R.Isa, R.Opd, R.ScalarNs,
        R.VmNs, R.NativeNs, R.KernelNs, R.Speedup);
    LogSum += std::log(R.Speedup);
  }
  double Geomean = std::exp(LogSum / static_cast<double>(Rows.size()));

  // OPD-vs-wall-clock: per width, how well the simulated cost model ranks
  // real time on each tier.
  struct Corr {
    double Vm, Native;
  };
  std::map<unsigned, Corr> Corrs;
  for (unsigned W : Widths) {
    std::vector<double> Opd, Vm, Nat;
    for (const Row &R : Rows)
      if (R.Width == W) {
        Opd.push_back(R.Opd);
        Vm.push_back(R.VmNs);
        Nat.push_back(R.NativeNs);
      }
    Corrs[W] = {pearson(Opd, Vm), pearson(Opd, Nat)};
    std::printf("width %2u: corr(opd, vm) = %+.3f, corr(opd, native) = "
                "%+.3f\n",
                W, Corrs[W].Vm, Corrs[W].Native);
  }
  std::printf("geomean native-vs-VM speedup: %.1fx (gate: >= 5x)\n", Geomean);

  // The V = 64 gate: per (loop, policy) cell, kernel-only V = 32 time over
  // V = 64 time; the worst cell must be >= 1. Only meaningful when V = 64
  // runs on AVX-512 rather than the shim.
  bool WideGated = native::hostSupportsISA(native::ISA::AVX512);
  double WorstWide = INFINITY;
  if (WideGated) {
    std::map<std::pair<std::string, std::string>, double> Kernel32;
    for (const Row &R : Rows)
      if (R.Width == 32)
        Kernel32[{R.Loop, R.Policy}] = R.KernelNs;
    for (const Row &R : Rows)
      if (R.Width == 64) {
        double Ratio = Kernel32.at({R.Loop, R.Policy}) / R.KernelNs;
        if (Ratio < 1.0)
          std::fprintf(stderr,
                       "%s %s: kernel-only V=64 %.3fns > V=32 %.3fns\n",
                       R.Loop.c_str(), R.Policy.c_str(), R.KernelNs,
                       Kernel32.at({R.Loop, R.Policy}));
        WorstWide = std::min(WorstWide, Ratio);
      }
    std::printf("worst-cell kernel-only V=32 / V=64 time: %.2fx "
                "(gate: >= 1x)\n",
                WorstWide);
  } else {
    std::printf("V=64 vs V=32 kernel gate skipped: host lacks AVX-512 BW\n");
  }

  bench::BenchReport Report("native");
  Report.gate("geomean_speedup_native_vs_vm", Geomean, 5.0, Geomean >= 5.0);
  if (WideGated)
    Report.gate("min_kernel_speedup_v64_over_v32", WorstWide, 1.0,
                WorstWide >= 1.0);
  for (const Row &R : Rows) {
    std::string RowJson;
    obs::json::Writer Wr(RowJson);
    Wr.beginObject()
        .field("loop", R.Loop)
        .field("policy", R.Policy)
        .field("width", R.Width)
        .field("isa", R.Isa)
        .field("opd", R.Opd)
        .field("scalar_ns_per_elem", R.ScalarNs)
        .field("vm_ns_per_elem", R.VmNs)
        .field("native_ns_per_elem", R.NativeNs)
        .field("kernel_ns_per_elem", R.KernelNs)
        .field("speedup_native_vs_vm", R.Speedup)
        .endObject();
    Report.row(std::move(RowJson));
  }
  {
    std::string Corr;
    obs::json::Writer Wr(Corr);
    Wr.beginArray();
    for (unsigned W : Widths)
      Wr.beginObject()
          .field("width", W)
          .field("opd_vs_vm_ns", Corrs[W].Vm)
          .field("opd_vs_native_ns", Corrs[W].Native)
          .endObject();
    Wr.endArray();
    Report.extra("correlation", std::move(Corr));
  }
  if (!Report.write(OutPath))
    return 1;
  std::printf("wrote %s\n", OutPath.c_str());

  if (Geomean < 5.0) {
    std::fprintf(stderr,
                 "FAIL: geomean native speedup %.2fx is below the 5x gate\n",
                 Geomean);
    return 1;
  }
  if (WideGated && WorstWide < 1.0) {
    std::fprintf(stderr,
                 "FAIL: a V=64 kernel is slower than its V=32 cell "
                 "(worst ratio %.2fx)\n",
                 WorstWide);
    return 1;
  }
  return 0;
}
