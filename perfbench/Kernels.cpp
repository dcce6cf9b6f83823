//===- perfbench/Kernels.cpp - Workload "kernels" -------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generated-code run time in steady state. bench_native's three
/// synthesized loops (i32 1x2 loads, i16 2x4, i8 1x3, trip 2^16) plus one
/// short-trip loop, where prologue, epilogue and staging dominate, each
/// compiled under all five policies with software pipelining at V = 16,
/// 32 and 64. Every cell runs natively on the host's best ISA for its
/// width and on the decoded VM; the same loops written as plain scalar C
/// and built by the host compiler at -O2 -fno-tree-vectorize and at
/// -O3 -march=native are the reference rows.
///
/// Set-up (timed, repeated in two child processes for the median):
/// print -> parse -> runPipeline for every cell, the scalar oracle images,
/// one native batch per width and the two reference modules, all built
/// into a fresh private cache. Every output is then checked bit-for-bit
/// against the oracle before anything is timed.
///
/// Timing runs in rounds; each round visits every cell in a seeded order,
/// so a burst of machine noise lands on all cells alike. Per round, a
/// native cell times one call as runNativeOnMemory pays it (stage, kernel,
/// copy-out), then the kernel alone 16 times in steady state over the
/// staged image. Each sample is the mean of k back-to-back calls, with k
/// chosen so one sample lasts >= ~2 us.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "fuzz/CorpusIO.h"
#include "ir/Loop.h"
#include "native/NativeCompile.h"
#include "native/NativeISA.h"
#include "native/NativeRun.h"
#include "obs/Json.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "policies/ShiftPolicy.h"
#include "sim/Checker.h"
#include "sim/Decoder.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "synth/LoopSynth.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>

#include <dlfcn.h>

#ifndef PERFBENCH_CXX
#define PERFBENCH_CXX "c++"
#endif

using namespace simdize;

namespace perfbench {

namespace {

constexpr unsigned Widths[] = {16, 32, 64};

/// Scalar reference entry: (image, array byte offsets, trip count).
using RefEntry = void (*)(unsigned char *, const long *, long);

struct LoopState {
  std::string Name;
  ir::Loop L;
  int64_t Datums = 0; ///< Trip count x statements.
  std::map<unsigned, std::unique_ptr<sim::ReferenceImage>> Ref;
  /// Reference modules run on the V = 16 image.
  RefEntry O2 = nullptr, O3 = nullptr;
  std::vector<long> Bases16;
};

struct Cell {
  size_t Loop;
  unsigned Width;
  policies::PolicyKind Policy;
  pipeline::CompileResult R;
  size_t KernelIdx = 0;
  std::unique_ptr<sim::DecodedProgram> DP{};
  double Opd = 0;
  int K = 1; ///< Calls per native sample.
  std::vector<double> KernelNs{}, StageNs{}, CopyNs{}, CallNs{}; ///< Per call.
  std::vector<double> VmNs{};
};

struct Setup {
  std::deque<LoopState> Loops;
  std::deque<Cell> Cells;
  std::map<unsigned, std::unique_ptr<native::NativeBatch>> Batches;
  std::vector<double> BatchCompileMs;
  double Seconds = 0;
};

/// bench_native's steady-state loops, unchanged, plus a short-trip loop
/// (trip 100: three vector iterations at V = 64). The loops are fixed, so
/// every run seed measures the same work; the seed draws the images.
std::vector<std::pair<std::string, synth::SynthParams>> kernelLoops() {
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

  synth::SynthParams D = A;
  D.Statements = 2;
  D.LoadsPerStmt = 3;
  D.Ty = ir::ElemType::Int16;
  D.TripCount = 100;
  D.VectorLen = 64;
  D.Seed = 14;
  return {{"loop0-i32", A}, {"loop1-i16", B}, {"loop2-i8", C},
          {"short-i16", D}};
}

/// Plain scalar C++ for \p L over an image: lane arithmetic in the
/// unsigned lane type (wrap-around, as the VM's lanes), min/max and guard
/// comparisons on the signed one. Empty on a shape it does not cover.
std::string scalarSource(const ir::Loop &L, const std::string &Fn) {
  const char *U = "", *S = "";
  switch (L.getElemType()) {
  case ir::ElemType::Int8:
    U = "uint8_t", S = "int8_t";
    break;
  case ir::ElemType::Int16:
    U = "uint16_t", S = "int16_t";
    break;
  case ir::ElemType::Int32:
    U = "uint32_t", S = "int32_t";
    break;
  }
  std::map<const ir::Array *, size_t> Idx;
  for (const auto &A : L.getArrays())
    Idx.emplace(A.get(), Idx.size());

  bool Ok = true;
  std::function<std::string(const ir::Expr &)> Expr =
      [&](const ir::Expr &E) -> std::string {
    switch (E.getKind()) {
    case ir::ExprKind::ArrayRef: {
      const auto &R = ir::cast<ir::ArrayRefExpr>(E);
      return strf("a%zu[i + %lld]", Idx.at(R.getArray()),
                  static_cast<long long>(R.getOffset()));
    }
    case ir::ExprKind::Splat:
      return strf("(%s)(%lldLL)", U,
                  static_cast<long long>(
                      ir::cast<ir::SplatExpr>(E).getValue()));
    case ir::ExprKind::Param:
      Ok = false;
      return "0";
    case ir::ExprKind::BinOp: {
      const auto &B = ir::cast<ir::BinOpExpr>(E);
      std::string X = Expr(B.getLHS()), Y = Expr(B.getRHS());
      const char *Op = nullptr;
      switch (B.getOp()) {
      case ir::BinOpKind::Add: Op = "+"; break;
      case ir::BinOpKind::Sub: Op = "-"; break;
      case ir::BinOpKind::Mul: Op = "*"; break;
      case ir::BinOpKind::And: Op = "&"; break;
      case ir::BinOpKind::Or: Op = "|"; break;
      case ir::BinOpKind::Xor: Op = "^"; break;
      case ir::BinOpKind::Min:
      case ir::BinOpKind::Max:
        return strf("([](%s x, %s y) { return (%s)((%s)x %s (%s)y ? x : y); "
                    "}(%s, %s))",
                    U, U, U, S,
                    B.getOp() == ir::BinOpKind::Min ? "<" : ">", S,
                    X.c_str(), Y.c_str());
      }
      return strf("(%s)((uint32_t)(%s) %s (uint32_t)(%s))", U, X.c_str(), Op,
                  Y.c_str());
    }
    }
    Ok = false;
    return "0";
  };

  std::string Src = strf("extern \"C\" void %s(unsigned char *img, "
                         "const long *base, long ub) {\n",
                         Fn.c_str());
  for (const auto &[A, I] : Idx)
    Src += strf("  %s *a%zu = (%s *)(img + base[%zu]);\n", U, I, U, I);
  Src += "  for (long i = 0; i < ub; ++i) {\n";
  for (const auto &St : L.getStmts()) {
    if (!St->isAssign())
      return "";
    Src += strf("    a%zu[i + %lld] = %s;\n", Idx.at(St->getStoreArray()),
                static_cast<long long>(St->getStoreOffset()),
                Expr(St->getRHS()).c_str());
  }
  Src += "  }\n}\n";
  return Ok ? Src : "";
}

/// Builds \p Source with the host compiler under \p Flags into \p Dir and
/// dlopens it; nullptr with \p Err set on failure.
void *buildShared(const std::string &Source,
                  const std::vector<std::string> &Flags,
                  const std::string &Dir, const std::string &Stem,
                  std::string &Err) {
  std::string Cpp = Dir + "/" + Stem + ".cpp", So = Dir + "/" + Stem + ".so";
  {
    std::FILE *F = std::fopen(Cpp.c_str(), "wb");
    if (!F) {
      Err = "cannot write " + Cpp;
      return nullptr;
    }
    std::fputs(Source.c_str(), F);
    std::fclose(F);
  }
  std::vector<std::string> Argv = {PERFBENCH_CXX, "-std=c++20"};
  Argv.insert(Argv.end(), Flags.begin(), Flags.end());
  for (const char *F : {"-fPIC", "-shared", "-o"})
    Argv.push_back(F);
  Argv.push_back(So);
  Argv.push_back(Cpp);
  std::string Log = Dir + "/" + Stem + ".log";
  if (runProcess(Argv, Log, 120) != 0) {
    Err = "host compiler failed: " + readFile(Log);
    return nullptr;
  }
  void *H = dlopen(std::filesystem::absolute(So).c_str(),
                   RTLD_NOW | RTLD_LOCAL);
  if (!H)
    Err = std::string("dlopen: ") + dlerror();
  return H;
}

/// The timed set-up: everything the measured phase needs, built from
/// text into the native cache \p CacheDir. False with \p Err on failure.
bool buildSetup(const Options &O, const std::string &CacheDir, Setup &S,
                std::string &Err) {
  auto T0 = Clock::now();
  useNativeCache(CacheDir);
  for (auto &[Name, P] : kernelLoops()) {
    // The program sees only text, as a user's loop would arrive.
    std::string Text = fuzz::printParseable(synth::synthesizeLoop(P));
    parser::ParseResult PR = parser::parseLoop(Text, P.VectorLen);
    if (!PR.ok()) {
      Err = Name + ": " + PR.Error;
      return false;
    }
    S.Loops.push_back({Name, std::move(*PR.Loop), 0, {}, nullptr, nullptr,
                       {}});
    LoopState &LS = S.Loops.back();
    LS.Datums = LS.L.getUpperBound() *
                static_cast<int64_t>(LS.L.getStmts().size());
    for (unsigned W : Widths)
      LS.Ref[W] = std::make_unique<sim::ReferenceImage>(LS.L, W, O.Seed);
    for (const auto &A : LS.L.getArrays())
      LS.Bases16.push_back(
          static_cast<long>(LS.Ref[16]->getLayout().baseOf(A.get())));
  }

  for (unsigned W : Widths)
    S.Batches[W] =
        std::make_unique<native::NativeBatch>(native::bestISAForWidth(W));
  for (size_t LI = 0; LI < S.Loops.size(); ++LI) {
    LoopState &LS = S.Loops[LI];
    for (unsigned W : Widths)
      for (policies::PolicyKind P : policies::allPolicies()) {
        pipeline::CompileRequest Req;
        Req.Simd.Policy = P;
        Req.Simd.SoftwarePipelining = true;
        Req.Simd.Tgt = Target(W);
        // In place: the batch and the decoded program borrow the program.
        Cell &C = S.Cells.emplace_back(
            Cell{LI, W, P, pipeline::runPipeline(LS.L, Req)});
        if (!C.R.ok()) {
          Err = strf("%s %s@%u: %s", LS.Name.c_str(), policies::policyName(P),
                     W, C.R.error().c_str());
          return false;
        }
        const vir::VProgram &Prog = *C.R.Simd.Program;
        C.KernelIdx = S.Batches[W]->add(LS.L, Prog, LS.Ref[W]->getLayout());
        C.DP = std::make_unique<sim::DecodedProgram>(Prog,
                                                     LS.Ref[W]->getLayout());
      }
  }
  for (auto &[W, B] : S.Batches) {
    auto B0 = Clock::now();
    if (!B->compile(&Err))
      return false;
    S.BatchCompileMs.push_back(nsBetween(B0, Clock::now()) / 1e6);
  }

  std::string Src = "#include <cstdint>\n";
  for (size_t LI = 0; LI < S.Loops.size(); ++LI) {
    std::string Fn = scalarSource(S.Loops[LI].L, strf("ref%zu", LI));
    if (Fn.empty()) {
      Err = S.Loops[LI].Name + ": no scalar reference for this loop shape";
      return false;
    }
    Src += Fn;
  }
  void *O2 = buildShared(Src, {"-O2", "-fno-tree-vectorize"}, CacheDir,
                         "ref_o2", Err);
  void *O3 = O2 ? buildShared(Src, {"-O3", "-march=native"}, CacheDir,
                              "ref_o3", Err)
                : nullptr;
  if (!O3)
    return false;
  for (size_t LI = 0; LI < S.Loops.size(); ++LI) {
    std::string Fn = strf("ref%zu", LI);
    S.Loops[LI].O2 = reinterpret_cast<RefEntry>(dlsym(O2, Fn.c_str()));
    S.Loops[LI].O3 = reinterpret_cast<RefEntry>(dlsym(O3, Fn.c_str()));
    if (!S.Loops[LI].O2 || !S.Loops[LI].O3) {
      Err = "reference module lacks " + Fn;
      return false;
    }
  }
  S.Seconds = secondsSince(T0);
  return true;
}

/// One reference row: a scalar module run on a loop's V = 16 image.
struct RefRow {
  size_t Loop;
  bool O3;
  int K = 1;
  std::vector<double> Ns{}; ///< Per call.
};

/// Per (loop, width) images shared by the five policies: their outputs
/// are never read by the loop, so re-running a kernel over its own
/// output redoes exactly the same work.
struct Images {
  std::map<std::pair<size_t, unsigned>, std::unique_ptr<native::AlignedImage>>
      Native;
  std::map<std::pair<size_t, unsigned>, sim::Memory> Vm;
  std::map<size_t, std::unique_ptr<native::AlignedImage>> Ref;
};

/// Mean ns per call over \p K back-to-back calls of \p F.
template <typename Fn> double timedNs(Fn &&F, int K) {
  auto T0 = Clock::now();
  for (int I = 0; I < K; ++I)
    F();
  return nsBetween(T0, Clock::now()) / K;
}

/// Calls per sample so one sample of \p F lasts about 2 us.
template <typename Fn> int callsPerSample(Fn &&F) {
  F();
  double Ns = timedNs(F, 4);
  return std::clamp(static_cast<int>(std::ceil(2000.0 / std::max(Ns, 1.0))),
                    1, 4096);
}

/// One round: every cell once, in \p Order, each call group inside one of
/// the benchmark's own spans (recorded only while a tracer is installed).
void runRound(Setup &S, Images &Img, std::vector<RefRow> &Refs,
              const std::vector<size_t> &Order, int NativeSamples,
              bool Record) {
  for (size_t CI : Order) {
    if (CI < S.Cells.size()) {
      Cell &C = S.Cells[CI];
      LoopState &LS = S.Loops[C.Loop];
      const sim::Memory &Init = LS.Ref[C.Width]->getInitial();
      native::AlignedImage &AI = *Img.Native.at({C.Loop, C.Width});
      sim::Memory &Out = Img.Vm.at({C.Loop, C.Width});
      const native::NativeKernel &K = S.Batches[C.Width]->kernel(C.KernelIdx);
      // One call as runNativeOnMemory pays it: stage, run, copy out.
      double Stage, Run, Copy;
      {
        obs::Span Sp("native.stage", "bench");
        Stage = timedNs([&] { AI.stageFrom(Init); }, C.K);
      }
      {
        obs::Span Sp("native.run", "bench");
        Run = timedNs([&] { native::runNative(K, AI); }, C.K);
      }
      {
        obs::Span Sp("native.copyTo", "bench");
        Copy = timedNs([&] { AI.copyTo(Out); }, C.K);
      }
      if (Record) {
        C.StageNs.push_back(Stage);
        C.CopyNs.push_back(Copy);
        C.CallNs.push_back(Stage + Run + Copy);
      }
      // Then the kernel alone in steady state, over the staged image.
      for (int N = 0; N < NativeSamples; ++N) {
        obs::Span Sp("native.run", "bench");
        Run = timedNs([&] { native::runNative(K, AI); }, C.K);
        if (Record)
          C.KernelNs.push_back(Run);
      }
      double Vm;
      {
        obs::Span Sp("sim.runDecoded", "bench");
        Vm = timedNs([&] { sim::runDecoded(*C.DP, Out); }, 1);
      }
      if (Record)
        C.VmNs.push_back(Vm);
    } else {
      RefRow &RR = Refs[CI - S.Cells.size()];
      LoopState &LS = S.Loops[RR.Loop];
      RefEntry F = RR.O3 ? LS.O3 : LS.O2;
      native::AlignedImage &AI = *Img.Ref.at(RR.Loop);
      long Ub = static_cast<long>(LS.L.getUpperBound());
      for (int N = 0; N < NativeSamples; ++N) {
        obs::Span Sp("ref.run", "bench");
        double Ns =
            timedNs([&] { F(AI.data(), LS.Bases16.data(), Ub); }, RR.K);
        if (Record)
          RR.Ns.push_back(Ns);
      }
    }
  }
}

/// Geomean over cells of median(per-call sample) / datums, filtered. The
/// tail quantile is taken per time slice (slicedQuantile).
template <typename Pred, typename Get>
double cellGeomean(const Setup &S, Pred Keep, Get Samples, double Q = 0.5,
                   bool PerElem = true) {
  std::vector<double> V;
  for (const Cell &C : S.Cells)
    if (Keep(C))
      V.push_back((Q == 0.5 ? median(Samples(C))
                            : slicedQuantile(Samples(C), Q)) /
                  (PerElem ? static_cast<double>(S.Loops[C.Loop].Datums)
                           : 1.0));
  return geomean(V);
}

} // namespace

int kernelsSetupChild(const Options &O) {
  Setup S;
  std::string Err;
  if (!buildSetup(O, O.CacheDir, S, Err)) {
    std::fprintf(stderr, "kernels set-up failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("{\"setup_s\":%.9f}\n", S.Seconds);
  return 0;
}

void runKernels(const Options &O, Results &R) {
  Setup S;
  std::string Err;
  if (!buildSetup(O, freshDir(O, "kernels-setup-0"), S, Err)) {
    R.fail("set-up: " + Err);
    return;
  }

  // Correctness before timing: every native cell, every VM cell and both
  // reference modules bit-identical to the scalar oracle.
  Images Img;
  for (size_t LI = 0; LI < S.Loops.size(); ++LI) {
    LoopState &LS = S.Loops[LI];
    for (unsigned W : Widths) {
      Img.Native[{LI, W}] = std::make_unique<native::AlignedImage>(
          LS.Ref[W]->getInitial().size());
      Img.Vm.emplace(std::make_pair(LI, W), LS.Ref[W]->getInitial());
    }
    Img.Ref[LI] = std::make_unique<native::AlignedImage>(
        LS.Ref[16]->getInitial().size());
  }
  auto Check = [&](bool Ok, const std::string &What) {
    R.attempted(1);
    if (!Ok)
      R.fail(What + " differs from the scalar oracle");
  };
  std::vector<double> OpdCells;
  int64_t SteadyShifts = 0;
  opt::OptStats Rewrites;
  for (Cell &C : S.Cells) {
    LoopState &LS = S.Loops[C.Loop];
    const sim::ReferenceImage &Ref = *LS.Ref[C.Width];
    std::string Name = strf("%s %s@%u", LS.Name.c_str(),
                            policies::policyName(C.Policy), C.Width);
    native::AlignedImage &AI = *Img.Native.at({C.Loop, C.Width});
    sim::Memory M = Ref.getInitial();
    AI.stageFrom(M);
    native::runNative(S.Batches[C.Width]->kernel(C.KernelIdx), AI);
    AI.copyTo(M);
    Check(M == Ref.getExpected(), Name + " native");
    M = Ref.getInitial();
    sim::ExecStats ES = sim::runDecoded(*C.DP, M);
    Check(M == Ref.getExpected(), Name + " VM");
    C.Opd = ES.Counts.opd(LS.Datums);
    OpdCells.push_back(C.Opd);
    for (unsigned N : C.R.Simd.StmtSteadyShifts)
      SteadyShifts += N;
    Rewrites.CSERemoved += C.R.Opt.CSERemoved;
    Rewrites.PCReplaced += C.R.Opt.PCReplaced;
    Rewrites.CopiesRemoved += C.R.Opt.CopiesRemoved;
    Rewrites.DCERemoved += C.R.Opt.DCERemoved;
    C.K = callsPerSample(
        [&] { native::runNative(S.Batches[C.Width]->kernel(C.KernelIdx), AI); });
  }
  std::vector<RefRow> Refs;
  for (size_t LI = 0; LI < S.Loops.size(); ++LI)
    for (bool O3 : {false, true}) {
      LoopState &LS = S.Loops[LI];
      const sim::ReferenceImage &Ref = *LS.Ref[16];
      native::AlignedImage &AI = *Img.Ref.at(LI);
      RefEntry F = O3 ? LS.O3 : LS.O2;
      long Ub = static_cast<long>(LS.L.getUpperBound());
      sim::Memory M = Ref.getInitial();
      AI.stageFrom(M);
      F(AI.data(), LS.Bases16.data(), Ub);
      AI.copyTo(M);
      Check(M == Ref.getExpected(),
            LS.Name + (O3 ? " gcc -O3 reference" : " gcc -O2 reference"));
      RefRow RR{LI, O3};
      RR.K = callsPerSample([&] { F(AI.data(), LS.Bases16.data(), Ub); });
      Refs.push_back(std::move(RR));
    }
  if (R.failures())
    return;

  // Timing: rounds over every cell in a seeded order until the time is
  // spent. A traced run spends its first half untraced (the overhead
  // baseline) and its second half under the tracer.
  const int NativeSamples = 16;
  RNG Rng(O.Seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<size_t> Order(S.Cells.size() + Refs.size());
  std::iota(Order.begin(), Order.end(), 0);
  runRound(S, Img, Refs, Order, 1, false); // Warm caches and branch history.

  obs::Tracer Tracer;
  std::vector<double> HalfP50;
  auto RunFor = [&](double Seconds) {
    for (Cell &C : S.Cells)
      C.KernelNs.clear(), C.StageNs.clear(), C.CopyNs.clear(),
          C.CallNs.clear(), C.VmNs.clear();
    for (RefRow &RR : Refs)
      RR.Ns.clear();
    CpuRotation Cpus;
    auto T0 = Clock::now();
    int Rounds = 0;
    while (secondsSince(T0) < Seconds || Rounds < 3) {
      Cpus.next();
      for (size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[Rng.next() % I]);
      runRound(S, Img, Refs, Order, NativeSamples, true);
      ++Rounds;
    }
    int64_t Calls = 0;
    for (const Cell &C : S.Cells)
      Calls += static_cast<int64_t>(
          (C.KernelNs.size() + C.CallNs.size()) * C.K + C.VmNs.size());
    R.attempted(Calls);
    HalfP50.push_back(
        cellGeomean(S, [](const Cell &) { return true; },
                    [](const Cell &C) { return C.KernelNs; }, 0.5, false));
    return Rounds;
  };
  int Rounds = 0;
  std::map<std::string, SpanStats> Spans;
  if (O.Trace) {
    Rounds = RunFor(O.Seconds / 2);
    obs::installTracer(&Tracer);
    RunFor(O.Seconds / 2);
    obs::installTracer(nullptr);
    Spans = analyzeTrace(Tracer);
  } else {
    Rounds = RunFor(O.Seconds);
  }

  auto All = [](const Cell &) { return true; };
  auto Kernel = [](const Cell &C) { return C.KernelNs; };
  size_t Samples = S.Cells.front().KernelNs.size();
  std::map<unsigned, double> KernelPerElem;
  for (unsigned W : Widths)
    KernelPerElem[W] =
        cellGeomean(S, [W](const Cell &C) { return C.Width == W; }, Kernel);
  double CallPerElem =
      cellGeomean(S, All, [](const Cell &C) { return C.CallNs; });
  double VmPerElem = cellGeomean(S, All, [](const Cell &C) { return C.VmNs; });
  double StagePerElem =
      cellGeomean(S, All, [](const Cell &C) { return C.StageNs; });
  double CopyPerElem =
      cellGeomean(S, All, [](const Cell &C) { return C.CopyNs; });
  double P50Us = cellGeomean(S, All, Kernel, 0.5, false) / 1e3;
  double P99Us = cellGeomean(S, All, Kernel, 0.99, false) / 1e3;

  std::map<size_t, std::pair<double, double>> RefPerElem; // loop -> (O2, O3)
  std::vector<double> O2s, O3s;
  for (const RefRow &RR : Refs) {
    double V = median(RR.Ns) / static_cast<double>(S.Loops[RR.Loop].Datums);
    (RR.O3 ? RefPerElem[RR.Loop].second : RefPerElem[RR.Loop].first) = V;
    (RR.O3 ? O3s : O2s).push_back(V);
  }
  std::map<unsigned, double> OverO3;
  for (unsigned W : Widths) {
    std::vector<double> Ratios;
    for (const Cell &C : S.Cells)
      if (C.Width == W)
        Ratios.push_back(median(C.KernelNs) /
                         static_cast<double>(S.Loops[C.Loop].Datums) /
                         RefPerElem[C.Loop].second);
    OverO3[W] = geomean(Ratios);
  }

  // The readable sheet: one row per cell, then the workload's own metrics.
  R.text(strf("  %-10s %-8s %3s %-7s %6s %9s %9s %9s %9s %9s", "loop",
              "policy", "V", "isa", "opd", "kernel", "stage", "copyout",
              "call", "vm"));
  for (const Cell &C : S.Cells) {
    double D = static_cast<double>(S.Loops[C.Loop].Datums);
    R.text(strf("  %-10s %-8s %3u %-7s %6.3f %9.4f %9.4f %9.4f %9.4f %9.3f",
                S.Loops[C.Loop].Name.c_str(), policies::policyName(C.Policy),
                C.Width,
                native::isaName(S.Batches[C.Width]->usedISA()), C.Opd,
                median(C.KernelNs) / D, median(C.StageNs) / D,
                median(C.CopyNs) / D, median(C.CallNs) / D,
                median(C.VmNs) / D));
  }
  for (const auto &[LI, V] : RefPerElem)
    R.text(strf("  %-10s gcc -O2 -fno-tree-vectorize %.4f ns/elem, "
                "-O3 -march=native %.4f ns/elem",
                S.Loops[LI].Name.c_str(), V.first, V.second));
  std::string Counts =
      strf("%zu cells, %zu samples/cell over %d rounds",
           S.Cells.size() / std::size(Widths), Samples, Rounds);
  for (unsigned W : Widths)
    R.note(strf("kernel_ns_per_elem.v%u", W), KernelPerElem[W], "ns",
           strf("geomean of per-cell medians, isa %s; %s",
                native::isaName(S.Batches[W]->usedISA()), Counts.c_str()));
  R.note("call_ns_per_elem", CallPerElem, "ns",
         "stage + kernel + copy-out, geomean over cells");
  R.note("vm_ns_per_elem", VmPerElem, "ns",
         strf("decoded VM, geomean of per-cell medians of %zu",
              S.Cells.front().VmNs.size()));
  R.note("ref.gcc_o2_ns_per_elem", geomean(O2s), "ns",
         "host compiler -O2 -fno-tree-vectorize, geomean over loops "
         "(reported only)");
  R.note("ref.gcc_o3_ns_per_elem", geomean(O3s), "ns",
         "host compiler -O3 -march=native, geomean over loops (reported only)");
  for (unsigned W : Widths)
    R.note(strf("ref.kernel_over_o3.v%u", W), OverO3[W], "ratio",
           "kernel / gcc -O3 per loop, geomean (reported only)");

  // OPD against measured time (reported only): within each loop, across
  // the policies at one width and across the widths under one policy
  // (Spearman, averaged), next to bench_native's pooled per-width Pearson.
  for (size_t LI = 0; LI < S.Loops.size(); ++LI) {
    std::vector<double> AcrossPol, AcrossW;
    for (unsigned W : Widths) {
      std::vector<double> X, Y;
      for (const Cell &C : S.Cells)
        if (C.Loop == LI && C.Width == W)
          X.push_back(C.Opd), Y.push_back(median(C.KernelNs));
      double Rho = spearman(X, Y);
      if (std::isfinite(Rho))
        AcrossPol.push_back(Rho);
    }
    for (policies::PolicyKind P : policies::allPolicies()) {
      std::vector<double> X, Y;
      for (const Cell &C : S.Cells)
        if (C.Loop == LI && C.Policy == P)
          X.push_back(C.Opd),
              Y.push_back(median(C.KernelNs) /
                          static_cast<double>(S.Loops[LI].Datums));
      double Rho = spearman(X, Y);
      if (std::isfinite(Rho))
        AcrossW.push_back(Rho);
    }
    R.text(strf("  spearman(opd, kernel) %-10s across policies %+.3f (%zu "
                "widths with OPD variance), across widths %+.3f",
                S.Loops[LI].Name.c_str(), mean(AcrossPol), AcrossPol.size(),
                mean(AcrossW)));
  }
  for (unsigned W : Widths) {
    std::vector<double> X, YN, YV;
    for (const Cell &C : S.Cells)
      if (C.Width == W) {
        double D = static_cast<double>(S.Loops[C.Loop].Datums);
        X.push_back(C.Opd);
        YN.push_back(median(C.KernelNs) / D);
        YV.push_back(median(C.VmNs) / D);
      }
    R.text(strf("  pearson(opd, time) V=%u pooled: vm %+.3f, native %+.3f",
                W, pearson(X, YV), pearson(X, YN)));
  }

  if (O.Trace) {
    for (unsigned W : Widths)
      R.layer(strf("native.kernel_ns_per_elem.v%u", W), KernelPerElem[W]);
    R.layer("native.call_ns_per_elem", CallPerElem);
    R.layer("native.stage_ns_per_elem", StagePerElem);
    R.layer("native.copyout_ns_per_elem", CopyPerElem);
    R.layer("sim.vm_ns_per_elem", VmPerElem);
    R.layer("sim.opd", geomean(OpdCells));
    R.layer("policies.steady_shifts", static_cast<double>(SteadyShifts));
    R.layer("opt.cse.rewrites", Rewrites.CSERemoved);
    R.layer("opt.pc.rewrites", Rewrites.PCReplaced);
    R.layer("opt.unroll.rewrites", Rewrites.CopiesRemoved);
    R.layer("opt.dce.rewrites", Rewrites.DCERemoved);
    R.layer("ref.gcc_o2_ns_per_elem", geomean(O2s));
    R.layer("ref.gcc_o3_ns_per_elem", geomean(O3s));
    for (unsigned W : Widths)
      R.layer(strf("ref.kernel_over_o3.v%u", W), OverO3[W]);
    native::NativeCompileStats NS = native::nativeCompileStats();
    R.layer("native.compiles", static_cast<double>(NS.Compiles));
    R.layer("native.memory_hits", static_cast<double>(NS.MemoryHits));
    R.layer("native.disk_hits", static_cast<double>(NS.DiskHits));
    R.layer("native.failures", static_cast<double>(NS.Failures));
    R.layer("native.compile_load_ms", mean(S.BatchCompileMs));
    R.layer("obs.trace_overhead", HalfP50[1] / HalfP50[0] - 1);
    noteSpans(R, Spans);
    return;
  }

  // Set-up time: this process's set-up plus two more in fresh child
  // processes, each into its own empty native cache; the median of three.
  std::vector<double> SetupS = {S.Seconds};
  for (int Rep = 1; Rep <= 2; ++Rep) {
    std::optional<std::string> Out = runSelf(
        O, {"--child", "setup", "--workload", "kernels", "--seed",
            std::to_string(O.Seed), "--workdir", O.WorkDir, "--cache",
            freshDir(O, strf("kernels-setup-%d", Rep))});
    std::optional<obs::json::Value> V =
        Out ? obs::json::parse(Out->substr(0, Out->find('\n')))
            : std::nullopt;
    const obs::json::Value *T = V ? V->find("setup_s") : nullptr;
    if (!T || !T->isNumber()) {
      R.fail("set-up child failed");
      return;
    }
    SetupS.push_back(T->Num);
  }
  R.note("setup_s", median(SetupS), "s",
         strf("median of 3 set-ups (%.3f %.3f %.3f); %zu native batches",
              SetupS[0], SetupS[1], SetupS[2], S.Batches.size()));

  R.endToEnd("setup_s", median(SetupS));
  R.endToEnd("latency_us_p50", P50Us);
  R.endToEnd("latency_us_p99", P99Us);
  R.endToEnd("throughput_per_s", 1e9 / CallPerElem);
  R.note("latency_us_p50 (kernels)", P50Us, "us",
         "kernel-only call, geomean over cells of the per-cell median");
  R.note("latency_us_p99 (kernels)", P99Us, "us",
         "kernel-only call, geomean over cells of the per-cell p99 "
         "(median of 10 time slices)");
  R.note("throughput_per_s (kernels)", 1e9 / CallPerElem, "1/s",
         "elements per second through stage + kernel + copy-out");
}

} // namespace perfbench
