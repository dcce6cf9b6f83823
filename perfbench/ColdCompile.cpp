//===- perfbench/ColdCompile.cpp - Workload "cold-compile" ----------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's own cost on loops it has never seen. A seeded draw of
/// distinct synthesized loops (1-4 statements, 1-6 loads, i8/i16/i32,
/// random bias and reuse, some with runtime alignment, guards or
/// reductions) is printed to text. Each loop is parsed and compiled under
/// one fixed config set (5 policies x SP on/off x opt std/pc x V 16/32/64)
/// and every program is checked on the VM against the scalar oracle.
/// Trip counts are small, so execution and staging are negligible.
///
/// The draw is stratified: every block of 72 loops holds each (statements,
/// loads, type) combination once, in a seeded order, so two seeds give the
/// same mix and differ only in the loops themselves.
///
/// A fixed slice of the draw also takes the native cold path into a fresh
/// private cache (emit -> system compiler -> dlopen -> run, diffed against
/// the oracle); a second, sequential child process then reloads the slice
/// from the populated disk cache.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "codegen/Simdizer.h"
#include "fuzz/CorpusIO.h"
#include "native/NativeCompile.h"
#include "native/NativeEmitter.h"
#include "native/NativeRun.h"
#include "obs/Json.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "policies/ShiftPolicy.h"
#include "sim/Checker.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "synth/LoopSynth.h"

#include <algorithm>
#include <memory>
#include <set>

using namespace simdize;

namespace perfbench {

namespace {

constexpr unsigned Widths[] = {16, 32, 64};
constexpr size_t BlockSize = 72; ///< 4 statements x 6 loads x 3 types.
/// About two 20 s runs' worth of loops on a fast host.
constexpr size_t PoolLoops = 48 * BlockSize;
constexpr size_t NativeSlice = 6;
constexpr size_t WarmupLoops = 4;
/// The warm-up loops come from a draw of their own under this fixed seed,
/// so that set-up does the same work under every seed.
constexpr uint64_t WarmupSeed = 0;
/// Loops are drawn (and parsed) for the widest V; every narrower width
/// compiles them with alignments taken mod V.
constexpr unsigned DrawWidth = 64;

/// The seeded, stratified draw of \p N distinct loop texts; a prefix of a
/// longer draw with the same seed.
std::vector<std::string> drawLoops(uint64_t Seed, size_t N) {
  const ir::ElemType Types[] = {ir::ElemType::Int8, ir::ElemType::Int16,
                                ir::ElemType::Int32};
  RNG Rng(Seed * 0x2545f4914f6cdd1dULL + 17);
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  std::vector<size_t> Combo(BlockSize), Feature(BlockSize);
  for (size_t I = 0; I < N; ++I) {
    size_t Slot = I % BlockSize;
    if (Slot == 0) {
      for (size_t K = 0; K < BlockSize; ++K)
        Combo[K] = Feature[K] = K;
      for (size_t K = BlockSize; K > 1; --K) {
        std::swap(Combo[K - 1], Combo[Rng.next() % K]);
        std::swap(Feature[K - 1], Feature[Rng.next() % K]);
      }
    }
    synth::SynthParams P;
    P.Statements = 1 + Combo[Slot] % 4;
    P.LoadsPerStmt = 1 + (Combo[Slot] / 4) % 6;
    P.Ty = Types[Combo[Slot] / 24];
    // Per block: 12 runtime-alignment loops, 12 with guards, 12 with
    // reductions, the rest plain.
    size_t F = Feature[Slot] / 12;
    P.AlignKnown = F != 0;
    P.GuardProb = F == 1 ? 0.5 : 0.0;
    P.ReduceProb = F == 2 ? 0.5 : 0.0;
    P.VectorLen = DrawWidth;
    for (;;) {
      P.Bias = Rng.uniformReal();
      P.Reuse = 0.6 * Rng.uniformReal();
      P.TripCount = Rng.uniformInt(200, 400);
      P.Seed = Rng.next();
      std::string Text = fuzz::printParseable(synth::synthesizeLoop(P));
      if (Seen.insert(Text).second) {
        Out.push_back(std::move(Text));
        break;
      }
    }
  }
  return Out;
}

std::vector<pipeline::CompileRequest> configSet() {
  std::vector<pipeline::CompileRequest> Out;
  for (unsigned W : Widths)
    for (policies::PolicyKind P : policies::allPolicies())
      for (bool SP : {false, true})
        for (pipeline::OptLevel Opt :
             {pipeline::OptLevel::Std, pipeline::OptLevel::PC}) {
          pipeline::CompileRequest Req;
          Req.Simd.Policy = P;
          Req.Simd.SoftwarePipelining = SP;
          Req.Simd.Tgt = Target(W);
          Req.Opt = Opt;
          Out.push_back(Req);
        }
  return Out;
}

bool isRejection(const pipeline::CompileResult &R) {
  return R.Simd.ErrorKind == codegen::SimdizeErrorKind::NotSimdizable ||
         R.Simd.ErrorKind == codegen::SimdizeErrorKind::PolicyInapplicable;
}

/// One kernel of the native slice, compiled and ready to emit.
struct SliceKernel {
  ir::Loop L;
  pipeline::CompileResult R;
  std::unique_ptr<sim::ReferenceImage> Ref;
};

/// The native slice: the first NativeSlice loops of the draw that compile
/// under auto policy + SP at V = 16, 32, 64 in turn.
std::vector<std::unique_ptr<SliceKernel>>
nativeSlice(const std::vector<std::string> &Texts, uint64_t Seed) {
  std::vector<std::unique_ptr<SliceKernel>> Out;
  for (size_t I = 0; I < Texts.size() && Out.size() < NativeSlice; ++I) {
    unsigned W = Widths[Out.size() % 3];
    parser::ParseResult PR = parser::parseLoop(Texts[I], DrawWidth);
    if (!PR.ok())
      continue;
    pipeline::CompileRequest Req;
    Req.AutoPolicy = true;
    Req.Simd.SoftwarePipelining = true;
    Req.Simd.Tgt = Target(W);
    // Heap-held: the program and the oracle image borrow the loop.
    auto K = std::make_unique<SliceKernel>(
        SliceKernel{std::move(*PR.Loop), {}, nullptr});
    K->R = pipeline::runPipeline(K->L, Req);
    if (!K->R.ok() || K->R.ReassocLoop)
      continue;
    K->Ref = std::make_unique<sim::ReferenceImage>(K->L, W, Seed);
    Out.push_back(std::move(K));
  }
  return Out;
}

/// Times the native cold path of one kernel: emit the module (with the
/// image adapter, exactly as NativeBatch does), compile and load it,
/// resolve the entry. Returns false with \p Err on failure.
bool buildNative(const SliceKernel &K, double &EmitUs, double &LoadMs,
                 double &TotalMs, std::string &Err) {
  const vir::VProgram &P = *K.R.Simd.Program;
  native::ISA Isa = native::bestISAForWidth(P.getVectorLen());
  native::KernelSpec Spec;
  Spec.Program = &P;
  Spec.Loop = &K.L;
  Spec.Name = "k0";
  for (const auto &A : K.L.getArrays())
    Spec.ArrayBases.push_back(K.Ref->getLayout().baseOf(A.get()));

  auto T0 = Clock::now();
  lower::LowerResult Src;
  {
    obs::Span Sp("native.emitNativeModule", "bench");
    Src = native::emitNativeModule({Spec}, P.getVectorLen(), Isa);
  }
  auto T1 = Clock::now();
  if (!Src.ok()) {
    Err = Src.Error;
    return false;
  }
  const native::CompiledModule *M;
  {
    obs::Span Sp("native.compileAndLoad", "bench");
    M = native::compileAndLoad(Src.Code, Isa, &Err);
  }
  auto T2 = Clock::now();
  if (!M || !M->symbol("k0_image")) {
    if (Err.empty())
      Err = "module lacks k0_image";
    return false;
  }
  auto T3 = Clock::now();
  EmitUs = nsBetween(T0, T1) / 1e3;
  LoadMs = nsBetween(T1, T2) / 1e6;
  TotalMs = nsBetween(T0, T3) / 1e6;
  return true;
}

} // namespace

int coldReloadChild(const Options &O) {
  useNativeCache(O.CacheDir);
  std::vector<std::unique_ptr<SliceKernel>> Slice =
      nativeSlice(drawLoops(O.Seed, PoolLoops), O.Seed);
  std::string Json;
  obs::json::Writer W(Json);
  W.beginObject().key("reload_ms").beginArray();
  int64_t Failures = 0;
  for (const auto &KP : Slice) {
    const SliceKernel &K = *KP;
    double EmitUs, LoadMs, TotalMs;
    std::string Err;
    if (!buildNative(K, EmitUs, LoadMs, TotalMs, Err)) {
      std::fprintf(stderr, "reload failed: %s\n", Err.c_str());
      return 1;
    }
    W.value(TotalMs);
    if (native::diffNativeAgainstOracle(K.L, *K.R.Simd.Program, *K.Ref))
      ++Failures;
  }
  native::NativeCompileStats NS = native::nativeCompileStats();
  W.endArray()
      .field("kernels", static_cast<int64_t>(Slice.size()))
      .field("failures", Failures)
      .field("compiles", static_cast<int64_t>(NS.Compiles))
      .field("disk_hits", static_cast<int64_t>(NS.DiskHits))
      .endObject();
  std::printf("%s\n", Json.c_str());
  return 0;
}

void runColdCompile(const Options &O, Results &R) {
  // Set-up, nine times for the median, each on the next CPU: the draw
  // (synthesize + print) and WarmupLoops loops of the fixed warm-up draw
  // through the whole config set, checked.
  std::vector<pipeline::CompileRequest> Configs = configSet();
  std::vector<std::string> Texts;
  std::vector<double> SetupS;
  for (CpuRotation SetupCpus; SetupS.size() < 9;) {
    SetupCpus.next();
    auto T0 = Clock::now();
    Texts = drawLoops(O.Seed, PoolLoops);
    for (const std::string &Text : drawLoops(WarmupSeed, WarmupLoops))
      for (const pipeline::CompileRequest &Req : Configs) {
        parser::ParseResult PR = parser::parseLoop(Text, DrawWidth);
        if (!PR.ok())
          continue;
        pipeline::CompileResult CR = pipeline::runPipeline(*PR.Loop, Req);
        if (CR.ok() &&
            !pipeline::checkCompiled(*PR.Loop, CR, O.Seed).Ok)
          R.fail("warm-up: " + Req.name() + " differs from the oracle");
      }
    SetupS.push_back(secondsSince(T0));
  }
  auto Start = Clock::now();

  // The native slice into this run's fresh cache: every kernel a compiler
  // invocation, none found on disk.
  std::vector<std::unique_ptr<SliceKernel>> Slice = nativeSlice(Texts, O.Seed);
  native::NativeCompileStats Before = native::nativeCompileStats();
  std::vector<double> BuildMs, EmitUs, LoadMs;
  for (const auto &KP : Slice) {
    const SliceKernel &K = *KP;
    double E, L, T;
    std::string Err;
    R.attempted(1);
    if (!buildNative(K, E, L, T, Err)) {
      R.fail("native build: " + Err);
      continue;
    }
    EmitUs.push_back(E), LoadMs.push_back(L), BuildMs.push_back(T);
    if (auto Diff = native::diffNativeAgainstOracle(K.L, *K.R.Simd.Program,
                                                    *K.Ref))
      R.fail("native slice: " + *Diff);
  }
  native::NativeCompileStats After = native::nativeCompileStats();
  if (Slice.size() != NativeSlice ||
      After.Compiles - Before.Compiles != NativeSlice ||
      After.DiskHits != Before.DiskHits)
    R.fail(strf("cold native slice: %zu kernels, %llu compiles, %llu disk "
                "hits (want %zu, %zu, 0)",
                Slice.size(),
                static_cast<unsigned long long>(After.Compiles -
                                                Before.Compiles),
                static_cast<unsigned long long>(After.DiskHits -
                                                Before.DiskHits),
                NativeSlice, NativeSlice));

  // The reload: a fresh process over the now-populated disk cache must
  // find every kernel there and invoke no compiler.
  std::vector<double> ReloadMs;
  {
    std::optional<std::string> Out = runSelf(
        O, {"--child", "reload", "--workload", "cold-compile", "--seed",
            std::to_string(O.Seed), "--workdir", O.WorkDir, "--cache",
            native::nativeCacheDir()});
    std::optional<obs::json::Value> V =
        Out ? obs::json::parse(Out->substr(0, Out->find('\n')))
            : std::nullopt;
    const obs::json::Value *Ms = V ? V->find("reload_ms") : nullptr;
    R.attempted(static_cast<int64_t>(NativeSlice));
    if (!Ms || !Ms->isArray()) {
      R.fail("reload child failed", static_cast<int64_t>(NativeSlice));
    } else {
      for (const obs::json::Value &X : Ms->Arr)
        ReloadMs.push_back(X.Num);
      auto Num = [&](const char *K) {
        const obs::json::Value *X = V->find(K);
        return X ? static_cast<int64_t>(X->Num) : -1;
      };
      if (Num("failures") != 0)
        R.fail("reloaded kernels differ from the oracle", Num("failures"));
      if (Num("compiles") != 0 ||
          Num("disk_hits") != static_cast<int64_t>(NativeSlice) ||
          Num("kernels") != static_cast<int64_t>(NativeSlice))
        R.fail(strf("reload: %lld compiles, %lld disk hits for %lld kernels "
                    "(want 0 compiles, all from disk)",
                    static_cast<long long>(Num("compiles")),
                    static_cast<long long>(Num("disk_hits")),
                    static_cast<long long>(Num("kernels"))));
    }
  }

  // The VM path, for the rest of the run: every loop x config parsed,
  // compiled and checked, loop after loop. A traced run spends half of it
  // under the tracer.
  double Remaining = std::max(O.Seconds - secondsSince(Start), O.Seconds / 2);
  obs::Tracer Tracer;
  struct Half {
    std::vector<double> CompileUs;
    int64_t Verified = 0, Rejected = 0, Loops = 0;
    double Seconds = 0;
  };
  size_t Next = 0;
  auto RunFor = [&](double Seconds) {
    Half H;
    auto T0 = Clock::now();
    CpuRotation Cpus;
    while (secondsSince(T0) < Seconds) {
      Cpus.next();
      // Should a fast host exhaust the draw, it starts over: every pass
      // parses and compiles afresh, nothing is cached between loops.
      const std::string &Text = Texts[Next++ % Texts.size()];
      ++H.Loops;
      for (const pipeline::CompileRequest &Req : Configs) {
        R.attempted(1);
        auto C0 = Clock::now();
        std::optional<obs::Span> Sp;
        Sp.emplace("parseLoop", "bench");
        parser::ParseResult PR =
            parser::parseLoop(Text, DrawWidth);
        Sp.reset();
        if (!PR.ok()) {
          R.fail("printed loop does not parse: " + PR.Error);
          continue;
        }
        Sp.emplace("runPipeline", "bench");
        pipeline::CompileResult CR = pipeline::runPipeline(*PR.Loop, Req);
        Sp.reset();
        H.CompileUs.push_back(nsBetween(C0, Clock::now()) / 1e3);
        if (!CR.ok()) {
          if (isRejection(CR))
            ++H.Rejected;
          else
            R.fail(Req.name() + ": " + CR.error());
          continue;
        }
        Sp.emplace("checkCompiled", "bench");
        sim::CheckResult C = pipeline::checkCompiled(*PR.Loop, CR, O.Seed);
        Sp.reset();
        if (!C.Ok)
          R.fail(C.Message);
        else
          ++H.Verified;
      }
    }
    H.Seconds = secondsSince(T0);
    return H;
  };

  Half Main = RunFor(O.Trace ? Remaining / 2 : Remaining);
  std::map<std::string, SpanStats> Spans;
  Half Traced;
  if (O.Trace) {
    // The same loops as the untraced half, so the ratio of the two
    // measures the tracer alone.
    Next = 0;
    obs::installTracer(&Tracer);
    Traced = RunFor(Remaining / 2);
    obs::installTracer(nullptr);
    Spans = analyzeTrace(Tracer);
  }

  double P50 = median(Main.CompileUs);
  double P99 = slicedQuantile(Main.CompileUs, 0.99);
  double PerS = static_cast<double>(Main.Verified) / Main.Seconds;
  std::string Ops = strf("%zu ops (%lld loops x %zu configs, %lld rejected)",
                         Main.CompileUs.size(),
                         static_cast<long long>(Main.Loops), Configs.size(),
                         static_cast<long long>(Main.Rejected));
  R.note("compile_us_p50", P50, "us", "text -> parse -> runPipeline; " + Ops);
  R.note("compile_us_p99", P99, "us", "median of 10 time slices; " + Ops);
  R.note("verified_per_s", PerS, "1/s",
         strf("parse + compile + VM check; %lld verified in %.2f s",
              static_cast<long long>(Main.Verified), Main.Seconds));
  R.note("native_build_ms_p50", median(BuildMs), "ms",
         strf("emit + compile + dlopen on a cache miss; %zu kernels",
              BuildMs.size()));
  R.note("native_reload_ms_p50", median(ReloadMs), "ms",
         strf("emit + dlopen from the disk cache in a fresh process; %zu "
              "kernels",
              ReloadMs.size()));
  R.note("setup_s", median(SetupS), "s",
         strf("median of %zu: draw %zu loops + %zu fixed warm-up loops",
              SetupS.size(), Texts.size(), WarmupLoops));

  if (!O.Trace) {
    R.endToEnd("setup_s", median(SetupS));
    R.endToEnd("latency_us_p50", P50);
    R.endToEnd("latency_us_p99", P99);
    R.endToEnd("throughput_per_s", PerS);
    return;
  }

  compilerLayers(R, Spans);
  R.layer("native.emit_us", mean(EmitUs));
  R.layer("native.compile_load_ms", mean(LoadMs));
  R.layer("native.build_ms_p50", median(BuildMs));
  R.layer("native.reload_ms_p50", median(ReloadMs));
  native::NativeCompileStats NS = native::nativeCompileStats();
  R.layer("native.compiles", static_cast<double>(NS.Compiles));
  R.layer("native.memory_hits", static_cast<double>(NS.MemoryHits));
  R.layer("native.disk_hits", static_cast<double>(NS.DiskHits));
  R.layer("native.failures", static_cast<double>(NS.Failures));
  R.layer("obs.trace_overhead", median(Traced.CompileUs) / P50 - 1);
  noteSpans(R, Spans);
}

} // namespace perfbench
