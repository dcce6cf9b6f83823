//===- tests/NativeEmitterTest.cpp - The native host-SIMD execution tier -===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native backend end to end: structural checks on the emitted
/// intrinsic text (including the V = 16 shim rendering of the paper's
/// Section 2.2 mapping), a hash pin over every emitted module,
/// ISA/width admissibility and CPUID-based degradation, V = 16 scheme
/// kernels on the shim and the best host ISA, the portable shim at
/// V = 32/64 (vshiftpair/vsplice edge lanes, truncating loads/stores,
/// predicated epilogue stores), the hardware ISAs gated on host support,
/// the content-hash compile cache and its shell-free compiler spawn,
/// batched multi-kernel modules, and the pipeline facade's native
/// execution tier.
///
//===----------------------------------------------------------------------===//

#include "fuzz/CorpusIO.h"
#include "ir/IRBuilder.h"
#include "ir/Loop.h"
#include "native/NativeCompile.h"
#include "native/NativeEmitter.h"
#include "native/NativeRun.h"
#include "opt/Pipeline.h"
#include "parser/LoopParser.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "support/Format.h"
#include "synth/LoopSynth.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <type_traits>

#include <unistd.h>

using namespace simdize;

namespace {

/// Figure 1's loop shape at an arbitrary element type / alignment set.
ir::Loop figureOneLoop(ir::ElemType Ty) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", Ty, 256, 0, true);
  ir::Array *B = L.createArray("b", Ty, 256, 0, true);
  ir::Array *C = L.createArray("c", Ty, 256, 0, true);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  return L;
}

vir::VProgram compileFor(const ir::Loop &L, unsigned V,
                         policies::PolicyKind Policy, bool SP) {
  pipeline::CompileRequest Req;
  Req.Simd.Policy = Policy;
  Req.Simd.SoftwarePipelining = SP;
  Req.Simd.Tgt = Target(V);
  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  EXPECT_TRUE(R.ok()) << R.error();
  return std::move(*R.Simd.Program);
}

TEST(NativeEmitter, StructuralMapping) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 32, policies::PolicyKind::Eager, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::AVX2);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;

  // The module selects the wrapper ISA/width and maps every vector op
  // onto vx_* calls; the signature is the shared KernelEmitter one.
  EXPECT_NE(Src.find("#define SIMDIZE_NATIVE_V 32"), std::string::npos);
  EXPECT_NE(Src.find("#define SIMDIZE_NATIVE_ISA_AVX2 1"),
            std::string::npos);
  EXPECT_NE(Src.find("#include \"simdize_x86.h\""), std::string::npos);
  EXPECT_NE(Src.find("void kern(unsigned char *a, unsigned char *b, "
                     "unsigned char *c, long ub)"),
            std::string::npos);
  EXPECT_NE(Src.find("vx_ld("), std::string::npos);
  EXPECT_NE(Src.find("vx_st("), std::string::npos);
  EXPECT_NE(Src.find("vx_sld<"), std::string::npos);
  EXPECT_NE(Src.find("vx_splice("), std::string::npos);
  EXPECT_NE(Src.find("vx_add_i32("), std::string::npos);
  // Emission is host-independent: no image adapter was requested.
  EXPECT_EQ(Src.find("_image"), std::string::npos);
}

TEST(NativeEmitter, ShimMappingAtV16) {
  // The paper's 16-byte machine on the portable shim: immediate shifts
  // render as vx_sld (vec_sld), splices as vx_splice (vec_sel), and
  // loads/stores as the truncating vx_ld/vx_st (vec_ld/vec_st).
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Zero, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;
  EXPECT_NE(Src.find("#define SIMDIZE_NATIVE_V 16"), std::string::npos);
  EXPECT_NE(Src.find("#define SIMDIZE_NATIVE_ISA_SHIM 1"), std::string::npos);
  EXPECT_NE(Src.find("void kern(unsigned char *a, unsigned char *b, "
                     "unsigned char *c, long ub)"),
            std::string::npos);
  EXPECT_NE(Src.find("vx_sld<"), std::string::npos);
  EXPECT_NE(Src.find("vx_splice("), std::string::npos);
  EXPECT_NE(Src.find("vx_ld("), std::string::npos);
  EXPECT_NE(Src.find("vx_st("), std::string::npos);
  EXPECT_EQ(Src.find("vx_shiftpair("), std::string::npos); // No runtime shifts.
}

TEST(NativeEmitter, RuntimeShiftsUseShiftPair) {
  // Runtime alignments shift by a register amount (vec_perm + vec_lvsl
  // on AltiVec) computed from the array's base address.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, false);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, false);
  L.addStmt(A, 3, ir::ref(B, 1));
  L.setUpperBound(100, true);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Zero, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "kern", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok()) << Lowered.Error;
  const std::string &Src = Lowered.Code;
  EXPECT_NE(Src.find("vx_shiftpair("), std::string::npos);
  EXPECT_NE(Src.find("(uintptr_t)b"), std::string::npos);
}

TEST(NativeEmitter, RejectsWidthISAMismatch) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  vir::VProgram P = compileFor(L, 32, policies::PolicyKind::Zero, false);
  lower::LowerResult R =
      native::emitNativeKernel(P, L, "kern", native::ISA::SSE2);
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("cannot realize V = 32"), std::string::npos);

  // Mixed widths inside one module are rejected too.
  vir::VProgram P16 = compileFor(L, 16, policies::PolicyKind::Zero, false);
  native::KernelSpec K1{&P, &L, "k0", {}};
  native::KernelSpec K2{&P16, &L, "k1", {}};
  lower::LowerResult Mixed =
      native::emitNativeModule({K1, K2}, 32, native::ISA::Shim);
  EXPECT_FALSE(Mixed.ok());
  EXPECT_NE(Mixed.Error.find("simdized for V = 16"), std::string::npos);
}

/// FNV-1a over a byte string, continuing from \p H.
uint64_t fnv1a(uint64_t H, const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

TEST(NativeEmitter, EmittedModulesArePinned) {
  // Every module the emitter renders for the corpus plus a seeded synth
  // sweep, under 5 policies x SP x V = 16/32/64 x every ISA that realizes
  // the width, hashes to one value. Emission is host-independent, so all
  // ISAs are pinned everywhere. The module text is the .so cache key's
  // input: an emitter refactor that claims identical kernels must leave
  // the hash alone.
  std::vector<std::unique_ptr<ir::Loop>> Loops;
  for (const std::string &Path : fuzz::listCorpusFiles(SIMDIZE_CORPUS_DIR)) {
    std::optional<std::string> Text = fuzz::readCorpusFile(Path);
    ASSERT_TRUE(Text.has_value()) << Path;
    parser::ParseResult Parsed = parser::parseLoop(*Text, 64);
    ASSERT_TRUE(Parsed.ok()) << Path << ": " << Parsed.Error;
    Loops.push_back(std::make_unique<ir::Loop>(std::move(*Parsed.Loop)));
  }
  ASSERT_FALSE(Loops.empty());
  const ir::ElemType Types[] = {ir::ElemType::Int8, ir::ElemType::Int16,
                                ir::ElemType::Int32};
  for (unsigned K = 0; K < 6; ++K) {
    synth::SynthParams P;
    P.Statements = 1 + K % 3;
    P.LoadsPerStmt = 2 + K % 3;
    P.Ty = Types[K % 3];
    P.AlignKnown = K % 3 != 1;
    P.UBKnown = K % 2 == 0;
    P.GuardProb = K == 3 ? 0.5 : 0.0;
    P.ReduceProb = K == 4 ? 0.5 : 0.0;
    P.TripCount = 150 + 17 * K;
    P.VectorLen = 64;
    P.Seed = 0x9a11 + K;
    Loops.push_back(std::make_unique<ir::Loop>(synth::synthesizeLoop(P)));
  }
  {
    // A runtime parameter flows into the signature and a splat.
    auto L = std::make_unique<ir::Loop>();
    ir::Array *Out = L->createArray("out", ir::ElemType::Int32, 160, 4, true);
    ir::Array *X = L->createArray("x", ir::ElemType::Int32, 160, 8, true);
    ir::Param *Alpha = L->createParam("alpha", 37);
    L->addStmt(Out, 1, ir::mul(ir::param(Alpha), ir::ref(X, 2)));
    L->setUpperBound(120, true);
    Loops.push_back(std::move(L));
  }
  {
    // An if-converted statement renders vx_cmp_* and vx_sel.
    auto L = std::make_unique<ir::Loop>();
    ir::Array *G = L->createArray("g", ir::ElemType::Int16, 300, 2, true);
    ir::Array *X = L->createArray("x", ir::ElemType::Int16, 300, 6, true);
    L->addIfStmt(G, 2, ir::add(ir::ref(X, 0), ir::splat(1)), ir::ref(X, 3),
                 ir::CmpKind::NE, ir::splat(4));
    L->setUpperBound(250, true);
    Loops.push_back(std::move(L));
  }

  // The sweep must reach every vector opcode's rendering, so the hash
  // pins each one.
  const char *Renderings[] = {"vx_ld(",       "vx_st(",     "vx_sld<",
                              "vx_shiftpair(", "vx_splice(", "vx_splat_",
                              "vx_cmp_",      "vx_sel(",    "if (s",
                              "_image("};
  std::vector<bool> Seen(std::size(Renderings), false);
  uint64_t H = 0xcbf29ce484222325ULL;
  unsigned Emitted = 0;
  for (const auto &L : Loops)
    for (unsigned V : {16u, 32u, 64u}) {
      sim::MemoryLayout Layout(*L, V);
      for (policies::PolicyKind Policy : policies::allPolicies())
        for (bool SP : {false, true}) {
          pipeline::CompileRequest Req;
          Req.Simd.Policy = Policy;
          Req.Simd.SoftwarePipelining = SP;
          Req.Simd.Tgt = Target(V);
          pipeline::CompileResult R = pipeline::runPipeline(*L, Req);
          H = fnv1a(H, R.ConfigName);
          if (!R.Simd.ok()) {
            H = fnv1a(H, "rejected:" + R.Simd.Error);
            continue;
          }
          native::KernelSpec Spec{&*R.Simd.Program, L.get(), "kern", {}};
          for (const auto &A : L->getArrays())
            Spec.ArrayBases.push_back(Layout.baseOf(A.get()));
          for (native::ISA Isa : native::AllISAs) {
            if (!native::isaSupportsWidth(Isa, V))
              continue;
            lower::LowerResult M = native::emitNativeModule({Spec}, V, Isa);
            ASSERT_TRUE(M.ok()) << M.Error;
            H = fnv1a(H, M.Code);
            ++Emitted;
            for (size_t K = 0; K < Seen.size(); ++K)
              if (M.Code.find(Renderings[K]) != std::string::npos)
                Seen[K] = true;
          }
        }
    }

  EXPECT_GT(Emitted, 400u);
  for (size_t K = 0; K < Seen.size(); ++K)
    EXPECT_TRUE(Seen[K]) << Renderings[K];
  EXPECT_EQ(H, 0x048a8ea4d0304e53ULL) << strf("pinned hash is 0x%016llx",
                               static_cast<unsigned long long>(H));
}

TEST(NativeISA, WidthAdmissibilityAndNames) {
  using native::ISA;
  EXPECT_TRUE(native::isaSupportsWidth(ISA::SSE2, 16));
  EXPECT_FALSE(native::isaSupportsWidth(ISA::SSE2, 32));
  EXPECT_TRUE(native::isaSupportsWidth(ISA::AVX2, 32));
  EXPECT_FALSE(native::isaSupportsWidth(ISA::AVX2, 64));
  EXPECT_TRUE(native::isaSupportsWidth(ISA::AVX512, 64));
  EXPECT_FALSE(native::isaSupportsWidth(ISA::AVX512, 16));
  for (unsigned V : {4u, 8u, 16u, 32u, 64u})
    EXPECT_TRUE(native::isaSupportsWidth(ISA::Shim, V)) << V;
  EXPECT_FALSE(native::isaSupportsWidth(ISA::Shim, 24));

  for (ISA I : native::AllISAs)
    EXPECT_EQ(native::parseISAName(native::isaName(I)), I);
  EXPECT_FALSE(native::parseISAName("avx1024").has_value());

  EXPECT_EQ(native::canonicalISAForWidth(16), ISA::SSE2);
  EXPECT_EQ(native::canonicalISAForWidth(32), ISA::AVX2);
  EXPECT_EQ(native::canonicalISAForWidth(64), ISA::AVX512);
  EXPECT_EQ(native::canonicalISAForWidth(8), ISA::Shim);
}

TEST(NativeISA, DegradationIsAlwaysRunnable) {
  // Whatever the host, every width resolves to an ISA that both supports
  // the width and runs here — the graceful-degradation guarantee.
  for (unsigned V : {16u, 32u, 64u}) {
    for (native::ISA Req : native::AllISAs) {
      native::ISA Used = native::resolveISAForRun(V, Req);
      EXPECT_TRUE(native::isaSupportsWidth(Used, V));
      EXPECT_TRUE(native::hostSupportsISA(Used));
    }
    native::ISA Best = native::bestISAForWidth(V);
    EXPECT_TRUE(native::hostSupportsISA(Best));
    EXPECT_TRUE(native::isaSupportsWidth(Best, V));
  }
}

/// Compiles \p L at width \p V under \p Policy, then runs it natively on
/// the reference image with \p Isa and requires bit-identity with the
/// scalar oracle.
void expectNativeMatches(const ir::Loop &L, unsigned V,
                         policies::PolicyKind Policy, bool SP,
                         native::ISA Isa, uint64_t Seed = 7) {
  vir::VProgram P = compileFor(L, V, Policy, SP);
  sim::ReferenceImage Ref(L, V, Seed);
  std::optional<std::string> Err =
      native::diffNativeAgainstOracle(L, P, Ref, Isa);
  EXPECT_FALSE(Err.has_value()) << *Err;
}

// Satellite coverage: the portable shim at V = 32/64 — immediate
// vshiftpair (edge lanes included via offsets spanning a whole register),
// vsplice on the first/last lanes of prologue/epilogue stores, and
// truncating loads/stores on misaligned streams.
TEST(NativeShimWide, ShiftAndSpliceV32) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  expectNativeMatches(L, 32, policies::PolicyKind::Eager, false,
                      native::ISA::Shim);
  expectNativeMatches(L, 32, policies::PolicyKind::Lazy, true,
                      native::ISA::Shim);
}

TEST(NativeShimWide, ByteLanesSpanningRegisterV64) {
  // i8 lanes with offsets up to a full 64-byte register: immediate
  // shifts land on 0, 1, and V-1 boundary lanes across the shift network.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int8, 512, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int8, 512, 63, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int8, 512, 1, true);
  L.addStmt(A, 5, ir::mul(ir::ref(B, 64), ir::ref(C, 0)));
  L.setUpperBound(300, true);
  expectNativeMatches(L, 64, policies::PolicyKind::Eager, false,
                      native::ISA::Shim);
  expectNativeMatches(L, 64, policies::PolicyKind::Dominant, true,
                      native::ISA::Shim);
}

TEST(NativeShimWide, RuntimeAlignmentShiftsV32) {
  // Runtime alignments force SBase arithmetic plus register-operand
  // vshiftpair/vsplice — the host-pointer alignment equivalence path.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int16, 256, 0, false);
  ir::Array *B = L.createArray("b", ir::ElemType::Int16, 256, 0, false);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::splat(5)));
  L.setUpperBound(120, true);
  expectNativeMatches(L, 32, policies::PolicyKind::Zero, false,
                      native::ISA::Shim);
}

TEST(NativeShimWide, PredicatedEpilogueStoresV64) {
  // A runtime trip count keeps the epilogue's final stores predicated;
  // the emitted `if (s%u) { vx_st... }` guards must agree with the VM.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 256, 4, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 256, 8, true);
  L.addStmt(A, 1, ir::add(ir::ref(B, 2), ir::splat(9)));
  L.setUpperBound(97, false);
  expectNativeMatches(L, 64, policies::PolicyKind::Lazy, false,
                      native::ISA::Shim);
  expectNativeMatches(L, 64, policies::PolicyKind::Zero, true,
                      native::ISA::Shim);
}

// CPUID-gated smoke of each hardware ISA at its width; on hosts without
// the feature the loop body skips (degradation is covered above).
TEST(NativeHost, HardwareISAsMatchOracle) {
  struct {
    native::ISA Isa;
    unsigned V;
  } Cases[] = {{native::ISA::SSE2, 16},
               {native::ISA::AVX2, 32},
               {native::ISA::AVX512, 64}};
  for (auto [Isa, V] : Cases) {
    if (!native::hostSupportsISA(Isa))
      continue;
    ir::Loop L = figureOneLoop(ir::ElemType::Int32);
    expectNativeMatches(L, V, policies::PolicyKind::Eager, true, Isa);
  }
}

TEST(NativeHost, AutoISARunsEverywhere) {
  // The default-request path: no explicit ISA anywhere, every width runs.
  for (unsigned V : {16u, 32u, 64u}) {
    synth::SynthParams SP;
    SP.Statements = 2;
    SP.LoadsPerStmt = 3;
    SP.TripCount = 200;
    SP.Seed = 11;
    SP.VectorLen = V;
    ir::Loop L = synth::synthesizeLoop(SP);
    vir::VProgram P = compileFor(L, V, policies::PolicyKind::Dominant, true);
    sim::ReferenceImage Ref(L, V, 13);
    std::optional<std::string> Err =
        native::diffNativeAgainstOracle(L, P, Ref);
    EXPECT_FALSE(Err.has_value()) << *Err;
  }
}

/// Runs \p P at V = 16 on the portable shim and on the best ISA this host
/// has, each time requiring bit-identity with the scalar oracle.
void expectV16MatchesOnShimAndHost(const ir::Loop &L, const vir::VProgram &P,
                                   uint64_t Seed) {
  sim::ReferenceImage Ref(L, 16, Seed);
  for (native::ISA Isa : {native::ISA::Shim, native::bestISAForWidth(16)}) {
    std::optional<std::string> Err =
        native::diffNativeAgainstOracle(L, P, Ref, Isa);
    EXPECT_FALSE(Err.has_value()) << native::isaName(Isa) << ": " << *Err;
  }
}

/// One V = 16 scheme. No pointer and no padding, so gtest's byte dump of
/// the value (the published case name) is the same in every build.
struct LowerCase {
  policies::PolicyKind Policy;
  bool SP;
  bool AlignKnown;
  bool UBKnown;
  char Tag[9];
};
static_assert(sizeof(LowerCase) == 16 &&
              std::has_unique_object_representations_v<LowerCase>);

class CompileAndRun : public ::testing::TestWithParam<LowerCase> {};

TEST_P(CompileAndRun, MatchesScalarOracle) {
  LowerCase Case = GetParam();
  synth::SynthParams P;
  P.Statements = 2;
  P.LoadsPerStmt = 3;
  P.TripCount = 101;
  P.AlignKnown = Case.AlignKnown;
  P.UBKnown = Case.UBKnown;
  P.Seed = 3131;
  ir::Loop L = synth::synthesizeLoop(P);

  codegen::SimdizeOptions Opts;
  Opts.Policy = Case.Policy;
  Opts.SoftwarePipelining = Case.SP;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  opt::OptConfig Config;
  Config.PC = !Case.SP;
  opt::runOptPipeline(*R.Program, Config);
  expectV16MatchesOnShimAndHost(L, *R.Program, 7171);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, CompileAndRun,
    ::testing::Values(
        LowerCase{policies::PolicyKind::Lazy, true, true, true, "lazy_sp"},
        LowerCase{policies::PolicyKind::Dominant, false, true, true,
                  "dom_pc"},
        LowerCase{policies::PolicyKind::Zero, true, false, false,
                  "zero_rt"}),
    [](const ::testing::TestParamInfo<LowerCase> &Info) {
      return std::string(Info.param.Tag);
    });

TEST(CompileAndRunExtra, RuntimeParameterKernel) {
  // A runtime blend factor flows through the emitted kernel's argument
  // list into the vx_splat.
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int32, 160, 4, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 160, 8, true);
  ir::Param *Alpha = L.createParam("alpha", 37);
  L.addStmt(Out, 1, ir::mul(ir::param(Alpha), ir::ref(X, 2)));
  L.setUpperBound(120, true);

  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  Opts.SoftwarePipelining = true;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  opt::runOptPipeline(*R.Program, opt::OptConfig());
  expectV16MatchesOnShimAndHost(L, *R.Program, 4242);
}

TEST(CompileAndRunExtra, MinMaxBitwiseKernel) {
  ir::Loop L;
  ir::Array *Out = L.createArray("out", ir::ElemType::Int8, 200, 3, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int8, 200, 9, true);
  ir::Array *Y = L.createArray("y", ir::ElemType::Int8, 200, 0, true);
  L.addStmt(Out, 0,
            ir::bitXor(ir::min(ir::ref(X, 1), ir::ref(Y, 0)),
                       ir::max(ir::ref(X, 0), ir::splat(-3))));
  L.setUpperBound(160, true);

  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Dominant;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  opt::OptConfig Config;
  Config.PC = true;
  opt::runOptPipeline(*R.Program, Config);
  expectV16MatchesOnShimAndHost(L, *R.Program, 9912);
}

TEST(CompileAndRunExtra, Int16FirFilter) {
  ir::Loop L;
  ir::Array *Y = L.createArray("y", ir::ElemType::Int16, 300, 2, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int16, 300, 6, true);
  auto Tap = [&](int64_t Coeff, int64_t Off) {
    return ir::mul(ir::splat(Coeff), ir::ref(X, Off));
  };
  L.addStmt(Y, 0,
            ir::add(ir::add(Tap(7, 0), Tap(-3, 1)),
                    ir::add(Tap(5, 2), Tap(2, 3))));
  L.setUpperBound(250, true);

  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Dominant;
  Opts.SoftwarePipelining = true;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  ASSERT_TRUE(R.ok()) << R.Error;
  opt::runOptPipeline(*R.Program, opt::OptConfig());
  expectV16MatchesOnShimAndHost(L, *R.Program, 8989);
}

/// Sets an environment variable for one scope, restoring the old value.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    ::setenv(Name, Value.c_str(), 1);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;
  ~ScopedEnv() {
    if (Saved)
      ::setenv(Name, Saved->c_str(), 1);
    else
      ::unsetenv(Name);
  }

private:
  const char *Name;
  std::optional<std::string> Saved;
};

TEST(NativeCompile, CacheDirWithShellMetacharacters) {
  // The compiler runs without a shell: spaces, quotes and a command
  // substitution in the cache path are plain bytes of a file name.
  namespace fs = std::filesystem;
  fs::path Base = fs::path(::testing::TempDir()) /
                  strf("simdize_spawn_%ld", static_cast<long>(getpid()));
  fs::remove_all(Base);
  fs::path Marker = Base / "substituted";
  fs::path Dir = Base / ("cache \"q\" $(touch " + Marker.string() + ")");
  ScopedEnv Cache("SIMDIZE_NATIVE_CACHE", Dir.string());

  // Array names no other test uses, so the module misses the in-process
  // cache and the compiler really runs.
  ir::Loop L;
  ir::Array *A = L.createArray("spawn_a", ir::ElemType::Int16, 256, 2, true);
  ir::Array *B = L.createArray("spawn_b", ir::ElemType::Int16, 256, 6, true);
  L.addStmt(A, 1, ir::add(ir::ref(B, 3), ir::splat(11)));
  L.setUpperBound(180, true);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Lazy, true);
  sim::ReferenceImage Ref(L, 16, 5);

  native::NativeCompileStats Before = native::nativeCompileStats();
  std::optional<std::string> Err =
      native::diffNativeAgainstOracle(L, P, Ref, native::ISA::Shim);
  EXPECT_FALSE(Err.has_value()) << *Err;
  EXPECT_EQ(native::nativeCompileStats().Compiles, Before.Compiles + 1);
  EXPECT_FALSE(fs::exists(Marker));
  unsigned Objects = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Objects += E.path().extension() == ".so";
  EXPECT_EQ(Objects, 1u);
  fs::remove_all(Base);
}

TEST(NativeCompile, CompilerFailureReportsExitStatus) {
  // A failing compiler is reported by its exit status or signal, not a
  // raw wait status; one that cannot be started says so.
  namespace fs = std::filesystem;
  fs::path Dir = fs::path(::testing::TempDir()) /
                 strf("simdize_spawn_fail_%ld", static_cast<long>(getpid()));
  fs::create_directories(Dir);
  ScopedEnv Cache("SIMDIZE_NATIVE_CACHE", Dir.string());
  fs::path Killed = Dir / "killed-cxx";
  {
    std::ofstream Script(Killed);
    Script << "#!/bin/sh\nkill -KILL $$\n";
  }
  fs::permissions(Killed, fs::perms::owner_all);

  struct {
    std::string Compiler;
    std::string Expected;
  } Cases[] = {
      {"false", "'false' failed (exit status 1)"},
      {Killed.string(), "failed (killed by signal 9)"},
      {"/nonexistent/simdize-cxx", "failed (cannot start: "},
  };
  for (const auto &[Compiler, Expected] : Cases) {
    ScopedEnv Cxx("SIMDIZE_NATIVE_CXX", Compiler);
    std::string Error;
    EXPECT_EQ(native::compileAndLoad("// never compiled\n", native::ISA::Shim,
                                     &Error),
              nullptr);
    EXPECT_NE(Error.find(Expected), std::string::npos) << Error;
  }
  fs::remove_all(Dir);
}

TEST(NativeCache, RepeatedCompileHitsCache) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int16);
  vir::VProgram P = compileFor(L, 16, policies::PolicyKind::Lazy, false);
  lower::LowerResult Lowered =
      native::emitNativeKernel(P, L, "cache_probe", native::ISA::Shim);
  ASSERT_TRUE(Lowered.ok());

  std::string Error;
  const native::CompiledModule *First =
      native::compileAndLoad(Lowered.Code, native::ISA::Shim, &Error);
  ASSERT_NE(First, nullptr) << Error;
  native::NativeCompileStats Before = native::nativeCompileStats();
  const native::CompiledModule *Second =
      native::compileAndLoad(Lowered.Code, native::ISA::Shim, &Error);
  ASSERT_NE(Second, nullptr) << Error;
  native::NativeCompileStats After = native::nativeCompileStats();
  EXPECT_EQ(Second, First); // One handle per content hash.
  EXPECT_EQ(After.MemoryHits, Before.MemoryHits + 1);
  EXPECT_EQ(After.Compiles, Before.Compiles);
}

TEST(NativeBatch, ManyKernelsOneModule) {
  // One compiler invocation serves a whole policy matrix.
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  std::vector<vir::VProgram> Programs;
  Programs.push_back(compileFor(L, 16, policies::PolicyKind::Zero, false));
  Programs.push_back(compileFor(L, 16, policies::PolicyKind::Eager, true));
  Programs.push_back(compileFor(L, 16, policies::PolicyKind::Lazy, true));

  sim::ReferenceImage Ref(L, 16, 21);
  native::NativeBatch Batch(native::bestISAForWidth(16));
  for (const vir::VProgram &P : Programs)
    Batch.add(L, P, Ref.getLayout());
  std::string Error;
  ASSERT_TRUE(Batch.compile(&Error)) << Error;
  ASSERT_EQ(Batch.size(), Programs.size());
  for (size_t K = 0; K < Batch.size(); ++K) {
    sim::Memory M = Ref.getInitial();
    native::runNativeOnMemory(Batch.kernel(K), M);
    EXPECT_TRUE(M == Ref.getExpected()) << "kernel " << K;
  }
}

TEST(PipelineTier, NativeTierChecksClean) {
  ir::Loop L = figureOneLoop(ir::ElemType::Int32);
  pipeline::CompileRequest Req;
  Req.Simd.Policy = policies::PolicyKind::Lazy;
  Req.Simd.SoftwarePipelining = true;
  Req.Tier = pipeline::ExecTier::Native;
  EXPECT_EQ(Req.name(), "LAZY-sp/opt+native");

  pipeline::CompileResult R = pipeline::runPipeline(L, Req);
  ASSERT_TRUE(R.ok()) << R.error();
  sim::CheckResult C = pipeline::checkCompiled(L, R, 7);
  EXPECT_TRUE(C.Ok) << C.Message;
}

} // namespace
