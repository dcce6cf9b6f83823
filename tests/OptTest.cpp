//===- tests/OptTest.cpp - Unit tests for the optimization passes --------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "codegen/Simdizer.h"
#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "opt/CSE.h"
#include "opt/DCE.h"
#include "opt/OffsetReassoc.h"
#include "opt/Pipeline.h"
#include "opt/PredictiveCommoning.h"
#include "opt/SymbolicKey.h"
#include "opt/UnrollRemoveCopies.h"
#include "pipeline/Pipeline.h"
#include "sim/Checker.h"
#include "support/Format.h"
#include "support/RNG.h"
#include "synth/LoopSynth.h"
#include "vir/VPrinter.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

using namespace simdize;
using namespace simdize::opt;

namespace {

using vir::countOps;

/// Simdizes under \p Policy (optionally SP) without any optimization.
codegen::SimdizeResult rawSimdize(const ir::Loop &L,
                                  policies::PolicyKind Policy,
                                  bool SP = false) {
  codegen::SimdizeOptions Opts;
  Opts.Policy = Policy;
  Opts.SoftwarePipelining = SP;
  codegen::SimdizeResult R = codegen::simdize(L, Opts);
  EXPECT_TRUE(R.ok()) << R.Error;
  return R;
}

/// Figure 1 with all three references misaligned.
ir::Loop fig1() {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 3, ir::add(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  return L;
}

TEST(CSE, MergesDuplicatedNextIterationSubtrees) {
  // Zero-shift without reuse: the store-side right shift re-evaluates the
  // whole expression at i-B; sibling load-shifts re-evaluate loads at i+B.
  // Identical (array, offset) loads within one iteration must collapse.
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  unsigned Before = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  unsigned Removed = runCSE(*R.Program, /*MemNorm=*/false);
  unsigned After = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  EXPECT_GT(Removed, 0u);
  EXPECT_LT(After, Before);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 21);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(CSE, MemNormMergesSameChunkLoads) {
  // x[i+1] and x[i+2] sit in one 16-byte chunk (x aligned 0, D=4: bytes
  // 4..11): with MemNorm their truncating loads are one value; without,
  // they stay distinct.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 0, ir::add(ir::ref(X, 1), ir::ref(X, 2)));
  L.setUpperBound(100, true);

  codegen::SimdizeResult R1 = rawSimdize(L, policies::PolicyKind::Zero);
  runCSE(*R1.Program, /*MemNorm=*/false);
  unsigned WithoutNorm = countOps(R1.Program->getBody(), vir::VOpcode::VLoad);

  codegen::SimdizeResult R2 = rawSimdize(L, policies::PolicyKind::Zero);
  runCSE(*R2.Program, /*MemNorm=*/true);
  runDCE(*R2.Program);
  unsigned WithNorm = countOps(R2.Program->getBody(), vir::VOpcode::VLoad);

  EXPECT_LT(WithNorm, WithoutNorm);
  sim::CheckResult Check = sim::checkSimdization(L, *R2.Program, 22);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(CSE, MemNormNeedsStaticAlignment) {
  // With runtime alignments the chunk relation is unprovable for
  // non-congruent offsets; MemNorm must not merge x[i+1] and x[i+2].
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, false);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 0, false);
  L.addStmt(A, 0, ir::add(ir::ref(X, 1), ir::ref(X, 2)));
  L.setUpperBound(100, true);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  unsigned Before = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  runCSE(*R.Program, /*MemNorm=*/true);
  runDCE(*R.Program);
  // The two x streams load distinct offsets; nothing to merge beyond the
  // duplicates CSE removes for other reasons. Specifically the x[i+1] and
  // x[i+2] current-iteration loads must both survive.
  unsigned After = countOps(R.Program->getBody(), vir::VOpcode::VLoad);
  EXPECT_GE(After, 2u);
  (void)Before;
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 23);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(PC, RestoresNeverLoadTwice) {
  // After CSE + PC + unroll + DCE, the steady state of the Figure 1 loop
  // performs exactly one load per distinct stream per iteration: 2 streams
  // x 2 unrolled iterations = 4 body loads.
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  OptConfig Config;
  Config.PC = true;
  runOptPipeline(*R.Program, Config);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VLoad), 4u);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VCopy), 0u);
  EXPECT_EQ(R.Program->getLoopStep(), 8u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 24);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(PC, HoistsLoopInvariantComputation) {
  // splat(3) * splat(4) is invariant: PC hoists the multiply to Setup.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 4, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(A, 0,
            ir::add(ir::ref(B, 0), ir::mul(ir::splat(3), ir::splat(4))));
  L.setUpperBound(100, true);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VBinOp), 2u);
  unsigned Replaced = runPredictiveCommoning(*R.Program, true);
  EXPECT_GE(Replaced, 1u);
  // Only the add with the loaded stream remains in the body.
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VBinOp), 1u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 25);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(PC, CarryChainsAcrossMultipleChunks) {
  // x[i], x[i+4], x[i+8]: three loads of one stream exactly B apart form a
  // carry chain x(i) <- x(i+4) <- x(i+8); after the pipeline only one load
  // per iteration remains and everything still verifies.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *X = L.createArray("x", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(A, 0,
            ir::add(ir::add(ir::ref(X, 0), ir::ref(X, 4)), ir::ref(X, 8)));
  L.setUpperBound(100, true);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  OptConfig Config;
  Config.PC = true;
  runOptPipeline(*R.Program, Config);
  // Two unrolled iterations, one genuinely new chunk each.
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VLoad), 2u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 26);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(SP, UnrollRemovesAllCopies) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R =
      rawSimdize(L, policies::PolicyKind::Zero, /*SP=*/true);
  unsigned CopiesBefore = countOps(R.Program->getBody(), vir::VOpcode::VCopy);
  EXPECT_GT(CopiesBefore, 0u);
  unsigned Removed = runUnrollRemoveCopies(*R.Program);
  EXPECT_EQ(Removed, CopiesBefore);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VCopy), 0u);
  EXPECT_EQ(R.Program->getLoopStep(), 8u);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 27);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(SP, UnrollIsIdempotent) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R =
      rawSimdize(L, policies::PolicyKind::Zero, /*SP=*/true);
  EXPECT_GT(runUnrollRemoveCopies(*R.Program), 0u);
  EXPECT_EQ(runUnrollRemoveCopies(*R.Program), 0u); // Already unrolled.
}

TEST(SP, UnrollNoOpWithoutCopies) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Zero);
  EXPECT_EQ(runUnrollRemoveCopies(*R.Program), 0u);
  EXPECT_EQ(R.Program->getLoopStep(), 4u);
}

TEST(SP, OddAndEvenSteadyIterationCounts) {
  // Unrolling must handle both parities of the steady iteration count,
  // statically and dynamically.
  for (int64_t UB : {20, 21, 22, 23, 24, 25}) {
    for (bool UBKnown : {true, false}) {
      ir::Loop L;
      ir::Array *A = L.createArray("a", ir::ElemType::Int32, 64, 12, true);
      ir::Array *B = L.createArray("b", ir::ElemType::Int32, 64, 8, true);
      L.addStmt(A, 0, ir::ref(B, 0));
      L.setUpperBound(UB, UBKnown);
      codegen::SimdizeResult R =
          rawSimdize(L, policies::PolicyKind::Zero, /*SP=*/true);
      runOptPipeline(*R.Program, OptConfig());
      sim::CheckResult Check = sim::checkSimdization(L, *R.Program, UB);
      EXPECT_TRUE(Check.Ok) << "ub=" << UB << " known=" << UBKnown << ": "
                            << Check.Message;
    }
  }
}

TEST(DCE, RemovesOrphanedOperands) {
  // Hand-plant a dead load + dead scalar chain.
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  vir::VProgram &P = *R.Program;
  vir::VRegId Dead = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVLoad(
      Dead, vir::Address::indexed(L.getArrays()[1].get(), 0,
                                  P.getIndexReg())));
  vir::SRegId DeadS = P.allocSReg();
  P.getSetup().push_back(vir::VInst::makeSConst(DeadS, 42));
  unsigned BodySize = static_cast<unsigned>(P.getBody().size());
  unsigned Removed = runDCE(P);
  EXPECT_GE(Removed, 2u);
  EXPECT_LT(P.getBody().size(), BodySize);
  sim::CheckResult Check = sim::checkSimdization(L, P, 28);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(DCE, KeepsStoresAndTheirOperands) {
  ir::Loop L = fig1();
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  unsigned Stores = countOps(R.Program->getBody(), vir::VOpcode::VStore);
  runDCE(*R.Program);
  EXPECT_EQ(countOps(R.Program->getBody(), vir::VOpcode::VStore), Stores);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 29);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(Reassoc, GroupsEqualOffsets) {
  // (b4 + c8) + d4 regroups so the two offset-4 operands combine first.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 3,
            ir::add(ir::add(ir::ref(B, 1), ir::ref(C, 2)), ir::ref(D, 1)));
  L.setUpperBound(100, true);

  EXPECT_EQ(runOffsetReassociation(L, 16), 1u);
  EXPECT_EQ(ir::printExpr(L.getStmts().front()->getRHS()),
            "(b[i+1] + d[i+1]) + c[i+2]");
}

TEST(Reassoc, ReducesLazyShiftCount) {
  ir::Loop MakeTwice[2];
  for (ir::Loop &L : MakeTwice) {
    ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 12, true);
    ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
    ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 8, true);
    ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 4, true);
    L.addStmt(A, 0,
              ir::add(ir::add(ir::ref(B, 0), ir::ref(C, 0)), ir::ref(D, 0)));
    L.setUpperBound(100, true);
  }
  codegen::SimdizeOptions Opts;
  Opts.Policy = policies::PolicyKind::Lazy;
  codegen::SimdizeResult Plain = codegen::simdize(MakeTwice[0], Opts);
  ASSERT_TRUE(Plain.ok());

  runOffsetReassociation(MakeTwice[1], 16);
  codegen::SimdizeResult Grouped = codegen::simdize(MakeTwice[1], Opts);
  ASSERT_TRUE(Grouped.ok());
  EXPECT_LT(Grouped.ShiftCount, Plain.ShiftCount);
}

TEST(Reassoc, PreservesSemantics) {
  // Reassociation is exact under wrap-around arithmetic: simdize the
  // rewritten loop and verify against the ORIGINAL scalar loop.
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 12, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 4, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 8, true);
  ir::Array *D = L.createArray("d", ir::ElemType::Int32, 128, 4, true);
  L.addStmt(A, 0,
            ir::mul(ir::mul(ir::ref(B, 0), ir::ref(C, 0)),
                    ir::mul(ir::ref(D, 0), ir::splat(-5))));
  L.setUpperBound(100, true);

  runOffsetReassociation(L, 16);
  codegen::SimdizeResult R = rawSimdize(L, policies::PolicyKind::Lazy);
  sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 30);
  EXPECT_TRUE(Check.Ok) << Check.Message;
}

TEST(Reassoc, LeavesSubtractionChainsAlone) {
  ir::Loop L;
  ir::Array *A = L.createArray("a", ir::ElemType::Int32, 128, 0, true);
  ir::Array *B = L.createArray("b", ir::ElemType::Int32, 128, 0, true);
  ir::Array *C = L.createArray("c", ir::ElemType::Int32, 128, 0, true);
  L.addStmt(A, 0, ir::sub(ir::ref(B, 1), ir::ref(C, 2)));
  L.setUpperBound(100, true);
  EXPECT_EQ(runOffsetReassociation(L, 16), 0u);
  EXPECT_EQ(ir::printExpr(L.getStmts().front()->getRHS()),
            "b[i+1] - c[i+2]");
}

TEST(Reassoc, RuntimeAlignedGroupsFollowDeclarationOrder) {
  // Runtime-aligned arrays group by array; the groups combine in the order
  // the arrays were declared, whatever their addresses. Building the loop
  // once and dropping it first hands the second build's arrays recycled
  // blocks, typically in reverse address order.
  auto Build = [] {
    auto L = std::make_unique<ir::Loop>();
    ir::Array *A = L->createArray("a", ir::ElemType::Int32, 128, 0, true);
    ir::Array *X = L->createArray("x", ir::ElemType::Int32, 128, 4, false);
    ir::Array *Y = L->createArray("y", ir::ElemType::Int32, 128, 8, false);
    L->addStmt(A, 0, ir::add(ir::add(ir::ref(Y, 1), ir::ref(X, 1)),
                             ir::ref(Y, 2)));
    L->setUpperBound(100, true);
    return L;
  };
  Build().reset();
  std::unique_ptr<ir::Loop> L = Build();
  EXPECT_EQ(runOffsetReassociation(*L, 16), 1u);
  EXPECT_EQ(ir::printExpr(L->getStmts().front()->getRHS()),
            "(x[i+1] + y[i+1]) + y[i+2]");
}

TEST(Pipeline, FullConfigurationsStayCorrect) {
  for (auto Policy : policies::allPolicies()) {
    for (bool SP : {false, true}) {
      for (bool PC : {false, true}) {
        ir::Loop L = fig1();
        codegen::SimdizeResult R = rawSimdize(L, Policy, SP);
        OptConfig Config;
        Config.PC = PC;
        runOptPipeline(*R.Program, Config);
        sim::CheckResult Check = sim::checkSimdization(L, *R.Program, 31);
        EXPECT_TRUE(Check.Ok)
            << policies::policyName(Policy) << " sp=" << SP << " pc=" << PC
            << ": " << Check.Message;
      }
    }
  }
}

/// FNV-1a over a byte string, continuing from \p H.
uint64_t fnv1a(uint64_t H, const std::string &Bytes) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

TEST(Pipeline, OptimizedProgramsArePinned) {
  // Every optimized program, OptStats counter and post-opt verdict over a
  // seeded synth sweep hashes to one value. Any change to what the opt
  // passes produce moves the hash; a pass rewrite that claims identical
  // output must leave it alone.
  const ir::ElemType Types[] = {ir::ElemType::Int8, ir::ElemType::Int16,
                                ir::ElemType::Int32};
  RNG Rng(0x5eed0b7);
  std::vector<ir::Loop> Loops;
  for (unsigned K = 0; K < 40; ++K) {
    synth::SynthParams P;
    P.Statements = 1 + K % 4;
    P.LoadsPerStmt = 1 + (K / 4) % 6;
    P.Ty = Types[K % 3];
    P.AlignKnown = K % 5 != 0;
    P.UBKnown = K % 7 != 3;
    P.GuardProb = K % 5 == 1 ? 0.5 : 0.0;
    P.ReduceProb = K % 5 == 2 ? 0.5 : 0.0;
    P.Bias = Rng.uniformReal();
    P.Reuse = 0.6 * Rng.uniformReal();
    P.TripCount = Rng.uniformInt(200, 400);
    P.VectorLen = 64;
    P.Seed = Rng.next();
    Loops.push_back(synth::synthesizeLoop(P));
  }

  uint64_t H = 0xcbf29ce484222325ULL;
  unsigned Compiled = 0;
  opt::OptStats Total;
  for (const ir::Loop &L : Loops)
    for (unsigned W : {16u, 32u, 64u})
      for (policies::PolicyKind Policy : policies::allPolicies())
        for (bool SP : {false, true})
          for (pipeline::OptLevel Opt :
               {pipeline::OptLevel::Std, pipeline::OptLevel::PC})
            for (bool MemNorm : {false, true}) {
              pipeline::CompileRequest Req;
              Req.Simd.Policy = Policy;
              Req.Simd.SoftwarePipelining = SP;
              Req.Simd.Tgt = Target(W);
              Req.Opt = Opt;
              Req.MemNorm = MemNorm;
              pipeline::CompileResult R = pipeline::runPipeline(L, Req);
              H = fnv1a(H, R.ConfigName + (MemNorm ? "+mn" : "-mn"));
              if (!R.Simd.ok()) {
                H = fnv1a(H, "rejected:" + R.Simd.Error);
                continue;
              }
              ++Compiled;
              Total.CSERemoved += R.Opt.CSERemoved;
              Total.PCReplaced += R.Opt.PCReplaced;
              Total.CopiesRemoved += R.Opt.CopiesRemoved;
              Total.DCERemoved += R.Opt.DCERemoved;
              H = fnv1a(H, vir::printProgram(*R.Simd.Program));
              H = fnv1a(H, strf("%u/%u/%u/%u", R.Opt.CSERemoved,
                                R.Opt.PCReplaced, R.Opt.CopiesRemoved,
                                R.Opt.DCERemoved));
              H = fnv1a(H, R.PostOptVerifyError.value_or("verified"));
            }

  // The sweep exercises every pass, so the hash pins each one.
  EXPECT_GT(Compiled, 3000u);
  EXPECT_GT(Total.CSERemoved, 0u);
  EXPECT_GT(Total.PCReplaced, 0u);
  EXPECT_GT(Total.CopiesRemoved, 0u);
  EXPECT_GT(Total.DCERemoved, 0u);
  EXPECT_EQ(H, 0x6fe5ac7918e99e5eULL) << strf("pinned hash is 0x%016llx",
                               static_cast<unsigned long long>(H));
}

/// A hand-built V=16, i32 (B=4) program: body loads of \p A at the given
/// offsets into fresh registers, returned in order.
std::vector<vir::VRegId> addBodyLoads(vir::VProgram &P, const ir::Array *A,
                                      std::initializer_list<int64_t> Offsets) {
  std::vector<vir::VRegId> Regs;
  for (int64_t Off : Offsets) {
    Regs.push_back(P.allocVReg());
    P.getBody().push_back(vir::VInst::makeVLoad(
        Regs.back(), vir::Address::indexed(A, Off, P.getIndexReg())));
  }
  return Regs;
}

TEST(ValueNumber, LoadOneBlockAheadMatchesAdvancedCounter) {
  ir::Array A("a", ir::ElemType::Int32, 128, 0, /*AlignmentKnown=*/false);
  vir::VProgram P(16, 4);
  auto R = addBodyLoads(P, &A, {4, 0, 0});
  BodyKeys Keys(P, /*MemNorm=*/false);
  ValueNum Ahead = Keys.keyOfVReg(R[0], 0);
  EXPECT_NE(Ahead, 0u);
  EXPECT_EQ(Ahead, Keys.keyOfVReg(R[1], 4));
  EXPECT_NE(Ahead, Keys.keyOfVReg(R[1], 0));
  // Equal tuples in different registers share one number.
  EXPECT_EQ(Keys.keyOfVReg(R[1], 0), Keys.keyOfVReg(R[2], 0));
}

TEST(ValueNumber, MemNormNumbersLoadsByChunk) {
  // x aligned 0, D=4, V=16: x[i+1] and x[i+2] read chunk 0; x[i+4] reads
  // chunk 1, which x[i+1] reads one block later.
  ir::Array X("x", ir::ElemType::Int32, 128, 0, /*AlignmentKnown=*/true);
  vir::VProgram P(16, 4);
  auto R = addBodyLoads(P, &X, {1, 2, 4});
  BodyKeys Norm(P, /*MemNorm=*/true);
  EXPECT_EQ(Norm.keyOfVReg(R[0], 0), Norm.keyOfVReg(R[1], 0));
  EXPECT_NE(Norm.keyOfVReg(R[0], 0), Norm.keyOfVReg(R[2], 0));
  EXPECT_EQ(Norm.keyOfVReg(R[0], 4), Norm.keyOfVReg(R[2], 0));
  BodyKeys Plain(P, /*MemNorm=*/false);
  EXPECT_NE(Plain.keyOfVReg(R[0], 0), Plain.keyOfVReg(R[1], 0));
}

TEST(ValueNumber, ChunkAndOffsetOfEqualIntegerDiffer) {
  // One array object, keyed by chunk while its alignment is known and by
  // offset once it is not: a[i] is chunk 0 and offset 0, the same array
  // pointer and the same integer, and only the tag tells them apart.
  std::optional<ir::Array> A;
  A.emplace("a", ir::ElemType::Int8, 128, 0, /*AlignmentKnown=*/true);
  vir::VProgram P(16, 1);
  auto R = addBodyLoads(P, &*A, {0, 0});
  BodyKeys Keys(P, /*MemNorm=*/true);
  ValueNum Chunk = Keys.keyOfVReg(R[0], 0);
  A.emplace("a", ir::ElemType::Int8, 128, 0, /*AlignmentKnown=*/false);
  ValueNum Offset = Keys.keyOfVReg(R[1], 0);
  EXPECT_NE(Chunk, 0u);
  EXPECT_NE(Offset, 0u);
  EXPECT_NE(Chunk, Offset);
}

TEST(ValueNumber, ShiftPairAndSpliceDiffer) {
  ir::Array A("a", ir::ElemType::Int32, 128, 0, false);
  vir::VProgram P(16, 4);
  auto R = addBodyLoads(P, &A, {0, 4});
  vir::VRegId Shift = P.allocVReg(), Splice = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVShiftPair(
      Shift, R[0], R[1], vir::ScalarOperand::imm(4)));
  P.getBody().push_back(vir::VInst::makeVSplice(
      Splice, R[0], R[1], vir::ScalarOperand::imm(4)));
  BodyKeys Keys(P, false);
  EXPECT_NE(Keys.keyOfVReg(Shift, 0), 0u);
  EXPECT_NE(Keys.keyOfVReg(Splice, 0), 0u);
  EXPECT_NE(Keys.keyOfVReg(Shift, 0), Keys.keyOfVReg(Splice, 0));
}

TEST(ValueNumber, RegisterAndImmediateOfEqualValueDiffer) {
  ir::Array A("a", ir::ElemType::Int32, 128, 0, false);
  vir::VProgram P(16, 4);
  auto R = addBodyLoads(P, &A, {0, 4});
  vir::SRegId S;
  while (S.Id != 3)
    S = P.allocSReg();
  vir::VRegId ByReg = P.allocVReg(), ByImm = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVShiftPair(
      ByReg, R[0], R[1], vir::ScalarOperand::reg(S)));
  P.getBody().push_back(vir::VInst::makeVShiftPair(
      ByImm, R[0], R[1], vir::ScalarOperand::imm(3)));
  vir::VRegId SplatReg = P.allocVReg(), SplatImm = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVSplatReg(SplatReg, S, 4));
  P.getBody().push_back(vir::VInst::makeVSplat(SplatImm, 3, 4));
  BodyKeys Keys(P, false);
  EXPECT_NE(Keys.keyOfVReg(ByReg, 0), Keys.keyOfVReg(ByImm, 0));
  EXPECT_NE(Keys.keyOfVReg(SplatReg, 0), Keys.keyOfVReg(SplatImm, 0));
}

TEST(ValueNumber, SetupDefinedRegisterIsDeltaInvariant) {
  vir::VProgram P(16, 4);
  vir::VRegId Ext = P.allocVReg();
  P.getSetup().push_back(vir::VInst::makeVSplat(Ext, 7, 4));
  BodyKeys Keys(P, false);
  ValueNum N = Keys.keyOfVReg(Ext, 0);
  EXPECT_NE(N, 0u);
  EXPECT_EQ(N, Keys.keyOfVReg(Ext, 4));
  EXPECT_EQ(N, Keys.keyOfVReg(Ext, -8));
  EXPECT_EQ(Keys.defIndexOf(Ext), -1);
}

TEST(ValueNumber, UnkeyableDefinitionsGetZero) {
  ir::Array A("a", ir::ElemType::Int32, 128, 0, false);
  vir::VProgram P(16, 4);
  auto R = addBodyLoads(P, &A, {0, 4});
  // Defined twice in the body: a loop-carried copy target.
  vir::VRegId Twice = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVCopy(Twice, R[0]));
  P.getBody().push_back(vir::VInst::makeVCopy(Twice, R[1]));
  // Initialized in Setup and redefined in the body.
  vir::VRegId Redef = P.allocVReg();
  P.getSetup().push_back(vir::VInst::makeVSplat(Redef, 0, 4));
  P.getBody().push_back(vir::VInst::makeVBinOp(ir::BinOpKind::Add, Redef,
                                               R[0], R[1], 4));
  // Predicated: its value depends on a runtime flag.
  vir::VRegId Pred = P.allocVReg();
  vir::VInst Load = vir::VInst::makeVLoad(
      Pred, vir::Address::indexed(&A, 8, P.getIndexReg()));
  Load.Predicate = P.allocSReg();
  P.getBody().push_back(Load);
  // Anything computed from an unkeyable operand is unkeyable too.
  vir::VRegId Use = P.allocVReg();
  P.getBody().push_back(vir::VInst::makeVBinOp(ir::BinOpKind::Add, Use,
                                               R[0], Twice, 4));

  BodyKeys Keys(P, false);
  for (vir::VRegId Reg : {Twice, Redef, Pred, Use}) {
    EXPECT_EQ(Keys.keyOfVReg(Reg, 0), 0u) << "v" << Reg.Id;
    EXPECT_EQ(Keys.keyOfVReg(Reg, 4), 0u) << "v" << Reg.Id;
  }
  EXPECT_EQ(Keys.defIndexOf(Twice), -1);
  EXPECT_EQ(Keys.defIndexOf(Redef), -1);
  EXPECT_NE(Keys.keyOfVReg(R[0], 0), 0u);
}

} // namespace
