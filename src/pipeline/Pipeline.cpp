//===- pipeline/Pipeline.cpp ----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "ir/Array.h"
#include "ir/Loop.h"
#include "native/NativeRun.h"
#include "obs/Trace.h"
#include "opt/OffsetReassoc.h"
#include "reorg/ReorgGraph.h"
#include "vir/VVerifier.h"

using namespace simdize;
using namespace simdize::pipeline;

std::string CompileRequest::name() const {
  std::string Name =
      AutoPolicy ? "AUTO" : policies::policyName(Simd.Policy);
  if (Simd.SoftwarePipelining)
    Name += "-sp";
  switch (Opt) {
  case OptLevel::Raw:
    Name += "/raw";
    break;
  case OptLevel::Std:
    Name += "/opt";
    break;
  case OptLevel::PC:
    Name += "-pc/opt";
    break;
  }
  if (Simd.Tgt.VectorLen != 16)
    Name.append("@").append(std::to_string(Simd.Tgt.VectorLen));
  if (Tier == ExecTier::Native)
    Name += "+native";
  return Name;
}

/// Picks the policy with the fewest predicted steady-state shifts for
/// \p L, summed over its statements on once-built shift-free graphs.
/// Candidates are scanned dominant-first with strict-improvement
/// replacement, so ties resolve to the paper's greedy policies (and to
/// dominant-shift among those) — the optimal DP is chosen only when its
/// exactness buys an actual shift. Runtime alignments leave zero-shift as
/// the only applicable policy.
static policies::PolicyKind
resolveAutoPolicy(const ir::Loop &L, const codegen::SimdizeOptions &Simd) {
  bool AllAlignKnown = true;
  for (const auto &A : L.getArrays())
    AllAlignKnown &= A->isAlignmentKnown();
  if (!AllAlignKnown)
    return policies::PolicyKind::Zero;

  std::vector<reorg::Graph> Graphs;
  Graphs.reserve(L.getStmts().size());
  for (const auto &S : L.getStmts())
    Graphs.push_back(reorg::buildGraph(*S, Simd.vectorLen()));

  const policies::PolicyKind Order[] = {
      policies::PolicyKind::Dominant, policies::PolicyKind::Zero,
      policies::PolicyKind::Eager, policies::PolicyKind::Lazy,
      policies::PolicyKind::Optimal};
  policies::PolicyKind Best = policies::PolicyKind::Dominant;
  uint64_t BestTotal = UINT64_MAX;
  for (policies::PolicyKind Kind : Order) {
    uint64_t Total = 0;
    for (const reorg::Graph &G : Graphs)
      Total += policies::predictSteadyShiftCount(Kind, G,
                                                 Simd.SoftwarePipelining);
    if (Total < BestTotal) {
      Best = Kind;
      BestTotal = Total;
    }
  }
  return Best;
}

CompileResult pipeline::runPipeline(const ir::Loop &L,
                                    const CompileRequest &Req,
                                    const PipelineHooks &Hooks) {
  CompileResult Res;
  Res.ConfigName = Req.name();
  Res.Tier = Req.Tier;

  obs::Span PipelineSpan("pipeline");
  if (PipelineSpan.active())
    PipelineSpan.argStr("config", Res.ConfigName);

  // Offset reassociation is a scalar source transformation; it runs on a
  // private clone so one loop can be compiled under many requests (the
  // fuzzer's config matrix shares loop identity with its oracle cache).
  const ir::Loop *Compiled = &L;
  if (Req.OffsetReassoc) {
    Res.ReassocLoop.emplace(ir::cloneLoop(L));
    Res.Reassociated =
        opt::runOffsetReassociation(*Res.ReassocLoop, Req.Simd.vectorLen());
    Compiled = &*Res.ReassocLoop;
  }

  // Auto selection resolves against the loop actually compiled, so a
  // reassociated offset pattern is judged in its rewritten form.
  codegen::SimdizeOptions Simd = Req.Simd;
  if (Req.AutoPolicy)
    Simd.Policy = resolveAutoPolicy(*Compiled, Simd);
  Res.ResolvedPolicy = Simd.Policy;

  Res.Simd = codegen::simdize(*Compiled, Simd);
  if (!Res.Simd.ok())
    return Res;

  if (Hooks.RawProgram && !Hooks.RawProgram(Res.Simd, Simd)) {
    Res.HookAborted = true;
    return Res;
  }

  if (Req.Opt != OptLevel::Raw) {
    opt::OptConfig Config;
    Config.CSE = true;
    Config.MemNorm = Req.MemNorm;
    Config.PC = Req.Opt == OptLevel::PC;
    Config.UnrollCopies = true;
    Res.Opt = opt::runOptPipeline(*Res.Simd.Program, Config);
    Res.OptRan = true;

    // The raw program was verified by simdize(); re-prove the optimized
    // one so a pass bug cannot masquerade as a simulation mismatch.
    obs::Span VerifySp("opt-verify", "opt");
    if (auto Err = vir::verifyProgram(*Res.Simd.Program))
      Res.PostOptVerifyError = "optimized program is invalid: " + *Err;
  }
  return Res;
}

sim::CheckResult pipeline::checkCompiled(const ir::Loop &L,
                                         const CompileResult &R,
                                         uint64_t CheckSeed,
                                         const std::string &SchemeName,
                                         const sim::CheckOptions &Opts) {
  const ir::Loop &Checked = R.ReassocLoop ? *R.ReassocLoop : L;
  sim::CheckContext Ctx{SchemeName.empty() ? R.ConfigName : SchemeName};
  sim::ReferenceImage Ref(Checked, R.Simd.Program->getVectorLen(), CheckSeed);
  sim::CheckResult C =
      sim::checkSimdization(Checked, *R.Simd.Program, Ref, &Ctx, Opts);
  if (C.Ok && R.Tier == ExecTier::Native) {
    // The native differential rides on the VM-verified result: the same
    // reference image must come back bit-identical from the dlopen'd
    // kernel, so VM and native agree transitively on the whole image.
    if (auto Err = native::diffNativeAgainstOracle(Checked, *R.Simd.Program,
                                                   Ref)) {
      C.Ok = false;
      C.Message = "[" + Ctx.Scheme + "] " + *Err;
    }
  }
  return C;
}
