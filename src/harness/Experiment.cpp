//===- harness/Experiment.cpp ---------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "harness/Experiment.h"

#include "ir/Loop.h"
#include "ir/ScalarCost.h"

#include <cmath>

using namespace simdize;
using namespace simdize::harness;

pipeline::CompileRequest harness::scheme(policies::PolicyKind Policy,
                                         ReuseKind Reuse, const Target &Tgt) {
  pipeline::CompileRequest C;
  C.Simd.Policy = Policy;
  C.Simd.SoftwarePipelining = Reuse == ReuseKind::SP;
  C.Simd.Tgt = Tgt;
  C.Opt = Reuse == ReuseKind::PC ? pipeline::OptLevel::PC
                                 : pipeline::OptLevel::Std;
  return C;
}

ReuseKind harness::reuseOf(const pipeline::CompileRequest &C) {
  if (C.Simd.SoftwarePipelining)
    return ReuseKind::SP;
  if (C.Opt == pipeline::OptLevel::PC)
    return ReuseKind::PC;
  return ReuseKind::None;
}

std::string harness::schemeName(const pipeline::CompileRequest &C) {
  std::string Name = policies::policyName(C.Simd.Policy);
  switch (reuseOf(C)) {
  case ReuseKind::None:
    break;
  case ReuseKind::PC:
    Name += "-pc";
    break;
  case ReuseKind::SP:
    Name += "-sp";
    break;
  }
  if (C.Simd.Tgt.VectorLen != 16)
    Name.append("@").append(std::to_string(C.Simd.Tgt.VectorLen));
  return Name;
}

Measurement harness::runSchemeOnLoop(const ir::Loop &L,
                                     const pipeline::CompileRequest &S,
                                     uint64_t CheckSeed) {
  Measurement M;
  const unsigned V = S.Simd.vectorLen();

  pipeline::CompileResult R = pipeline::runPipeline(L, S);
  if (!R.ok()) {
    M.Error = R.error();
    return M;
  }

  sim::CheckResult Check =
      pipeline::checkCompiled(L, R, CheckSeed, schemeName(S));
  if (!Check.Ok) {
    M.Error = Check.Message;
    return M;
  }

  // Measurements are taken against the loop the program was compiled from
  // (the reassociated clone when the scheme asked for it).
  const ir::Loop &Run = R.ReassocLoop ? *R.ReassocLoop : L;

  M.Ok = true;
  M.Counts = Check.Stats.Counts;
  M.Datums = Run.getUpperBound() * static_cast<int64_t>(Run.getStmts().size());
  M.Opd = M.Counts.opd(M.Datums);
  M.OpdReorg = static_cast<double>(M.Counts.Reorg) /
               static_cast<double>(M.Datums);

  synth::LowerBound LB = synth::computeLowerBound(Run, V, S.Simd.Policy);
  unsigned B = V / Run.getElemSize();
  M.OpdLB = LB.opd(B, static_cast<unsigned>(Run.getStmts().size()));
  M.OpdLBShift = static_cast<double>(LB.Shifts) /
                 (static_cast<double>(B) *
                  static_cast<double>(Run.getStmts().size()));
  M.ScalarOpd = ir::scalarOpd(Run);
  M.Speedup = M.Opd > 0.0 ? M.ScalarOpd / M.Opd : 0.0;
  M.SpeedupLB = M.OpdLB > 0.0 ? M.ScalarOpd / M.OpdLB : 0.0;
  M.StaticShifts = R.Simd.ShiftCount;
  return M;
}

Measurement harness::runScheme(const synth::SynthParams &P,
                               const pipeline::CompileRequest &S) {
  synth::SynthParams Params = P;
  // The loop must be synthesized for the width it will be compiled at.
  Params.VectorLen = S.Simd.vectorLen();
  return runSchemeOnLoop(synth::synthesizeLoop(Params), S,
                         P.Seed ^ 0xc0ffee);
}

SuiteResult harness::runSuite(const synth::SynthParams &Base,
                              unsigned LoopCount,
                              const pipeline::CompileRequest &S) {
  SuiteResult Result;
  Result.LoopCount = LoopCount;

  std::vector<double> Speedups, SpeedupLBs;
  unsigned Skipped = 0;
  for (unsigned K = 0; K < LoopCount; ++K) {
    synth::SynthParams P = Base;
    P.Seed = synth::benchmarkLoopSeed(Base.Seed, K);
    Measurement M = runScheme(P, S);
    if (!M.Ok) {
      ++Result.Failures;
      if (Result.FirstError.empty())
        Result.FirstError = M.Error;
      continue;
    }
    // opd is NaN when the loop executed zero datums (the opd-unset
    // convention): the run verified, but it carries no rate to average.
    if (std::isnan(M.Opd)) {
      ++Skipped;
      continue;
    }
    Speedups.push_back(M.Speedup);
    SpeedupLBs.push_back(M.SpeedupLB);
    Result.MeanOpd += M.Opd;
    Result.MeanOpdLB += M.OpdLB;
    double ShiftOver = M.OpdReorg - M.OpdLBShift;
    if (ShiftOver < 0.0)
      ShiftOver = 0.0;
    Result.MeanShiftOverhead += ShiftOver;
    Result.MeanCompilerOverhead += M.Opd - M.OpdLB - ShiftOver;
    Result.MeanScalarOpd += M.ScalarOpd;
  }

  unsigned Succeeded = LoopCount - Result.Failures - Skipped;
  if (Succeeded > 0) {
    Result.MeanOpd /= Succeeded;
    Result.MeanOpdLB /= Succeeded;
    Result.MeanShiftOverhead /= Succeeded;
    Result.MeanCompilerOverhead /= Succeeded;
    Result.MeanScalarOpd /= Succeeded;
    Result.HarmonicSpeedup = harmonicMean(Speedups);
    Result.HarmonicSpeedupLB = harmonicMean(SpeedupLBs);
  }
  return Result;
}

double harness::harmonicMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Denom = 0.0;
  for (double V : Values) {
    if (V <= 0.0)
      return 0.0;
    Denom += 1.0 / V;
  }
  return static_cast<double>(Values.size()) / Denom;
}
