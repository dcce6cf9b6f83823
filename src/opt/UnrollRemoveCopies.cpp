//===- opt/UnrollRemoveCopies.cpp -----------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/UnrollRemoveCopies.h"

#include "support/Debug.h"
#include "vir/VProgram.h"

#include <algorithm>
#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

namespace {

/// Remaps the registers of the unrolled second instance. Both tables are
/// indexed by original register; an invalid entry means "not mapped".
struct InstanceRenamer {
  VProgram &P;
  /// Original work-defined register -> second-instance register.
  std::vector<VRegId> Map;
  /// Carried register -> propagated first-instance source.
  std::vector<VRegId> Propagate;

  explicit InstanceRenamer(VProgram &P)
      : P(P), Map(P.getNumVRegs()), Propagate(P.getNumVRegs()) {}

  VRegId use(VRegId R) const {
    if (Propagate[R.Id].isValid())
      return Propagate[R.Id];
    if (Map[R.Id].isValid())
      return Map[R.Id];
    return R; // Loop invariant from Setup.
  }

  VRegId def(VRegId R) {
    VRegId Fresh = P.allocVReg();
    Map[R.Id] = Fresh;
    return Fresh;
  }
};

} // namespace

unsigned opt::runUnrollRemoveCopies(VProgram &P) {
  int64_t B = P.getBlockingFactor();
  if (P.getLoopStep() != static_cast<unsigned>(B))
    return 0; // Already unrolled.

  Block &Body = P.getBody();

  // Peel the trailing run of back-edge copies.
  size_t WorkEnd = Body.size();
  while (WorkEnd > 0 && Body[WorkEnd - 1].Op == VOpcode::VCopy &&
         !Body[WorkEnd - 1].Predicate)
    --WorkEnd;
  if (WorkEnd == Body.size())
    return 0; // Nothing to remove.

  std::vector<std::pair<VRegId, VRegId>> Copies; // (carried, source)
  for (size_t K = WorkEnd; K < Body.size(); ++K)
    Copies.emplace_back(Body[K].VDst, Body[K].VSrc1);
  Block Work(Body.begin(), Body.begin() + static_cast<long>(WorkEnd));

  // The transformation requires a well-formed steady body: vector-only,
  // unpredicated, counter-indexed addresses.
  for (const VInst &I : Work) {
    if (I.definesScalar() || I.Predicate)
      return 0;
    if ((I.Op == VOpcode::VLoad || I.Op == VOpcode::VStore) && !I.Addr.Index)
      return 0;
  }

  // Carried registers whose copy source is itself a carried register form
  // chains (predictive commoning produces them when one array is read at
  // offsets B apart). The second instance must then read the *body-entry*
  // value of the source carry, which coalescing overwrites mid-body; a
  // snapshot copy at the top of the body preserves it.
  // Tables indexed by original register; invalid entries are unset.
  const unsigned NumOrig = P.getNumVRegs();
  std::vector<VRegId> CarryOf(NumOrig);  // carried reg -> its copy source
  for (auto [Old, Src] : Copies)
    CarryOf[Old.Id] = Src;
  auto IsCarried = [&](VRegId R) { return CarryOf[R.Id].isValid(); };

  std::vector<VRegId> Snapshot(NumOrig); // carried reg -> top-of-body snap
  Block Snaps;
  auto SnapshotOf = [&](VRegId Carried) {
    if (Snapshot[Carried.Id].isValid())
      return Snapshot[Carried.Id];
    VRegId Snap = P.allocVReg();
    VInst Copy = VInst::makeVCopy(Snap, Carried);
    Copy.Comment = "carry-chain snapshot";
    Snaps.push_back(Copy);
    Snapshot[Carried.Id] = Snap;
    return Snap;
  };

  // Build the second instance: registers renamed, addresses advanced by B,
  // carried-register reads forward-propagated — to the first instance's
  // freshly computed source when the source is body-computed, or to the
  // body-entry snapshot when the source is another carry.
  InstanceRenamer Renamer(P);
  for (auto [Old, Src] : Copies)
    Renamer.Propagate[Old.Id] = IsCarried(Src) ? SnapshotOf(Src) : Src;

  Block Second;
  Second.reserve(Work.size());
  for (const VInst &Orig : Work) {
    VInst I = Orig;
    switch (I.Op) {
    case VOpcode::VLoad:
      I.Addr.ElemOffset += B;
      break;
    case VOpcode::VStore:
      I.VSrc1 = Renamer.use(I.VSrc1);
      I.Addr.ElemOffset += B;
      break;
    case VOpcode::VBinOp:
    case VOpcode::VCmp:
    case VOpcode::VShiftPair:
    case VOpcode::VSplice:
      I.VSrc1 = Renamer.use(I.VSrc1);
      I.VSrc2 = Renamer.use(I.VSrc2);
      break;
    case VOpcode::VSelect:
      I.VSrc1 = Renamer.use(I.VSrc1);
      I.VSrc2 = Renamer.use(I.VSrc2);
      I.VSrc3 = Renamer.use(I.VSrc3);
      break;
    case VOpcode::VSplat:
      break;
    case VOpcode::VCopy:
      I.VSrc1 = Renamer.use(I.VSrc1);
      break;
    default:
      simdize_unreachable("unexpected opcode in steady body");
    }
    if (I.definesVector())
      I.VDst = Renamer.def(Orig.VDst);
    Second.push_back(std::move(I));
  }

  // Coalesce and update the carries for the next double iteration. For a
  // copy Old <- Src:
  //  * Src body-computed: Old must end up with the second instance's Src.
  //    Its producer writes Old directly (legal: after propagation nothing
  //    reads Old past the first instance, and snapshots were taken at the
  //    top). Several Olds sharing one source keep explicit copies beyond
  //    the first.
  //  * Src is itself a carry Old_j: two composed rotations give Old the
  //    value Old_j would have received after the first instance — the
  //    first instance's value of Src_j when that is body-computed, or the
  //    body-entry snapshot of Src_j when the chain is deeper.
  //  * Src loop-invariant: the carry never changes; drop the copy.
  // Copies grouped by source register, groups in ascending source order,
  // copies within a group in body order.
  std::vector<std::pair<VRegId, VRegId>> BySource = Copies;
  std::stable_sort(BySource.begin(), BySource.end(),
                   [](const auto &L, const auto &R) {
                     return L.second.Id < R.second.Id;
                   });

  Block Extra;
  // Second-instance source register -> the carried register it becomes.
  std::vector<VRegId> Coalesce(P.getNumVRegs());
  for (size_t G = 0; G < BySource.size();) {
    VRegId Src = BySource[G].second;
    size_t End = G;
    while (End < BySource.size() && BySource[End].second == Src)
      ++End;
    if (IsCarried(Src)) {
      VRegId SrcOfSrc = CarryOf[Src.Id];
      VRegId Value = IsCarried(SrcOfSrc) ? SnapshotOf(SrcOfSrc) : SrcOfSrc;
      for (size_t K = G; K < End; ++K) {
        VInst Copy = VInst::makeVCopy(BySource[K].first, Value);
        Copy.Comment = "carry-chain rotate";
        Extra.push_back(Copy);
      }
    } else if (Renamer.Map[Src.Id].isValid()) {
      VRegId Primary = BySource[G].first;
      Coalesce[Renamer.Map[Src.Id].Id] = Primary;
      for (size_t K = G + 1; K < End; ++K)
        Extra.push_back(VInst::makeVCopy(BySource[K].first, Primary));
    } // Else a loop-invariant source: the carry never changes.
    G = End;
  }

  // Rename each coalesced source to its primary carried register
  // throughout the second instance. Sources are fresh registers and
  // primaries original ones, so the renames never chain.
  auto Coalesced = [&Coalesce](VRegId &R) {
    if (R.Id < Coalesce.size() && Coalesce[R.Id].isValid())
      R = Coalesce[R.Id];
  };
  for (VInst &I : Second) {
    if (I.definesVector())
      Coalesced(I.VDst);
    Coalesced(I.VSrc1);
    Coalesced(I.VSrc2);
    if (I.Op == VOpcode::VSelect)
      Coalesced(I.VSrc3);
  }

  Block NewBody;
  NewBody.reserve(Snaps.size() + Work.size() + Second.size() + Extra.size());
  NewBody.insert(NewBody.end(), Snaps.begin(), Snaps.end());
  NewBody.insert(NewBody.end(), Work.begin(), Work.end());
  NewBody.insert(NewBody.end(), Second.begin(), Second.end());
  NewBody.insert(NewBody.end(), Extra.begin(), Extra.end());

  // Loop control: step 2B, bound dropped by B so both sub-iterations stay
  // within the original range.
  ScalarOperand OrigUB = P.getUpperBound();
  ScalarOperand NewUB;
  if (OrigUB.isImm()) {
    NewUB = ScalarOperand::imm(OrigUB.getImm() - B);
  } else {
    SRegId R = P.allocSReg();
    VInst Sub = VInst::makeSBinOp(SBinOpKind::Sub, R, OrigUB,
                                  ScalarOperand::imm(B));
    Sub.Comment = "unrolled-loop bound";
    P.getSetup().push_back(Sub);
    NewUB = ScalarOperand::reg(R);
  }

  // Leftover odd iteration, in front of the existing epilogue.
  Block NewEpilogue;
  int64_t LB = P.getLowerBound().getImm();
  if (OrigUB.isImm()) {
    // Steady iterations of the original loop: i = LB, LB+B, ... < UB.
    int64_t UB = OrigUB.getImm();
    assert(UB > LB && "simdized loops always have steady iterations");
    int64_t N = (UB - 1 - LB) / B + 1;
    bool Leftover = (N % 2) != 0;
    if (Leftover) {
      NewEpilogue.insert(NewEpilogue.end(), Work.begin(), Work.end());
      // The epilogue reads the carried registers (pipeline "old" values,
      // reduction accumulators); replay the peeled back-edge copies so
      // they reflect the consumed leftover block.
      for (auto [Old, Src] : Copies)
        NewEpilogue.push_back(VInst::makeVCopy(Old, Src));
    }
    // The statement epilogues expected the counter at the first unexecuted
    // iteration; with a consumed leftover that is one more block ahead.
    for (VInst I : P.getEpilogue()) {
      if (Leftover && I.Addr.Index &&
          *I.Addr.Index == P.getIndexReg())
        I.Addr.ElemOffset += B;
      NewEpilogue.push_back(std::move(I));
    }
  } else {
    // Runtime bound: predicate the leftover on i < UB and index the
    // existing epilogue with iEpi = i + B * leftover.
    SRegId Flag = P.allocSReg();
    {
      VInst Cmp =
          VInst::makeSCmp(SCmpKind::LT, Flag,
                          ScalarOperand::reg(P.getIndexReg()), OrigUB);
      Cmp.Comment = "odd leftover iteration?";
      NewEpilogue.push_back(Cmp);
    }
    for (VInst I : Work) {
      I.Predicate = Flag;
      NewEpilogue.push_back(std::move(I));
    }
    // Carried registers must advance with the consumed block; the copies
    // share the leftover's predicate so they fire only when it ran.
    for (auto [Old, Src] : Copies) {
      VInst Copy = VInst::makeVCopy(Old, Src);
      Copy.Predicate = Flag;
      NewEpilogue.push_back(std::move(Copy));
    }
    SRegId Scaled = P.allocSReg();
    NewEpilogue.push_back(VInst::makeSBinOp(SBinOpKind::Mul, Scaled,
                                            ScalarOperand::reg(Flag),
                                            ScalarOperand::imm(B)));
    SRegId IEpi = P.allocSReg();
    {
      VInst Add = VInst::makeSBinOp(SBinOpKind::Add, IEpi,
                                    ScalarOperand::reg(P.getIndexReg()),
                                    ScalarOperand::reg(Scaled));
      Add.Comment = "epilogue counter";
      NewEpilogue.push_back(Add);
    }
    for (VInst I : P.getEpilogue()) {
      if (I.Addr.Index && *I.Addr.Index == P.getIndexReg())
        I.Addr.Index = IEpi;
      NewEpilogue.push_back(std::move(I));
    }
  }

  P.getBody() = std::move(NewBody);
  P.getEpilogue() = std::move(NewEpilogue);
  P.setLoopBounds(P.getLowerBound(), NewUB);
  P.setLoopStep(static_cast<unsigned>(2 * B));
  return static_cast<unsigned>(Copies.size());
}
