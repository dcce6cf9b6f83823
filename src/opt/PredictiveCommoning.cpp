//===- opt/PredictiveCommoning.cpp ----------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/PredictiveCommoning.h"

#include "opt/SymbolicKey.h"
#include "support/Debug.h"

#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

namespace {

/// Clones the body def tree of registers into Setup, evaluated at a
/// compile-time counter value — the initialization of carried registers.
class ConstCloner {
public:
  ConstCloner(VProgram &P, const Block &OrigBody, const BodyKeys &Keys,
              int64_t CV)
      : P(P), OrigBody(OrigBody), Keys(Keys), CV(CV),
        Memo(P.getNumVRegs()) {}

  /// Emits code into Setup computing the value \p R has at loop counter
  /// CV; returns the register holding it. Registers not defined in the
  /// body are loop invariants and are returned as-is.
  VRegId cloneAt(VRegId R) {
    int DefIdx = Keys.defIndexOf(R);
    if (DefIdx < 0)
      return R; // Setup-defined loop invariant.
    if (Memo[R.Id].isValid())
      return Memo[R.Id];

    VInst I = OrigBody[static_cast<size_t>(DefIdx)];
    assert(I.isPure() && "cannot clone an impure instruction");
    switch (I.Op) {
    case VOpcode::VLoad:
      assert(I.Addr.Index && "body loads are counter-indexed");
      I.Addr = Address::constant(I.Addr.Base, I.Addr.ElemOffset, CV);
      break;
    case VOpcode::VSplat:
      break;
    case VOpcode::VBinOp:
    case VOpcode::VCmp:
    case VOpcode::VShiftPair:
    case VOpcode::VSplice:
      I.VSrc1 = cloneAt(I.VSrc1);
      I.VSrc2 = cloneAt(I.VSrc2);
      break;
    case VOpcode::VSelect:
      I.VSrc1 = cloneAt(I.VSrc1);
      I.VSrc2 = cloneAt(I.VSrc2);
      I.VSrc3 = cloneAt(I.VSrc3);
      break;
    case VOpcode::VCopy:
      I.VSrc1 = cloneAt(I.VSrc1);
      break;
    default:
      simdize_unreachable("unexpected opcode in steady body");
    }
    I.VDst = P.allocVReg();
    I.Comment = "predictive-commoning init";
    P.getSetup().push_back(I);
    Memo[R.Id] = I.VDst;
    return I.VDst;
  }

private:
  VProgram &P;
  const Block &OrigBody;
  const BodyKeys &Keys;
  int64_t CV;
  /// Clone of each original body register, indexed by register.
  std::vector<VRegId> Memo;
};

} // namespace

unsigned opt::runPredictiveCommoning(VProgram &P, bool MemNorm) {
  BodyKeys Keys(P, MemNorm);
  const Block OrigBody = P.getBody(); // Copy: rewrites must not disturb keys.
  const size_t N = OrigBody.size();
  constexpr size_t None = ~size_t(0);
  int64_t B = P.getBlockingFactor();
  int64_t LB = P.getLowerBound().isImm() ? P.getLowerBound().getImm() : B;

  // Map each keyable value to its first defining instruction.
  std::vector<size_t> ByKey;
  for (size_t Idx = 0; Idx < N; ++Idx) {
    const VInst &I = OrigBody[Idx];
    if (!I.isPure() || !I.definesVector())
      continue;
    if (ValueNum Key = Keys.keyOfVReg(I.VDst, 0)) {
      if (Key >= ByKey.size())
        ByKey.resize(Key + 1, None);
      if (ByKey[Key] == None)
        ByKey[Key] = Idx;
    }
  }

  // Identify candidates: hoistable invariants and carried values.
  std::vector<bool> Hoisted(N, false);
  unsigned NumHoisted = 0;
  struct CarryInfo {
    size_t XIdx;
    size_t YIdx;
    VRegId CarryReg;
  };
  std::vector<CarryInfo> Carries;
  std::vector<size_t> CarrySucc(N, None); // XIdx -> YIdx, for cycles.

  for (size_t Idx = 0; Idx < N; ++Idx) {
    const VInst &I = OrigBody[Idx];
    if (!I.isPure() || !I.definesVector())
      continue;
    ValueNum K0 = Keys.keyOfVReg(I.VDst, 0);
    if (!K0)
      continue;
    ValueNum KB = Keys.keyOfVReg(I.VDst, B);
    if (!KB)
      continue;

    if (KB == K0) {
      // Loop invariant; hoistable when all operands are invariant too
      // (ext regs or previously hoisted defs — guaranteed by K0 == KB
      // recursively, and body order puts operand defs first).
      Hoisted[Idx] = true;
      ++NumHoisted;
      continue;
    }
    // A number first handed out at delta B is no body value at delta 0.
    if (KB < ByKey.size() && ByKey[KB] != None) {
      size_t YIdx = ByKey[KB];
      if (YIdx != Idx && !Hoisted[YIdx]) {
        Carries.push_back({Idx, YIdx, VRegId{}});
        CarrySucc[Idx] = YIdx;
      }
    }
  }

  // Drop carries that participate in cycles (defensive; cannot arise from
  // stride-one codegen, where load offsets strictly increase with B). Each
  // walk stamps the indices it visits with its own number.
  std::vector<unsigned> SeenInWalk(N, 0);
  unsigned Walk = 0;
  for (auto It = Carries.begin(); It != Carries.end();) {
    ++Walk;
    size_t Cur = It->XIdx;
    bool Cycle = false;
    while (CarrySucc[Cur] != None) {
      if (SeenInWalk[Cur] == Walk) {
        Cycle = true;
        break;
      }
      SeenInWalk[Cur] = Walk;
      Cur = CarrySucc[Cur];
    }
    if (Cycle) {
      CarrySucc[It->XIdx] = None;
      It = Carries.erase(It);
      continue;
    }
    ++It;
  }

  if (NumHoisted == 0 && Carries.empty())
    return 0;

  // Materialize carried registers and their Setup initialization: the value
  // X holds in the first steady iteration, computed at counter LB.
  ConstCloner Cloner(P, OrigBody, Keys, LB);
  std::vector<VRegId> Rename(P.getNumVRegs()); // Old dst -> carried register.
  std::vector<bool> Removed(N, false);
  std::vector<size_t> CarryAt(N, None); // XIdx -> its carry.
  for (size_t K = 0; K < Carries.size(); ++K) {
    CarryInfo &C = Carries[K];
    C.CarryReg = P.allocVReg();
    VRegId Init = Cloner.cloneAt(OrigBody[C.XIdx].VDst);
    VInst Copy = VInst::makeVCopy(C.CarryReg, Init);
    Copy.Comment = "carried-value init";
    P.getSetup().push_back(Copy);
    Rename[OrigBody[C.XIdx].VDst.Id] = C.CarryReg;
    Removed[C.XIdx] = true;
    CarryAt[C.XIdx] = K;
  }

  // Hoist invariants: move them (in order) to Setup unchanged; their
  // operands are invariant registers.
  for (size_t Idx = 0; Idx < N; ++Idx) {
    if (!Hoisted[Idx])
      continue;
    VInst I = OrigBody[Idx];
    I.Comment = "hoisted loop invariant";
    P.getSetup().push_back(I);
    Removed[Idx] = true;
  }

  // Rebuild the body without the removed instructions, renaming uses.
  auto Renamed = [&Rename](VRegId R) {
    return Rename[R.Id].isValid() ? Rename[R.Id] : R;
  };
  Block NewBody;
  NewBody.reserve(N);
  for (size_t Idx = 0; Idx < N; ++Idx) {
    if (Removed[Idx])
      continue;
    VInst I = OrigBody[Idx];
    switch (I.Op) {
    case VOpcode::VStore:
    case VOpcode::VCopy:
      I.VSrc1 = Renamed(I.VSrc1);
      break;
    case VOpcode::VBinOp:
    case VOpcode::VCmp:
    case VOpcode::VShiftPair:
    case VOpcode::VSplice:
      I.VSrc1 = Renamed(I.VSrc1);
      I.VSrc2 = Renamed(I.VSrc2);
      break;
    case VOpcode::VSelect:
      I.VSrc1 = Renamed(I.VSrc1);
      I.VSrc2 = Renamed(I.VSrc2);
      I.VSrc3 = Renamed(I.VSrc3);
      break;
    default:
      break;
    }
    NewBody.push_back(std::move(I));
  }

  // Back-edge copies, ordered so that a carry reading another carried
  // register is copied before that register is overwritten (chains only;
  // Kahn-style emission). Carry K copies Y's value this iteration, or Y's
  // carried register when Y is carried itself.
  const size_t NumCarries = Carries.size();
  std::vector<VRegId> Source(NumCarries);
  for (size_t K = 0; K < NumCarries; ++K) {
    size_t Y = CarryAt[Carries[K].YIdx];
    Source[K] = Y != None ? Carries[Y].CarryReg
                          : OrigBody[Carries[K].YIdx].VDst;
  }
  std::vector<bool> Emitted(NumCarries, false);
  size_t NumEmitted = 0;
  while (NumEmitted < NumCarries) {
    bool Progress = false;
    for (size_t K = 0; K < NumCarries; ++K) {
      if (Emitted[K])
        continue;
      // K's copy overwrites its carried register; every carry that reads
      // that register's old value (its source is it) must be copied first.
      bool Blocked = false;
      for (size_t O = 0; O < NumCarries; ++O)
        if (!Emitted[O] && O != K && Source[O] == Carries[K].CarryReg) {
          Blocked = true;
          break;
        }
      if (Blocked)
        continue;
      VInst Copy = VInst::makeVCopy(Carries[K].CarryReg, Source[K]);
      Copy.Comment = "carried-value rotate";
      NewBody.push_back(Copy);
      Emitted[K] = true;
      ++NumEmitted;
      Progress = true;
    }
    if (!Progress)
      simdize_unreachable("cyclic carried-copy dependence survived filter");
  }

  P.getBody() = std::move(NewBody);
  return static_cast<unsigned>(NumCarries + NumHoisted);
}
