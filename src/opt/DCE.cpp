//===- opt/DCE.cpp --------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/DCE.h"

#include "vir/VProgram.h"

#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

namespace {

/// Calls \p F with every register \p I reads, counting a register once per
/// operand slot. Vector register R is numbered R; scalar register R is
/// numbered NumVRegs + R.
template <typename Fn>
void forEachUse(const VInst &I, unsigned NumVRegs, Fn F) {
  auto SOp = [&](const ScalarOperand &Op) {
    if (Op.IsReg)
      F(NumVRegs + Op.Reg.Id);
  };
  if (I.Predicate)
    F(NumVRegs + I.Predicate->Id);
  switch (I.Op) {
  case VOpcode::VLoad:
    if (I.Addr.Index)
      F(NumVRegs + I.Addr.Index->Id);
    break;
  case VOpcode::VStore:
    F(I.VSrc1.Id);
    if (I.Addr.Index)
      F(NumVRegs + I.Addr.Index->Id);
    break;
  case VOpcode::VSplat:
  case VOpcode::SConst:
  case VOpcode::SBase:
    break;
  case VOpcode::VShiftPair:
  case VOpcode::VSplice:
    F(I.VSrc1.Id);
    F(I.VSrc2.Id);
    SOp(I.SOp1);
    break;
  case VOpcode::VBinOp:
  case VOpcode::VCmp:
    F(I.VSrc1.Id);
    F(I.VSrc2.Id);
    break;
  case VOpcode::VSelect:
    F(I.VSrc1.Id);
    F(I.VSrc2.Id);
    F(I.VSrc3.Id);
    break;
  case VOpcode::VCopy:
    F(I.VSrc1.Id);
    break;
  case VOpcode::SBinOp:
  case VOpcode::SCmp:
    SOp(I.SOp1);
    SOp(I.SOp2);
    break;
  }
}

} // namespace

unsigned opt::runDCE(VProgram &P) {
  const unsigned NumVRegs = P.getNumVRegs();
  const size_t NumRegs = NumVRegs + size_t(P.getNumSRegs());
  constexpr size_t None = ~size_t(0);
  const BlockKind Kinds[] = {BlockKind::Setup, BlockKind::Body,
                             BlockKind::Epilogue};

  // The register a removable instruction defines, or None when the
  // instruction has effects or defines nothing.
  auto DefOf = [NumVRegs](const VInst &I) -> size_t {
    if (!I.isPure())
      return None;
    if (I.definesVector())
      return I.VDst.Id;
    if (I.definesScalar())
      return NumVRegs + size_t(I.SDst.Id);
    return None;
  };

  // Every instruction in block order, each register's use count (the loop
  // bounds count as uses), and each register's removable definitions as a
  // list threaded through NextDef.
  std::vector<const VInst *> Insts;
  std::vector<unsigned> Uses(NumRegs, 0);
  std::vector<size_t> FirstDef(NumRegs, None), NextDef;
  for (const ScalarOperand &Bound : {P.getLowerBound(), P.getUpperBound()})
    if (Bound.IsReg)
      ++Uses[NumVRegs + Bound.Reg.Id];
  for (BlockKind Kind : Kinds)
    for (const VInst &I : P.getBlock(Kind)) {
      forEachUse(I, NumVRegs, [&Uses](size_t R) { ++Uses[R]; });
      size_t R = DefOf(I);
      NextDef.push_back(R == None ? None : FirstDef[R]);
      if (R != None)
        FirstDef[R] = Insts.size();
      Insts.push_back(&I);
    }

  // A definition is dead once nothing left reads its register. Deletion
  // only lowers use counts, so it is confluent: draining this worklist
  // removes exactly what iterating "delete every unread definition" to a
  // fixpoint would.
  std::vector<size_t> Work;
  for (size_t K = 0; K < Insts.size(); ++K)
    if (size_t R = DefOf(*Insts[K]); R != None && Uses[R] == 0)
      Work.push_back(K);
  if (Work.empty())
    return 0;
  std::vector<char> Dead(Insts.size(), 0);
  unsigned TotalRemoved = 0;
  while (!Work.empty()) {
    size_t K = Work.back();
    Work.pop_back();
    if (Dead[K])
      continue;
    Dead[K] = 1;
    ++TotalRemoved;
    forEachUse(*Insts[K], NumVRegs, [&](size_t R) {
      if (--Uses[R] == 0)
        for (size_t D = FirstDef[R]; D != None; D = NextDef[D])
          Work.push_back(D);
    });
  }

  // Compact each block in place, keeping order.
  size_t K = 0;
  for (BlockKind Kind : Kinds) {
    Block &Blk = P.getBlock(Kind);
    size_t Out = 0;
    for (size_t J = 0; J < Blk.size(); ++J, ++K) {
      if (Dead[K])
        continue;
      if (Out != J)
        Blk[Out] = std::move(Blk[J]);
      ++Out;
    }
    Blk.erase(Blk.begin() + static_cast<std::ptrdiff_t>(Out), Blk.end());
  }
  return TotalRemoved;
}
