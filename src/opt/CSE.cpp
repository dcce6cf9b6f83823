//===- opt/CSE.cpp --------------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/CSE.h"

#include "opt/SymbolicKey.h"

#include <vector>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

unsigned opt::runCSE(VProgram &P, bool MemNorm) {
  BodyKeys Keys(P, MemNorm);
  Block &Body = P.getBody();

  // First register holding each value number, and the leader each
  // dropped register's uses are routed to (invalid when kept).
  std::vector<VRegId> Leader;
  std::vector<VRegId> Rename(P.getNumVRegs());
  Block NewBody;
  NewBody.reserve(Body.size());
  unsigned Removed = 0;

  auto Renamed = [&Rename](VRegId R) {
    return Rename[R.Id].isValid() ? Rename[R.Id] : R;
  };

  for (const VInst &I : Body) {
    VInst Copy = I;
    // Apply pending renames to the uses first.
    switch (Copy.Op) {
    case VOpcode::VStore:
    case VOpcode::VCopy:
      Copy.VSrc1 = Renamed(Copy.VSrc1);
      break;
    case VOpcode::VBinOp:
    case VOpcode::VCmp:
    case VOpcode::VShiftPair:
    case VOpcode::VSplice:
      Copy.VSrc1 = Renamed(Copy.VSrc1);
      Copy.VSrc2 = Renamed(Copy.VSrc2);
      break;
    case VOpcode::VSelect:
      Copy.VSrc1 = Renamed(Copy.VSrc1);
      Copy.VSrc2 = Renamed(Copy.VSrc2);
      Copy.VSrc3 = Renamed(Copy.VSrc3);
      break;
    default:
      break;
    }

    // Copies are the loop-carry mechanism, never redundant computation;
    // the unroll pass is responsible for removing them.
    if (Copy.isPure() && Copy.definesVector() && Copy.Op != VOpcode::VCopy) {
      if (ValueNum Key = Keys.keyOfVReg(I.VDst, 0)) {
        if (Key >= Leader.size())
          Leader.resize(Key + 1);
        if (Leader[Key].isValid()) {
          // Redundant: route uses to the leader and drop the instruction.
          Rename[I.VDst.Id] = Leader[Key];
          ++Removed;
          continue;
        }
        Leader[Key] = I.VDst;
      }
    }
    NewBody.push_back(std::move(Copy));
  }

  Body = std::move(NewBody);
  return Removed;
}
