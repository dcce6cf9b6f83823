//===- opt/SymbolicKey.cpp ------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/SymbolicKey.h"

#include "ir/Array.h"

#include <bit>

using namespace simdize;
using namespace simdize::opt;
using namespace simdize::vir;

/// Memo entry of a register whose number has not been computed yet.
static constexpr ValueNum Unset = ~ValueNum(0);

BodyKeys::BodyKeys(const VProgram &P, bool MemNorm)
    : P(P), MemNorm(MemNorm), DefIndex(P.getNumVRegs(), -1) {
  const Block &Body = P.getBody();
  for (unsigned K = 0; K < Body.size(); ++K) {
    const VInst &I = Body[K];
    if (!I.definesVector())
      continue;
    int &Slot = DefIndex[I.VDst.Id];
    Slot = Slot == -1 ? static_cast<int>(K) : -2;
  }
  // A register also defined outside the body is loop-carried (a
  // software-pipeline "old" initialized in Setup): its body value differs
  // per iteration in a way no body instruction expresses — not keyable.
  for (BlockKind Kind : {BlockKind::Setup, BlockKind::Epilogue})
    for (const VInst &I : P.getBlock(Kind))
      if (I.definesVector() && DefIndex[I.VDst.Id] != -1)
        DefIndex[I.VDst.Id] = -2;

  // Room for two deltas of every body value plus the invariants at under
  // half load; intern() grows the table past that.
  size_t Expected = 2 * Body.size() + 8;
  Slots.assign(std::bit_ceil(2 * Expected), 0);
  Nodes.reserve(Expected);
}

int BodyKeys::defIndexOf(VRegId R) const {
  int Idx = DefIndex[R.Id];
  return Idx >= 0 ? Idx : -1;
}

bool BodyKeys::Node::operator==(const Node &O) const {
  return T == O.T && SOpIsReg == O.SOpIsReg && Op == O.Op && Arr == O.Arr &&
         Val == O.Val && Ops[0] == O.Ops[0] && Ops[1] == O.Ops[1] &&
         Ops[2] == O.Ops[2];
}

/// One splitmix64 finalizer round.
static uint64_t mix(uint64_t X) {
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

uint64_t BodyKeys::Node::hash() const {
  uint64_t H = static_cast<uint64_t>(T) |
               (static_cast<uint64_t>(SOpIsReg) << 8) |
               (static_cast<uint64_t>(static_cast<uint32_t>(Op)) << 16);
  H = mix(H ^ reinterpret_cast<uintptr_t>(Arr));
  H = mix(H ^ static_cast<uint64_t>(Val));
  H = mix(H ^ (Ops[0] | static_cast<uint64_t>(Ops[1]) << 32));
  return mix(H ^ Ops[2]);
}

ValueNum BodyKeys::intern(const Node &N) {
  if (2 * (Nodes.size() + 1) > Slots.size()) {
    // Keep the load under half: double and reinsert every number.
    std::vector<ValueNum> Grown(2 * Slots.size(), 0);
    size_t Mask = Grown.size() - 1;
    for (ValueNum V = 1; V <= Nodes.size(); ++V) {
      size_t S = Nodes[V - 1].hash() & Mask;
      while (Grown[S] != 0)
        S = (S + 1) & Mask;
      Grown[S] = V;
    }
    Slots = std::move(Grown);
  }
  size_t Mask = Slots.size() - 1;
  for (size_t S = N.hash() & Mask;; S = (S + 1) & Mask) {
    ValueNum V = Slots[S];
    if (V == 0) {
      Nodes.push_back(N);
      return Slots[S] = static_cast<ValueNum>(Nodes.size());
    }
    if (Nodes[V - 1] == N)
      return V;
  }
}

/// Floor division (round toward negative infinity); chunk indices can go
/// negative for prologue-side deltas.
static int64_t floorDiv(int64_t Num, int64_t Den) {
  int64_t Q = Num / Den;
  if ((Num % Den != 0) && ((Num < 0) != (Den < 0)))
    --Q;
  return Q;
}

ValueNum BodyKeys::keyOfLoad(const Address &A, int64_t DeltaElems) {
  // Body addresses are always counter-indexed; constant-index addresses
  // belong to Setup/Epilogue code.
  Node N;
  N.Arr = A.Base;
  int64_t C = A.ElemOffset + DeltaElems;
  if (MemNorm && A.Base->isAlignmentKnown()) {
    // The truncating load reads chunk floor((align + c*D) / V) of the
    // stream at counter multiples of B; number it by that chunk.
    N.T = Tag::LoadChunk;
    N.Val = floorDiv(A.Base->getAlignment() +
                         C * static_cast<int64_t>(A.Base->getElemSize()),
                     P.getVectorLen());
  } else {
    N.T = Tag::LoadOffset;
    N.Val = C;
  }
  return intern(N);
}

ValueNum BodyKeys::keyOfOperands(Node N, std::initializer_list<VRegId> Srcs,
                                 int64_t DeltaElems) {
  unsigned K = 0;
  for (VRegId Src : Srcs) {
    N.Ops[K] = keyOfVReg(Src, DeltaElems);
    if (N.Ops[K++] == 0)
      return 0;
  }
  return intern(N);
}

ValueNum BodyKeys::keyOfVReg(VRegId R, int64_t DeltaElems) {
  int Idx = DefIndex[R.Id];
  if (Idx == -2)
    return 0; // Multiply defined: loop-carried, not keyable.
  if (Idx == -1) {
    Node N; // Loop invariant from Setup.
    N.T = Tag::Ext;
    N.Val = R.Id;
    return intern(N);
  }

  // Only a couple of deltas occur (0 and B), so a linear scan finds the
  // register-indexed memo of this one.
  auto MemoOf = [this](int64_t Delta) -> std::vector<ValueNum> & {
    for (auto &[D, Known] : Memo)
      if (D == Delta)
        return Known;
    return Memo.emplace_back(Delta, std::vector<ValueNum>(DefIndex.size(),
                                                          Unset))
        .second;
  };
  if (ValueNum Known = MemoOf(DeltaElems)[R.Id]; Known != Unset)
    return Known;
  // The recursion may grow Memo, so the slot is looked up again after it.
  ValueNum Key = keyOfInst(P.getBody()[static_cast<size_t>(Idx)],
                           DeltaElems);
  MemoOf(DeltaElems)[R.Id] = Key;
  return Key;
}

ValueNum BodyKeys::keyOfInst(const VInst &I, int64_t DeltaElems) {
  if (I.Predicate)
    return 0; // Conditional values are not keyable.

  Node N;
  switch (I.Op) {
  case VOpcode::VLoad:
    if (!I.Addr.Index)
      return 0;
    // Loads of stored arrays do not bar keying: checkSimdizable admits at
    // most one storing statement per array and no explicit loads of it, so
    // the only aliasing load is an if-converted statement's own old-value
    // reload of the *same* stream — and the stream schedule stores a chunk
    // only at the iteration performing its last load, after that load. Any
    // store between two same-chunk loads therefore targets a strictly
    // earlier chunk and cannot change the loaded value.
    return keyOfLoad(I.Addr, DeltaElems);
  case VOpcode::VSplat:
    if (I.SOp1.IsReg) {
      N.T = Tag::SplatReg;
      N.Val = I.SOp1.Reg.Id;
    } else {
      N.T = Tag::SplatImm;
      N.Val = I.SOp1.Imm;
    }
    return intern(N);
  case VOpcode::VBinOp:
    N.T = Tag::BinOp;
    N.Op = static_cast<int>(I.VectorOp);
    return keyOfOperands(N, {I.VSrc1, I.VSrc2}, DeltaElems);
  case VOpcode::VCmp:
    N.T = Tag::Cmp;
    N.Op = static_cast<int>(I.CmpOp);
    return keyOfOperands(N, {I.VSrc1, I.VSrc2}, DeltaElems);
  case VOpcode::VSelect:
    N.T = Tag::Select;
    return keyOfOperands(N, {I.VSrc1, I.VSrc2, I.VSrc3}, DeltaElems);
  case VOpcode::VShiftPair:
  case VOpcode::VSplice:
    N.T = I.Op == VOpcode::VShiftPair ? Tag::ShiftPair : Tag::Splice;
    N.SOpIsReg = I.SOp1.IsReg;
    N.Val = I.SOp1.IsReg ? static_cast<int64_t>(I.SOp1.Reg.Id) : I.SOp1.Imm;
    return keyOfOperands(N, {I.VSrc1, I.VSrc2}, DeltaElems);
  case VOpcode::VCopy:
    // A copy's value is its source's — but copies mark loop-carried
    // rotation; their dsts are multiply-defined and already filtered.
    return keyOfVReg(I.VSrc1, DeltaElems);
  default:
    return 0;
  }
}
