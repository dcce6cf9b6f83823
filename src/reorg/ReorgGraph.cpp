//===- reorg/ReorgGraph.cpp -----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "reorg/ReorgGraph.h"

#include "ir/Stmt.h"
#include "obs/Trace.h"
#include "support/Debug.h"
#include "support/Format.h"
#include "support/MathExtras.h"

using namespace simdize;
using namespace simdize::reorg;

StreamOffset Graph::storeOffset() const {
  // A reduction's root feeds a vector accumulator register, not a memory
  // stream; the accumulator's lanes are indexed from 0.
  if (Kind == ir::StmtKind::Reduce)
    return StreamOffset::constant(0);
  return offsetOfAccess(Root->Arr, Root->ElemOffset, VectorLen);
}

StreamOffset reorg::offsetOfAccess(const ir::Array *A, int64_t ElemOffset,
                                   unsigned V) {
  if (A->isAlignmentKnown())
    return StreamOffset::constant(nonNegMod(
        A->getAlignment() + ElemOffset * static_cast<int64_t>(A->getElemSize()),
        V));
  return StreamOffset::runtime(A, ElemOffset);
}

static std::unique_ptr<Node> buildExpr(const ir::Expr &E) {
  switch (E.getKind()) {
  case ir::ExprKind::ArrayRef: {
    const auto &Ref = ir::cast<ir::ArrayRefExpr>(E);
    auto N = std::make_unique<Node>(NodeKind::Load);
    N->Arr = Ref.getArray();
    N->ElemOffset = Ref.getOffset();
    return N;
  }
  case ir::ExprKind::Splat: {
    auto N = std::make_unique<Node>(NodeKind::Splat);
    N->SplatValue = ir::cast<ir::SplatExpr>(E).getValue();
    return N;
  }
  case ir::ExprKind::Param: {
    auto N = std::make_unique<Node>(NodeKind::Splat);
    N->ParamRef = ir::cast<ir::ParamExpr>(E).getParam();
    return N;
  }
  case ir::ExprKind::BinOp: {
    const auto &BO = ir::cast<ir::BinOpExpr>(E);
    auto N = std::make_unique<Node>(NodeKind::Op);
    N->OpKind = BO.getOp();
    N->Children.push_back(buildExpr(BO.getLHS()));
    N->Children.push_back(buildExpr(BO.getRHS()));
    return N;
  }
  }
  simdize_unreachable("unknown expression kind");
}

Graph reorg::buildGraph(const ir::Stmt &S, unsigned V) {
  Graph G;
  G.VectorLen = V;
  G.ElemSize = S.getStoreArray()->getElemSize();
  G.Kind = S.getKind();
  if (S.isReduce())
    G.ReduceOp = S.getReduceOp();
  G.Root = std::make_unique<Node>(NodeKind::Store);
  G.Root->Arr = S.getStoreArray();
  G.Root->ElemOffset = S.getStoreOffset();
  switch (S.getKind()) {
  case ir::StmtKind::Assign:
  case ir::StmtKind::Reduce:
    // A reduction's tree is just its RHS; the accumulate and the final
    // read-modify-write of the accumulator cell are emitted around the
    // graph by codegen, not represented in it.
    G.Root->Children.push_back(buildExpr(S.getRHS()));
    break;
  case ir::StmtKind::If: {
    // If-conversion at graph-construction time: blend the new value with
    // the target's old value under the guard mask, then store every lane.
    //   Store <- Blend(Cmp(GuardLHS, GuardRHS), RHS, OldLoad)
    auto Mask = std::make_unique<Node>(NodeKind::Op);
    Mask->Class = OpClass::Cmp;
    Mask->CmpOp = S.getCmpKind();
    Mask->Children.push_back(buildExpr(S.getGuardLHS()));
    Mask->Children.push_back(buildExpr(S.getGuardRHS()));

    auto OldLoad = std::make_unique<Node>(NodeKind::Load);
    OldLoad->Arr = S.getStoreArray();
    OldLoad->ElemOffset = S.getStoreOffset();

    auto Blend = std::make_unique<Node>(NodeKind::Op);
    Blend->Class = OpClass::Blend;
    Blend->Children.push_back(std::move(Mask));
    Blend->Children.push_back(buildExpr(S.getRHS()));
    Blend->Children.push_back(std::move(OldLoad));
    G.Root->Children.push_back(std::move(Blend));
    break;
  }
  }
  return G;
}

static void computeOffsetsRec(Node &N, unsigned V) {
  for (auto &C : N.Children)
    computeOffsetsRec(*C, V);

  switch (N.getKind()) {
  case NodeKind::Load:
    N.Offset = offsetOfAccess(N.Arr, N.ElemOffset, V);
    break;
  case NodeKind::Splat:
    N.Offset = StreamOffset::undef();
    break;
  case NodeKind::ShiftStream:
    N.Offset = N.TargetOffset; // Eq. 5.
    break;
  case NodeKind::Op: {
    // Eq. 4: the uniform offset of the inputs; pick the first defined one
    // (verifyGraph checks that they all agree).
    N.Offset = StreamOffset::undef();
    for (const auto &C : N.Children)
      if (C->Offset.isDefined()) {
        N.Offset = C->Offset;
        break;
      }
    break;
  }
  case NodeKind::Store:
    // Stores produce no register stream; record the source's offset so the
    // printer can show it.
    N.Offset = N.child(0).Offset;
    break;
  }
}

void reorg::computeStreamOffsets(Graph &G) {
  obs::Span Sp("stream-offsets");
  computeOffsetsRec(G.root(), G.VectorLen);
}

static std::optional<std::string> verifyRec(const Node &N, unsigned V,
                                            unsigned D) {
  for (const auto &C : N.Children)
    if (auto Err = verifyRec(*C, V, D))
      return Err;

  if (N.getKind() == NodeKind::Op) {
    // C.3: all defined input offsets must be provably equal.
    const StreamOffset *First = nullptr;
    for (const auto &C : N.Children) {
      if (!C->Offset.isDefined())
        continue;
      if (!First) {
        First = &C->Offset;
        continue;
      }
      if (!StreamOffset::provablyEqual(*First, C->Offset, V))
        return strf("C.3 violated: vop inputs have offsets %s and %s",
                    First->str().c_str(), C->Offset.str().c_str());
    }
    // Lane rule: element-wise arithmetic needs its data on lane
    // boundaries. Constant offsets must be multiples of D; runtime offsets
    // are unverifiable here and must have been realigned (the zero-shift
    // patterns always realign them to 0).
    if (First && First->isRuntime())
      return std::string(
          "vop input has a runtime offset; realign it before computing");
    if (First && First->isConstant() &&
        First->getConstant() % static_cast<int64_t>(D) != 0)
      return strf("vop input offset %s is not a lane multiple",
                  First->str().c_str());
  }

  if (N.getKind() == NodeKind::ShiftStream) {
    if (N.Children.size() != 1)
      return std::string("vshiftstream must have exactly one input");
    if (!N.TargetOffset.isDefined())
      return std::string("vshiftstream target offset is undefined");
  }
  return std::nullopt;
}

std::optional<std::string> reorg::verifyGraph(const Graph &G) {
  const Node &Root = G.root();
  if (Root.getKind() != NodeKind::Store || Root.Children.size() != 1)
    return std::string("graph root must be a store with one input");

  if (auto Err = verifyRec(Root, G.VectorLen, G.ElemSize))
    return Err;

  // C.2: the stored stream's offset must match the store alignment.
  const StreamOffset &Src = Root.child(0).Offset;
  StreamOffset StoreOff = G.storeOffset();
  if (Src.isDefined() &&
      !StreamOffset::provablyEqual(Src, StoreOff, G.VectorLen))
    return strf("C.2 violated: stored stream has offset %s, store needs %s",
                Src.str().c_str(), StoreOff.str().c_str());
  return std::nullopt;
}

static void printRec(const Node &N, unsigned Depth, std::string &Out) {
  Out.append(2 * Depth, ' ');
  switch (N.getKind()) {
  case NodeKind::Load:
    Out += strf("vload %s[i%+lld]", N.Arr->getName().c_str(),
                static_cast<long long>(N.ElemOffset));
    break;
  case NodeKind::Splat:
    if (N.ParamRef)
      Out += strf("vsplat %s", N.ParamRef->getName().c_str());
    else
      Out += strf("vsplat %lld", static_cast<long long>(N.SplatValue));
    break;
  case NodeKind::Op:
    if (N.Class == OpClass::Cmp)
      Out += strf("vcmp %s", ir::cmpSpelling(N.CmpOp));
    else if (N.Class == OpClass::Blend)
      Out += "vblend";
    else
      Out += strf("vop %s", ir::binOpSpelling(N.OpKind));
    break;
  case NodeKind::ShiftStream:
    Out += strf("vshiftstream -> %s", N.TargetOffset.str().c_str());
    break;
  case NodeKind::Store:
    Out += strf("vstore %s[i%+lld]", N.Arr->getName().c_str(),
                static_cast<long long>(N.ElemOffset));
    break;
  }
  Out += strf("  @offset %s\n", N.Offset.str().c_str());
  for (const auto &C : N.Children)
    printRec(*C, Depth + 1, Out);
}

std::string reorg::printGraph(const Graph &G) {
  std::string Out;
  printRec(G.root(), 0, Out);
  return Out;
}

/// Emits \p N as DOT node \p Id and connects it to its children, numbering
/// nodes in DFS preorder so output is deterministic.
static unsigned dotRec(const Node &N, unsigned Id, std::string &Out) {
  std::string Label;
  const char *Shape = "box";
  const char *Style = "";
  switch (N.getKind()) {
  case NodeKind::Load:
    Label = strf("vload %s[i%+lld]", N.Arr->getName().c_str(),
                 static_cast<long long>(N.ElemOffset));
    Shape = "ellipse";
    break;
  case NodeKind::Splat:
    if (N.ParamRef)
      Label = strf("vsplat %s", N.ParamRef->getName().c_str());
    else
      Label = strf("vsplat %lld", static_cast<long long>(N.SplatValue));
    Shape = "ellipse";
    break;
  case NodeKind::Op:
    if (N.Class == OpClass::Cmp)
      Label = strf("vcmp %s", ir::cmpSpelling(N.CmpOp));
    else if (N.Class == OpClass::Blend)
      Label = "vblend";
    else
      Label = strf("vop %s", ir::binOpSpelling(N.OpKind));
    break;
  case NodeKind::ShiftStream:
    Label = strf("vshiftstream -> %s", N.TargetOffset.str().c_str());
    Style = ", style=filled, fillcolor=lightsalmon";
    break;
  case NodeKind::Store:
    Label = strf("vstore %s[i%+lld]", N.Arr->getName().c_str(),
                 static_cast<long long>(N.ElemOffset));
    Style = ", style=filled, fillcolor=lightblue";
    break;
  }
  Out += strf("  n%u [shape=%s%s, label=\"%s\\n@%s\"];\n", Id, Shape, Style,
              Label.c_str(), N.Offset.str().c_str());
  unsigned Next = Id + 1;
  for (const auto &C : N.Children) {
    Out += strf("  n%u -> n%u;\n", Id, Next);
    Next = dotRec(*C, Next, Out);
  }
  return Next;
}

std::string reorg::printGraphDot(const Graph &G, const std::string &Name) {
  std::string Out = strf("digraph \"%s\" {\n", Name.c_str());
  Out += "  rankdir=TB;\n";
  dotRec(G.root(), 0, Out);
  Out += "}\n";
  return Out;
}

static unsigned countRec(const Node &N) {
  unsigned Count = N.getKind() == NodeKind::ShiftStream ? 1 : 0;
  for (const auto &C : N.Children)
    Count += countRec(*C);
  return Count;
}

unsigned reorg::countShifts(const Graph &G) { return countRec(G.root()); }

static unsigned countSteadyRec(const Node &N, bool SP, unsigned Mult) {
  bool IsShift = N.getKind() == NodeKind::ShiftStream;
  unsigned Count = IsShift ? Mult : 0;
  // The standard scheme evaluates a shift's operand subtree at two
  // iteration counts; SP evaluates it once and carries the other value.
  unsigned ChildMult = IsShift && !SP ? 2 * Mult : Mult;
  for (const auto &C : N.Children)
    Count += countSteadyRec(*C, SP, ChildMult);
  return Count;
}

unsigned reorg::countSteadyShifts(const Graph &G, bool SoftwarePipelining) {
  return countSteadyRec(G.root(), SoftwarePipelining, 1);
}

void reorg::wrapWithShift(std::unique_ptr<Node> &ChildSlot, StreamOffset To) {
  auto Shift = std::make_unique<Node>(NodeKind::ShiftStream);
  Shift->TargetOffset = To;
  Shift->Children.push_back(std::move(ChildSlot));
  ChildSlot = std::move(Shift);
}
