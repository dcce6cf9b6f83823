//===- opt/OffsetReassoc.cpp ----------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "opt/OffsetReassoc.h"

#include "ir/IRPrinter.h"
#include "ir/Loop.h"
#include "reorg/StreamOffset.h"
#include "support/Format.h"
#include "support/MathExtras.h"

#include <algorithm>
#include <map>
#include <vector>

using namespace simdize;
using namespace simdize::opt;

namespace {

/// Offset-class key of a subtree: operands in the same class are provably
/// relatively aligned. "u" is the wildcard splat class; "m:<text>" marks a
/// mixed subtree that only groups with itself structurally (never merged).
/// A runtime-aligned array is named by its position among \p L's arrays,
/// so the order of the groups never depends on where arrays sit in memory.
std::string classOf(const ir::Expr &E, const ir::Loop &L, unsigned V) {
  switch (E.getKind()) {
  case ir::ExprKind::Splat:
  case ir::ExprKind::Param:
    return "u";
  case ir::ExprKind::ArrayRef: {
    const auto &Ref = ir::cast<ir::ArrayRefExpr>(E);
    const ir::Array *A = Ref.getArray();
    int64_t Scaled =
        nonNegMod(Ref.getOffset() * static_cast<int64_t>(A->getElemSize()),
                  V);
    if (A->isAlignmentKnown())
      return strf("c%lld",
                  static_cast<long long>(
                      nonNegMod(A->getAlignment() +
                                    Ref.getOffset() *
                                        static_cast<int64_t>(A->getElemSize()),
                                V)));
    const auto &Arrays = L.getArrays();
    auto Pos = std::find_if(Arrays.begin(), Arrays.end(),
                            [A](const auto &Decl) { return Decl.get() == A; });
    return strf("r%lld/%lld", static_cast<long long>(Pos - Arrays.begin()),
                static_cast<long long>(Scaled));
  }
  case ir::ExprKind::BinOp: {
    const auto &BO = ir::cast<ir::BinOpExpr>(E);
    std::string Lhs = classOf(BO.getLHS(), L, V);
    std::string Rhs = classOf(BO.getRHS(), L, V);
    if (Lhs == "u")
      return Rhs;
    if (Rhs == "u" || Lhs == Rhs)
      return Lhs;
    return "m:" + Lhs + "|" + Rhs;
  }
  }
  return "m:?";
}

std::unique_ptr<ir::Expr> transform(std::unique_ptr<ir::Expr> E,
                                    const ir::Loop &L, unsigned V);

/// Flattens a maximal same-operator associative-commutative chain,
/// transforming each operand recursively.
void flattenChain(std::unique_ptr<ir::Expr> E, ir::BinOpKind Kind,
                  std::vector<std::unique_ptr<ir::Expr>> &Operands,
                  const ir::Loop &L, unsigned V) {
  if (auto *BO = ir::dyn_cast<ir::BinOpExpr>(*E); BO && BO->getOp() == Kind) {
    flattenChain(BO->takeLHS(), Kind, Operands, L, V);
    flattenChain(BO->takeRHS(), Kind, Operands, L, V);
    return;
  }
  Operands.push_back(transform(std::move(E), L, V));
}

std::unique_ptr<ir::Expr> transform(std::unique_ptr<ir::Expr> E,
                                    const ir::Loop &L, unsigned V) {
  auto *BO = ir::dyn_cast<ir::BinOpExpr>(*E);
  if (!BO)
    return E;
  if (!ir::isAssociativeCommutative(BO->getOp())) {
    BO->setLHS(transform(BO->takeLHS(), L, V));
    BO->setRHS(transform(BO->takeRHS(), L, V));
    return E;
  }

  ir::BinOpKind Kind = BO->getOp();
  std::vector<std::unique_ptr<ir::Expr>> Operands;
  flattenChain(std::move(E), Kind, Operands, L, V);

  // Group by offset class, preserving in-class order; the splat wildcard
  // class "u" joins the first group. std::map keeps group order
  // deterministic.
  std::map<std::string, std::vector<std::unique_ptr<ir::Expr>>> Groups;
  for (auto &Op : Operands) {
    std::string Class = classOf(*Op, L, V);
    Groups[Class].push_back(std::move(Op));
  }
  if (auto It = Groups.find("u");
      It != Groups.end() && Groups.size() > 1) {
    auto Splats = std::move(It->second);
    Groups.erase(It);
    auto &First = Groups.begin()->second;
    for (auto &S : Splats)
      First.push_back(std::move(S));
  }

  // Left-leaning recombination: within each group first, then across
  // groups, so every intermediate vop sees relatively aligned inputs for
  // as long as possible.
  std::unique_ptr<ir::Expr> Result;
  for (auto &[Class, Members] : Groups) {
    std::unique_ptr<ir::Expr> GroupValue;
    for (auto &M : Members) {
      GroupValue = GroupValue ? std::make_unique<ir::BinOpExpr>(
                                    Kind, std::move(GroupValue), std::move(M))
                              : std::move(M);
    }
    Result = Result ? std::make_unique<ir::BinOpExpr>(Kind, std::move(Result),
                                                      std::move(GroupValue))
                    : std::move(GroupValue);
  }
  return Result;
}

} // namespace

unsigned opt::runOffsetReassociation(ir::Loop &L, unsigned VectorLen) {
  unsigned Changed = 0;
  for (auto &S : L.getStmts()) {
    std::string Before = ir::printExpr(S->getRHS());
    S->setRHS(transform(S->takeRHS(), L, VectorLen));
    if (ir::printExpr(S->getRHS()) != Before)
      ++Changed;
  }
  return Changed;
}
