//===- reorg/ReorgGraph.h - The data reorganization graph ----------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central abstraction (Section 3.3): an expression tree whose
/// nodes carry stream offsets, augmented with vshiftstream nodes that
/// retarget a register stream to a different offset. A graph is built
/// "as if for a machine with no alignment constraints" from one statement;
/// a shift placement policy then inserts vshiftstream nodes until the
/// validity constraints hold:
///
///   (C.2)  the store's source stream offset equals the store alignment;
///   (C.3)  all inputs of a vop have provably equal stream offsets
///          (⊥, the vsplat offset, matches anything).
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_REORG_REORGGRAPH_H
#define SIMDIZE_REORG_REORGGRAPH_H

#include "ir/Stmt.h"
#include "reorg/StreamOffset.h"
#include "simdize/Target.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace simdize {

namespace ir {
class Stmt;
} // namespace ir

namespace reorg {

/// Discriminator for graph nodes.
enum class NodeKind {
  Load,        ///< vload of a stride-one reference (leaf)
  Splat,       ///< replicated loop invariant (leaf)
  Op,          ///< element-wise vector operation
  ShiftStream, ///< stream offset retargeting (inserted by a policy)
  Store,       ///< vstore of the root value (root, exactly one per graph)
};

/// Refines NodeKind::Op. All three classes are element-wise vector
/// computations with identical stream-offset behavior, so the placement
/// policies treat them uniformly; only codegen dispatches on the class.
enum class OpClass {
  Arith, ///< binary arithmetic (OpKind applies)
  Cmp,   ///< per-lane comparison producing an all-ones/all-zeros mask
  Blend, ///< per-lane select: children [Mask, IfSet, IfClear]
};

/// One node of a data reorganization graph. Plain aggregate navigated by
/// kind; builders and policies are the only mutators.
class Node {
public:
  Node(NodeKind Kind) : Kind(Kind) {}
  Node(const Node &) = delete;
  Node &operator=(const Node &) = delete;

  NodeKind getKind() const { return Kind; }

  /// \name Load / Store fields
  /// @{
  const ir::Array *Arr = nullptr; ///< Accessed array.
  int64_t ElemOffset = 0;         ///< The c of A[i+c].
  /// @}

  /// \name Op fields
  /// @{
  OpClass Class = OpClass::Arith;
  ir::BinOpKind OpKind = ir::BinOpKind::Add; ///< Arith only.
  ir::CmpKind CmpOp = ir::CmpKind::LT;       ///< Cmp only.
  /// @}

  /// \name Splat fields (ParamRef set for runtime invariants, otherwise
  /// the compile-time SplatValue applies)
  /// @{
  int64_t SplatValue = 0;
  const ir::Param *ParamRef = nullptr;
  /// @}

  /// \name ShiftStream fields
  /// @{
  StreamOffset TargetOffset; ///< The offset this shift retargets to.
  /// @}

  /// Stream offset of the value this node produces; set by
  /// computeStreamOffsets.
  StreamOffset Offset;

  std::vector<std::unique_ptr<Node>> Children;

  Node &child(unsigned K) { return *Children[K]; }
  const Node &child(unsigned K) const { return *Children[K]; }

private:
  NodeKind Kind;
};

/// A data reorganization graph for one statement: a Store-rooted tree.
struct Graph {
  std::unique_ptr<Node> Root;   ///< Always a Store node.
  /// V, from the target the statement is being compiled for; buildGraph
  /// stamps it, nothing assumes the default beyond "a valid width".
  unsigned VectorLen = Target().VectorLen;
  unsigned ElemSize = 4;        ///< D; vop inputs need lane-multiple offsets.
  /// Statement kind the graph was built from. If-converted statements
  /// shape the tree (Blend over [mask, value, old]); reductions change
  /// what the root "store" means (a vector accumulator, kept at offset 0).
  ir::StmtKind Kind = ir::StmtKind::Assign;
  /// Reduce only: the accumulation operation.
  ir::BinOpKind ReduceOp = ir::BinOpKind::Add;

  Node &root() { return *Root; }
  const Node &root() const { return *Root; }

  /// The offset the stored stream must have: the store's memory alignment
  /// for assignments, or the fixed offset 0 of the vector accumulator
  /// register for reductions.
  StreamOffset storeOffset() const;
};

/// Stream offset of the memory stream of reference \p A [i + \p ElemOffset],
/// for vector length \p V: the constant (align + c*D) mod V when the
/// array's alignment is statically known, a runtime offset otherwise
/// (Eq. 1).
StreamOffset offsetOfAccess(const ir::Array *A, int64_t ElemOffset,
                            unsigned V);

/// Builds the shift-free graph of \p S, mirroring its expression tree
/// ("first, the loop is simdized as if for a machine with no alignment
/// constraints").
Graph buildGraph(const ir::Stmt &S, unsigned V);

/// Recomputes the Offset field of every node, bottom-up: loads get their
/// access offset, splats ⊥, shifts their target, ops the unique defined
/// offset of their children (any defined child chosen; verifyGraph checks
/// uniqueness).
void computeStreamOffsets(Graph &G);

/// Checks constraints (C.2) and (C.3). Call after a policy has placed
/// shifts and computeStreamOffsets has run.
/// \returns std::nullopt when valid, else a description of the violation.
std::optional<std::string> verifyGraph(const Graph &G);

/// Renders the graph as an indented tree with offsets, for diagnostics and
/// golden tests.
std::string printGraph(const Graph &G);

/// Renders the graph as a Graphviz DOT digraph (`simdize-tool
/// --dump-graph=dot`). Every node shows its kind and stream offset;
/// policy-inserted vshiftstream nodes are drawn filled so placement
/// decisions stand out. \p Name labels the digraph (statement index).
std::string printGraphDot(const Graph &G, const std::string &Name);

/// Counts the ShiftStream nodes in the graph (the quantity the placement
/// policies minimize).
unsigned countShifts(const Graph &G);

/// Counts the vshiftpair instructions one raw steady-state iteration
/// executes for the graph's ShiftStream nodes. Under the standard scheme
/// (Figure 7) a shift's operand subtree is generated twice (once per
/// combined iteration count), so a shift nested under k shift ancestors
/// is emitted 2^k times; under software pipelining (Figure 10) every
/// shift is emitted exactly once, its other operand carried across
/// iterations. The shift-count oracle compares this prediction against
/// the unoptimized program.
unsigned countSteadyShifts(const Graph &G, bool SoftwarePipelining);

/// Wraps \p G.root's descendant \p ChildSlot (a unique_ptr in some node's
/// Children) with a new ShiftStream node targeting \p To. Helper shared by
/// the placement policies.
void wrapWithShift(std::unique_ptr<Node> &ChildSlot, StreamOffset To);

} // namespace reorg
} // namespace simdize

#endif // SIMDIZE_REORG_REORGGRAPH_H
