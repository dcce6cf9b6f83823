//===- policies/ShiftPolicy.h - Shift placement policy interface ---------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four vshiftstream placement policies of Section 3.4. Each policy
/// transforms a shift-free data reorganization graph into a valid one; they
/// differ in how many shifts they insert:
///
///   zero-shift     every misaligned stream realigned to offset 0 — the
///                  only policy applicable to runtime alignments;
///   eager-shift    every load realigned directly to the store alignment;
///   lazy-shift     shifts delayed while inputs stay relatively aligned;
///   dominant-shift streams realigned to the graph's most frequent offset.
///
/// Beyond the paper, optimal-shift (ROADMAP item 4) replaces the greedy
/// rules with a dynamic program over the expression tree that provably
/// minimizes the steady-state vshiftpair count reorg::countSteadyShifts
/// models — including the non-SP 2× re-evaluation of shift operand
/// subtrees, which makes the optimum depend on the reuse scheme.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_POLICIES_SHIFTPOLICY_H
#define SIMDIZE_POLICIES_SHIFTPOLICY_H

#include "reorg/ReorgGraph.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace simdize {

namespace ir {
class Stmt;
} // namespace ir

namespace policies {

/// Identifies a policy; the harness reports results under these names.
enum class PolicyKind {
  Zero,
  Eager,
  Lazy,
  Dominant,
  Optimal, ///< Exact DP placement (beyond the paper).
};

/// Printable policy name ("ZERO", "EAGER", "LAZY", "DOM", "OPT") as used
/// in the paper's figures and tables.
const char *policyName(PolicyKind Kind);

/// The CLI spelling of \p Kind ("zero", "eager", "lazy", "dom",
/// "optimal") — the values simdize-tool and simdize-fuzz accept for
/// --policy=; parsePolicyCliName is the shared inverse, so the two tools
/// cannot diverge on the accepted set.
const char *policyCliName(PolicyKind Kind);

/// Parses a --policy= value; std::nullopt for anything outside the
/// policyCliName set (the pipeline-level "auto" mode is not a PolicyKind
/// and is handled by the callers).
std::optional<PolicyKind> parsePolicyCliName(const std::string &Name);

/// Abstract shift placement policy.
class ShiftPolicy {
public:
  virtual ~ShiftPolicy() = default;

  virtual PolicyKind getKind() const = 0;

  /// Whether the policy can handle runtime alignments. Only zero-shift can:
  /// its shift directions (loads left, stores right) are fixed at compile
  /// time regardless of the actual offsets (Section 4.4).
  virtual bool supportsRuntimeAlignment() const { return false; }

  /// Inserts vshiftstream nodes to make \p G valid, then recomputes stream
  /// offsets. \returns std::nullopt on success, or a reason the policy is
  /// inapplicable (e.g. runtime alignments under eager-shift).
  virtual std::optional<std::string> place(reorg::Graph &G) const = 0;

  const char *name() const { return policyName(getKind()); }
};

/// Predicts, without running a placement, how many vshiftstream nodes
/// placing \p Kind on the shift-free graph of \p S inserts (Section 3.4):
/// zero-shift realigns every misaligned load leaf plus the store; eager
/// every leaf off the store alignment plus a final store shift when the
/// compute target had to fall back to offset 0; lazy/dominant the
/// minimized placement of Figure 6; optimal the DP's chosen plan. For the
/// greedy policies the mirror is an independent count-only walk of the
/// placement rules, so the property-oracle layer can hold each policy to
/// its own contract; for optimal, prediction and placement deliberately
/// share the DP solver (two greedy-equivalent implementations of an exact
/// optimizer cannot be kept tie-break-identical), and the oracle instead
/// cross-checks the optimum against the four greedy policies' counts.
/// \p SoftwarePipelining selects the cost model the optimal DP minimizes
/// (the greedy placements and their counts are SP-independent). The
/// policy must be applicable to \p S (compile-time alignments for all but
/// zero-shift).
unsigned predictShiftCount(PolicyKind Kind, const ir::Stmt &S, unsigned V,
                           bool SoftwarePipelining = false);

/// Overload on a prebuilt shift-free graph of the statement: one
/// runPipeline invocation predicts per statement from the oracle, the
/// decision log, and explainSimdization, and each used to rebuild the
/// graph via reorg::buildGraph; callers on that path build it once and
/// predict from it.
unsigned predictShiftCount(PolicyKind Kind, const reorg::Graph &ShiftFree,
                           bool SoftwarePipelining = false);

/// Predicts the steady-state vshiftpair count (reorg::countSteadyShifts)
/// of placing \p Kind on the prebuilt shift-free graph \p ShiftFree —
/// the quantity the optimal policy minimizes and the auto mode selects
/// on. For the greedy policies this mirrors placement nesting; for
/// optimal it is the DP's minimal cost.
unsigned predictSteadyShiftCount(PolicyKind Kind,
                                 const reorg::Graph &ShiftFree,
                                 bool SoftwarePipelining);

/// Creates the policy implementation for \p Kind. \p SoftwarePipelining
/// parameterizes the optimal policy's cost model (under SP every placed
/// shift executes once per steady iteration; without it a shift nested
/// under k shifts executes 2^k times); the paper's four policies ignore
/// it.
std::unique_ptr<ShiftPolicy> createPolicy(PolicyKind Kind,
                                          bool SoftwarePipelining = false);

/// All policies, in the paper's order, plus the beyond-paper optimal
/// placement last.
std::vector<PolicyKind> allPolicies();

/// The paper's four greedy policies only — the baselines optimal-shift is
/// held to by the shift-count oracle and bench_policies.
std::vector<PolicyKind> paperPolicies();

} // namespace policies
} // namespace simdize

#endif // SIMDIZE_POLICIES_SHIFTPOLICY_H
