//===- opt/PredictiveCommoning.h - Cross-iteration reuse as a post-pass ---===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Predictive Commoning [O'Brien 1990], the TPO optimization the paper
/// leans on as the alternative to software-pipelined code generation: a
/// value computed in the steady body that equals another body value of the
/// *previous* iteration (its value number at counter i+B matches the
/// other's at i) is not recomputed; it is carried across the back edge in
/// a register, initialized once before the loop. Applied to the Figure 7
/// lowering this removes the recomputation of vector loads and whole
/// realignment subtrees, recovering the never-load-twice property without
/// regenerating code.
///
/// Loop-invariant body values (value number independent of the counter)
/// are hoisted to Setup outright.
///
/// The introduced copies are subsequently eliminated by
/// runUnrollRemoveCopies, exactly like the software pipeline's.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OPT_PREDICTIVECOMMONING_H
#define SIMDIZE_OPT_PREDICTIVECOMMONING_H

namespace simdize {
namespace vir {
class VProgram;
} // namespace vir

namespace opt {

/// Runs predictive commoning over \p P's body. Requires an SSA-shaped body
/// (no loop-carried copies yet — run before, not after, software-pipelined
/// carries exist; the pass skips multiply-defined registers). \returns the
/// number of instructions replaced by carried registers.
unsigned runPredictiveCommoning(vir::VProgram &P, bool MemNorm);

} // namespace opt
} // namespace simdize

#endif // SIMDIZE_OPT_PREDICTIVECOMMONING_H
