//===- opt/CSE.h - Common subexpression elimination in the steady body ---===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Removes within-iteration redundancy from the steady-state body: two pure
/// vector instructions with the same value number collapse to one. The
/// non-pipelined lowering of vshiftstream recomputes whole subtrees for the
/// "other" iteration (Figure 7); sibling shifts frequently share those
/// subtrees, and this pass merges them. Store-to-load aliasing cannot occur
/// because simdizable loops never load from stored arrays
/// (codegen::checkSimdizable).
///
/// With MemNorm, loads unify by the 16-byte chunk they actually read — the
/// paper's "memory normalization" option, "always beneficial by
/// approximately 0.5%".
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OPT_CSE_H
#define SIMDIZE_OPT_CSE_H

namespace simdize {
namespace vir {
class VProgram;
} // namespace vir

namespace opt {

/// Runs CSE over \p P's body. \returns the number of instructions removed.
unsigned runCSE(vir::VProgram &P, bool MemNorm);

} // namespace opt
} // namespace simdize

#endif // SIMDIZE_OPT_CSE_H
