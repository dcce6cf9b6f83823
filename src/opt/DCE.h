//===- opt/DCE.h - Dead code elimination ----------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Removes pure instructions whose results are never read. Needed after
/// predictive commoning and the copy-removing unroll, which orphan the
/// operand subtrees of replaced instructions; without DCE those would
/// still execute and inflate the measured operation counts.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OPT_DCE_H
#define SIMDIZE_OPT_DCE_H

namespace simdize {
namespace vir {
class VProgram;
} // namespace vir

namespace opt {

/// Removes unused pure definitions across all three blocks, transitively:
/// one use-count worklist pass. \returns the number of instructions
/// removed.
unsigned runDCE(vir::VProgram &P);

} // namespace opt
} // namespace simdize

#endif // SIMDIZE_OPT_DCE_H
