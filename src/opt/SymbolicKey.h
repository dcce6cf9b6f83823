//===- opt/SymbolicKey.h - Value numbers of steady-state registers -------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assigns each vector register defined in the steady-state body a value
/// number, parameterized by the loop counter. Numbers are hash-consed: each
/// value is an exact tuple (a tag, its operator, array, chunk or offset,
/// scalar operand, and the numbers of its vector operands), and two values
/// share a number exactly when their tuples are equal. Two registers with
/// equal numbers hold equal values in the same iteration (CSE); a register
/// whose number at counter i+B equals another's at i holds, one iteration
/// later, the value the other holds now (predictive commoning).
///
/// With memory normalization enabled, a load of a statically aligned array
/// is numbered by the V-byte chunk the truncating load actually reads
/// instead of by its element offset, so a[i] and a[i+1] unify whenever they
/// fall into the same chunk. Chunk and offset tuples carry distinct tags.
///
/// Numbers are dense from 1, so the passes index plain vectors by them.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_OPT_SYMBOLICKEY_H
#define SIMDIZE_OPT_SYMBOLICKEY_H

#include "vir/VProgram.h"

#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace simdize {
namespace opt {

/// Interned value number of a steady-state register; 0 means not keyable.
using ValueNum = uint32_t;

/// Value numbering over one program's steady-state body.
class BodyKeys {
public:
  /// \param MemNorm enables chunk-based load numbers for statically aligned
  /// arrays.
  BodyKeys(const vir::VProgram &P, bool MemNorm);

  /// Value number of vector register \p R with the loop counter advanced
  /// by \p DeltaElems elements. Returns 0 when the value cannot be keyed:
  /// the register is written more than once in the body (a loop-carried
  /// copy target), also written outside it, or by a predicated or impure
  /// path.
  ///
  /// Registers defined only outside the body are loop invariants and get
  /// one number independent of the delta.
  ValueNum keyOfVReg(vir::VRegId R, int64_t DeltaElems);

  /// Index into the body of the pure instruction defining \p R, or -1 when
  /// \p R is not (uniquely) defined in the body.
  int defIndexOf(vir::VRegId R) const;

private:
  /// What a value number's tuple describes.
  enum class Tag : uint8_t {
    Ext,        ///< Loop invariant from Setup; Val is the register.
    LoadChunk,  ///< MemNorm load; Val is the chunk index.
    LoadOffset, ///< Load; Val is the element offset.
    SplatReg,   ///< Splat of a scalar register; Val is the register.
    SplatImm,   ///< Splat of an immediate; Val is the immediate.
    BinOp,      ///< Op is the ir::BinOpKind.
    Cmp,        ///< Op is the SCmpKind.
    Select,
    ShiftPair,  ///< Val is the shift amount, register when SOpIsReg.
    Splice,     ///< Val is the splice point, register when SOpIsReg.
  };

  /// One hash-consed value: compared field by field.
  struct Node {
    Tag T = Tag::Ext;
    bool SOpIsReg = false;
    int Op = 0;
    const void *Arr = nullptr;
    int64_t Val = 0;
    ValueNum Ops[3] = {0, 0, 0};

    bool operator==(const Node &O) const;
    uint64_t hash() const;
  };

  ValueNum intern(const Node &N);
  ValueNum keyOfInst(const vir::VInst &I, int64_t DeltaElems);
  ValueNum keyOfLoad(const vir::Address &A, int64_t DeltaElems);
  ValueNum keyOfOperands(Node N, std::initializer_list<vir::VRegId> Srcs,
                         int64_t DeltaElems);

  const vir::VProgram &P;
  bool MemNorm;
  /// Body def index per vector register; -1 undefined here, -2 multiple.
  std::vector<int> DefIndex;
  /// Nodes[N - 1] is the tuple numbered N.
  std::vector<Node> Nodes;
  /// Open-addressed intern table of value numbers; 0 marks a free slot.
  std::vector<ValueNum> Slots;
  /// Per delta, the number of each register, or ~0 before it is asked.
  std::vector<std::pair<int64_t, std::vector<ValueNum>>> Memo;
};

} // namespace opt
} // namespace simdize

#endif // SIMDIZE_OPT_SYMBOLICKEY_H
