//===- sim/Memory.h - Simulated byte-addressable memory ------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulated machine's memory, plus the layout policy that places each
/// array at a base address realizing exactly the alignment its ir::Array
/// declares (base mod V == alignment). Arrays are separated by guard gaps
/// of at least 2V bytes so that the truncating vector loads and the
/// splice-back partial stores of the prologue/epilogue can never touch a
/// neighboring array — mirroring the padding a real runtime would ensure.
///
//===----------------------------------------------------------------------===//

#ifndef SIMDIZE_SIM_MEMORY_H
#define SIMDIZE_SIM_MEMORY_H

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace simdize {

namespace ir {
class Array;
class Loop;
} // namespace ir

namespace sim {

/// Assigns a base byte address to every array of a loop.
class MemoryLayout {
public:
  /// Places the arrays of \p L for vector length \p VectorLen.
  MemoryLayout(const ir::Loop &L, unsigned VectorLen);

  /// Base byte address of \p A. The array must belong to the loop this
  /// layout was built from.
  int64_t baseOf(const ir::Array *A) const;

  /// Whether this layout was built from this exact loop instance, not
  /// merely from an identically-printed one: \p L must declare exactly
  /// the placed arrays, in placement order. Set membership alone is not
  /// enough — once a loop is freed, a reparse of the same text can get
  /// the same array addresses back in another order, and the bases would
  /// then be permuted. Content-addressed caches use this to decide when a
  /// shared image must be rebound before use.
  bool covers(const ir::Loop &L) const;

  /// Total bytes of memory required, including guard gaps.
  int64_t getTotalSize() const { return TotalSize; }

  unsigned getVectorLen() const { return VectorLen; }

private:
  std::unordered_map<const ir::Array *, int64_t> BaseAddr;
  /// The placed arrays in declaration order.
  std::vector<const ir::Array *> Order;
  int64_t TotalSize = 0;
  unsigned VectorLen;
};

/// A flat byte-addressable memory image.
class Memory {
public:
  explicit Memory(int64_t Size) : Bytes(static_cast<size_t>(Size), 0) {}

  int64_t size() const { return static_cast<int64_t>(Bytes.size()); }

  uint8_t *data() { return Bytes.data(); }
  const uint8_t *data() const { return Bytes.data(); }

  /// Reads a signed element of \p ElemSize bytes at byte address \p Addr
  /// (little-endian), sign-extended to 64 bits.
  int64_t readElem(int64_t Addr, unsigned ElemSize) const;

  /// Writes the low \p ElemSize bytes of \p Value at byte address \p Addr.
  void writeElem(int64_t Addr, unsigned ElemSize, int64_t Value);

  /// Fills the image with a deterministic pseudo-random pattern seeded by
  /// \p Seed; used so the scalar and vector executions start from identical,
  /// non-trivial contents.
  void fillPattern(uint64_t Seed);

  bool operator==(const Memory &O) const { return Bytes == O.Bytes; }

private:
  std::vector<uint8_t> Bytes;
};

} // namespace sim
} // namespace simdize

#endif // SIMDIZE_SIM_MEMORY_H
