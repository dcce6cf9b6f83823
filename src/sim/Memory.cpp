//===- sim/Memory.cpp -----------------------------------------------------===//
//
// Part of the simdize project (PLDI 2004 alignment-constrained simdization).
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"

#include "ir/Loop.h"
#include "support/MathExtras.h"
#include "support/RNG.h"

#include <cassert>

using namespace simdize;
using namespace simdize::sim;

MemoryLayout::MemoryLayout(const ir::Loop &L, unsigned VectorLen)
    : VectorLen(VectorLen) {
  // Leave 4V of guard at the front, then place arrays in declaration order,
  // each at the smallest address >= the previous end + 4V that realizes the
  // declared alignment. 4V absorbs the worst-case overreach of epilogue
  // expression evaluation (up to three chunks past a stream's end) and of
  // prologue right-shift evaluation (one chunk before its start).
  int64_t Cursor = 4 * static_cast<int64_t>(VectorLen);
  for (const auto &A : L.getArrays()) {
    // Alignments are declared modulo the widest width the loop may be
    // compiled at; a layout for a narrower V realizes them modulo V (the
    // target's truncation rule — only the position within a register is
    // observable).
    int64_t Align = nonNegMod(A->getAlignment(), VectorLen);
    int64_t Base = alignTo(Cursor, VectorLen) + Align;
    if (Base < Cursor)
      Base += VectorLen;
    assert(nonNegMod(Base, VectorLen) == Align &&
           "layout failed to realize the declared alignment");
    BaseAddr[A.get()] = Base;
    Order.push_back(A.get());
    Cursor = Base + A->getSizeInBytes() + 4 * static_cast<int64_t>(VectorLen);
  }
  TotalSize = alignTo(Cursor + 4 * static_cast<int64_t>(VectorLen), VectorLen);
}

int64_t MemoryLayout::baseOf(const ir::Array *A) const {
  auto It = BaseAddr.find(A);
  assert(It != BaseAddr.end() && "array not placed by this layout");
  return It->second;
}

bool MemoryLayout::covers(const ir::Loop &L) const {
  const auto &Arrays = L.getArrays();
  if (Arrays.size() != Order.size())
    return false;
  for (size_t K = 0; K < Order.size(); ++K)
    if (Arrays[K].get() != Order[K])
      return false;
  return true;
}

int64_t Memory::readElem(int64_t Addr, unsigned ElemSize) const {
  assert(Addr >= 0 &&
         static_cast<uint64_t>(Addr) + ElemSize <= Bytes.size() &&
         "read out of bounds");
  uint64_t V = 0;
  for (unsigned K = 0; K < ElemSize; ++K)
    V |= static_cast<uint64_t>(Bytes[static_cast<size_t>(Addr) + K]) << (8 * K);
  // Sign-extend from ElemSize * 8 bits.
  unsigned Shift = 64 - 8 * ElemSize;
  return static_cast<int64_t>(V << Shift) >> Shift;
}

void Memory::writeElem(int64_t Addr, unsigned ElemSize, int64_t Value) {
  assert(Addr >= 0 &&
         static_cast<uint64_t>(Addr) + ElemSize <= Bytes.size() &&
         "write out of bounds");
  for (unsigned K = 0; K < ElemSize; ++K)
    Bytes[static_cast<size_t>(Addr) + K] =
        static_cast<uint8_t>(static_cast<uint64_t>(Value) >> (8 * K));
}

void Memory::fillPattern(uint64_t Seed) {
  RNG Rng(Seed);
  for (auto &B : Bytes)
    B = static_cast<uint8_t>(Rng.next());
}
