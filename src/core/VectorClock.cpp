//===- core/VectorClock.cpp -----------------------------------------------==//

#include "core/VectorClock.h"

#include "core/ClockKernels.h"

#include <algorithm>
#include <cstring>

using namespace pacer;

void VectorClock::grow(uint32_t MinCapacity) {
  uint32_t NewCapacity = std::max(MinCapacity, Capacity * 2);
  auto *NewData = new uint32_t[NewCapacity];
  kernels::copyWords(NewData, Data, Count);
  deallocate();
  Data = NewData;
  Capacity = NewCapacity;
}

void VectorClock::extendTo(uint32_t NewCount) {
  if (NewCount > Capacity)
    grow(NewCount);
  std::memset(Data + Count, 0, (NewCount - Count) * sizeof(uint32_t));
  Count = NewCount;
}

void VectorClock::assign(const VectorClock &Other) {
  if (Other.Count > Capacity)
    grow(Other.Count);
  kernels::copyWords(Data, Other.Data, Other.Count);
  Count = Other.Count;
}

void VectorClock::moveFrom(VectorClock &Other) noexcept {
  if (Other.isInline()) {
    Data = Inline;
    Capacity = InlineCapacity;
    kernels::copyWords(Inline, Other.Inline, Other.Count);
  } else {
    // Steal the heap buffer; leave Other valid and minimal.
    Data = Other.Data;
    Capacity = Other.Capacity;
    Other.Data = Other.Inline;
    Other.Capacity = InlineCapacity;
  }
  Count = Other.Count;
  Other.Count = 0;
}

void VectorClock::set(ThreadId Tid, uint32_t Value) {
  if (Tid >= Count) {
    if (Value == 0)
      return; // Absent entries already read as zero.
    extendTo(Tid + 1);
  }
  Data[Tid] = Value;
}

void VectorClock::increment(ThreadId Tid) {
  if (Tid >= Count)
    extendTo(Tid + 1);
  ++Data[Tid];
}

bool VectorClock::joinWith(const VectorClock &Other) {
  const uint32_t Shared = std::min(Count, Other.Count);
  bool Changed = kernels::joinMax(Data, Other.Data, Shared);
  // Components of Other beyond our stored prefix join against implicit
  // zeros. Grow only as far as Other's last non-zero component -- a
  // shorter (or zero-padded) Other must not inflate this clock. When the
  // tail has any non-zero component the join changes this clock by
  // definition, and extendTo's zero-fill makes a straight copy of the
  // whole tail equivalent to copying only its non-zero components.
  const uint32_t Last =
      Shared + static_cast<uint32_t>(kernels::trimTrailingZeros(
                   Other.Data + Shared, Other.Count - Shared));
  if (Last > Shared) {
    extendTo(Last);
    kernels::copyWords(Data + Shared, Other.Data + Shared, Last - Shared);
    Changed = true;
  }
  return Changed;
}

void VectorClock::compactSlots(const uint32_t *NewToOld, uint32_t NewCount) {
  // Components at old indices >= Count are implicit zeros; since NewToOld
  // ascends, everything past the first out-of-range source is zero too.
  uint32_t M = 0;
  while (M < NewCount && NewToOld[M] < Count)
    ++M;
  kernels::remapGather(Data, Data, NewToOld, M);
  Count = static_cast<uint32_t>(kernels::trimTrailingZeros(Data, M));
  // Accordion release: once the packed clock fits inline again, return the
  // spill block. Compaction must shrink allocations, not just logical
  // widths -- otherwise every clock's space charge ratchets at the widest
  // slot count it ever saw and the live-metadata high-water grows with
  // total threads started instead of staying O(live).
  if (!isInline() && Count <= InlineCapacity) {
    kernels::copyWords(Inline, Data, Count);
    delete[] Data;
    Data = Inline;
    Capacity = InlineCapacity;
  }
}

bool VectorClock::leq(const VectorClock &Other) const {
  const uint32_t Shared = std::min(Count, Other.Count);
  if (!kernels::allLeq(Data, Other.Data, Shared))
    return false;
  // Our excess tail compares against implicit zeros in Other.
  return kernels::allZero(Data + Shared, Count - Shared);
}

std::string VectorClock::str() const {
  std::string Out = "[";
  for (uint32_t I = 0; I != Count; ++I) {
    if (I)
      Out += ", ";
    Out += std::to_string(Data[I]);
  }
  Out += "]";
  return Out;
}

namespace pacer {
// Defined in-namespace so the friend declaration matches.
bool operator==(const VectorClock &A, const VectorClock &B) {
  uint32_t Max = std::max(A.Count, B.Count);
  for (uint32_t I = 0; I != Max; ++I)
    if (A.get(I) != B.get(I))
      return false;
  return true;
}
} // namespace pacer
