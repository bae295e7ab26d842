//===- core/VectorClock.h - Vector clocks over thread ids ------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector clock maps thread identifiers to logical clock values
/// (VC : Tid -> Nat, Appendix A.1). Entries beyond the stored size are
/// implicitly zero, so clocks grow lazily as threads start. The same
/// structure doubles as a *version vector* (Appendix A.2), which maps each
/// thread to the latest version of that thread's clock received via joins.
///
/// Storage is small-size optimized: clocks of up to InlineCapacity (8)
/// components live entirely inside the object, with no heap allocation.
/// The evaluation workloads keep most clocks at or below 8 live threads
/// (eclipse 8, xalan 9, pseudojbb 9 max live), so the common case of a
/// join, copy, or comparison never touches the allocator and stays within
/// one cache line. Wider clocks (hsqldb's 403 threads) spill to a heap
/// array from the standard allocator.
///
/// All component loops -- join, leq, copy -- route through the
/// word-parallel kernels in core/ClockKernels.h, which pick a SIMD width
/// at compile time; results are bit-identical across every kernel ISA.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_CORE_VECTORCLOCK_H
#define PACER_CORE_VECTORCLOCK_H

#include "core/Ids.h"

#include <cstddef>
#include <cstdint>
#include <string>

namespace pacer {

/// Growable dense vector clock; absent entries read as zero.
class VectorClock {
public:
  /// Components stored inline before spilling to the heap.
  static constexpr uint32_t InlineCapacity = 8;

  /// Constructs the minimal clock (all zeros).
  VectorClock() = default;

  VectorClock(const VectorClock &Other) { assign(Other); }
  VectorClock(VectorClock &&Other) noexcept { moveFrom(Other); }
  VectorClock &operator=(const VectorClock &Other) {
    if (this != &Other)
      assign(Other);
    return *this;
  }
  VectorClock &operator=(VectorClock &&Other) noexcept {
    if (this != &Other) {
      deallocate();
      moveFrom(Other);
    }
    return *this;
  }
  ~VectorClock() { deallocate(); }

  /// Returns the clock value for \p Tid (zero if never set).
  uint32_t get(ThreadId Tid) const { return Tid < Count ? Data[Tid] : 0; }

  /// Sets the clock value for \p Tid, growing as needed.
  void set(ThreadId Tid, uint32_t Value);

  /// Increments the component for \p Tid (the inc_t operation, Equation 2).
  void increment(ThreadId Tid);

  /// Pointwise-maximum join (Equation 3). Returns true iff this clock
  /// changed, which PACER uses to avoid unnecessary version increments
  /// (Algorithm 11). Iterates only the shorter shared prefix plus
  /// whatever non-zero tail \p Other actually stores: components of
  /// \p Other that are trailing explicit zeros neither grow this clock
  /// nor get touched.
  bool joinWith(const VectorClock &Other);

  /// Element-by-element copy (the copy operation, Equation 1).
  void copyFrom(const VectorClock &Other) { assign(Other); }

  /// The pointwise partial order C1 <= C2 (all components, Appendix A.1).
  /// Compares the shared prefix directly, then requires this clock's
  /// excess tail (implicitly zero in \p Other) to be zero.
  bool leq(const VectorClock &Other) const;

  /// Resets to the minimal clock (keeps any heap allocation, matching the
  /// previous std::vector::clear behaviour).
  void clear() { Count = 0; }

  /// Accordion compaction: renumbers components so that new slot \p I
  /// holds the value of old slot NewToOld[I], then trims trailing zeros.
  /// \p NewToOld must be strictly ascending (an order-preserving pack of
  /// the surviving slots), which makes the in-place gather safe. Old
  /// components not named by \p NewToOld are discarded; they belong to
  /// recycled slots and were already reset to zero.
  void compactSlots(const uint32_t *NewToOld, uint32_t NewCount);

  /// Number of stored (possibly zero) components.
  size_t size() const { return Count; }

  /// Heap bytes used; the space model charges each unique clock payload
  /// once, which is how clock sharing saves space. Inline-stored clocks
  /// own no heap memory and report zero.
  size_t heapBytes() const {
    return isInline() ? 0 : Capacity * sizeof(uint32_t);
  }

  /// Renders as "[c0, c1, ...]" for diagnostics.
  std::string str() const;

  friend bool operator==(const VectorClock &A, const VectorClock &B);

private:
  bool isInline() const { return Data == Inline; }

  /// Grows storage to hold at least \p MinCapacity components, preserving
  /// the stored prefix.
  void grow(uint32_t MinCapacity);

  /// Extends the stored size to \p NewCount, zero-filling new components.
  void extendTo(uint32_t NewCount);

  void assign(const VectorClock &Other);
  void moveFrom(VectorClock &Other) noexcept;
  void deallocate() {
    if (!isInline())
      delete[] Data;
  }

  uint32_t *Data = Inline;
  uint32_t Count = 0;
  uint32_t Capacity = InlineCapacity;
  uint32_t Inline[InlineCapacity];
};

/// Version vectors have the same representation and operations as vector
/// clocks but count clock *versions*, not logical time (Appendix A.2).
using VersionVector = VectorClock;

} // namespace pacer

#endif // PACER_CORE_VECTORCLOCK_H
