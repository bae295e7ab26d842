//===- core/SyncClock.h - Shareable copy-on-write vector clocks -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// PACER's shareable vector clock. During non-sampling periods threads stop
/// incrementing their clocks, so redundant synchronization produces
/// identical clock values; PACER then performs *shallow* copies (the lock or
/// volatile shares the thread's clock payload) instead of O(n) deep copies
/// (Section 3.2, Algorithm 9). A payload, once marked shared, stays shared
/// for its lifetime; any writer first clones it (Algorithms 10, 11, 16 and
/// the Appendix A note on shallow/deep copies).
///
/// The space model counts each payload once no matter how many
/// synchronization objects reference it, which is exactly how sharing
/// reduces PACER's space overhead in Figure 10.
///
/// Deep copies and clones go element-by-element through
/// VectorClock::copyFrom, i.e. through the word-parallel kernels in
/// core/ClockKernels.h; a payload's spilled clock storage is a heap
/// array like any other VectorClock's.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_CORE_SYNCCLOCK_H
#define PACER_CORE_SYNCCLOCK_H

#include "core/VectorClock.h"

#include <memory>

namespace pacer {

/// Reference-counted clock payload with the paper's explicit shared bit.
struct ClockPayload {
  VectorClock Clock;
  bool Shared = false;
};

/// A handle to a possibly shared clock payload.
class SyncClock {
public:
  /// Constructs an unshared minimal clock.
  SyncClock() : Payload(std::make_shared<ClockPayload>()) {}

  /// Read access to the clock value.
  const VectorClock &clock() const { return Payload->Clock; }

  /// True if the payload has been marked shared (isShared() in the paper).
  bool isShared() const { return Payload->Shared; }

  /// Marks the payload shared (setShared(clock, true)).
  void setShared() { Payload->Shared = true; }

  /// Shallow copy: this handle now references \p Source's payload, which
  /// the caller must have marked shared (Algorithm 9's non-sampling arm).
  void shallowCopyFrom(const SyncClock &Source) { Payload = Source.Payload; }

  /// Deep element-by-element copy of \p Source's clock value into a private
  /// payload (Algorithm 9's sampling arm). Allocates a fresh payload if the
  /// current one is shared.
  void deepCopyFrom(const SyncClock &Source, uint64_t *CloneCounter);

  /// Ensures the payload is private before mutation: clones it if shared
  /// (the clone() step of Algorithms 10, 11, and 16).
  void cloneIfShared(uint64_t *CloneCounter);

  /// Mutable access to the clock; the payload must not be shared.
  VectorClock &mutableClock();

  /// Recycle-only escape hatch: zeroes \p Tid's component, writing
  /// through a shared payload deliberately -- when a thread slot is
  /// recycled (accordion clocks), every holder of the payload requires
  /// the identical reset, so in-place mutation is sound.
  void resetComponentForRecycle(ThreadId Tid) { Payload->Clock.set(Tid, 0); }

  /// Accordion compaction of the payload's clock, in place through
  /// sharing for the same reason as resetComponentForRecycle: every
  /// holder needs the identical renumbering. The caller must apply this
  /// exactly once per distinct payloadKey() -- compacting a shared
  /// payload through two handles would renumber it twice.
  void compactSlotsOnce(const uint32_t *NewToOld, uint32_t NewCount) {
    Payload->Clock.compactSlots(NewToOld, NewCount);
  }

  /// Identity of the payload, for space accounting (count unique payloads)
  /// and for the tests that verify sharing behaviour.
  const void *payloadKey() const { return Payload.get(); }

  /// Heap bytes owned by the payload. Callers deduplicate by payloadKey().
  size_t payloadBytes() const {
    return sizeof(ClockPayload) + Payload->Clock.heapBytes();
  }

private:
  std::shared_ptr<ClockPayload> Payload;
};

} // namespace pacer

#endif // PACER_CORE_SYNCCLOCK_H
