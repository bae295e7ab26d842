//===- detectors/GenericDetector.h - O(n) vector-clock detector -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GENERIC vector-clock race detection algorithm of the paper's
/// Section 2.1 (Algorithms 1-6 plus Appendix C's Algorithms 14-15 for
/// volatiles). Every synchronization object carries a vector clock, and
/// every variable carries full read and write vectors R[1..n] and W[1..n];
/// essentially all analysis is O(n) in the number of threads. GENERIC is
/// sound and precise; it serves as the exact happens-before oracle the
/// tests compare FastTrack and PACER against, and as the
/// precision-baseline for the benchmarks.
///
/// Synchronization tracking is the shared SyncState (its algorithms *are*
/// GENERIC's), which also provides optional accordion slot recycling.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_DETECTORS_GENERICDETECTOR_H
#define PACER_DETECTORS_GENERICDETECTOR_H

#include "core/VectorClock.h"
#include "detectors/Detector.h"
#include "detectors/SyncState.h"
#include "support/Arena.h"

#include <vector>

namespace pacer {

/// Configuration knobs for GENERIC.
struct GenericConfig {
  /// Accordion clocks: recycle dead threads' clock slots once every live
  /// thread dominates their final clocks (see core/SlotRecycler.h).
  bool UseAccordionClocks = false;
};

/// Sound and precise O(n)-per-operation vector-clock race detector.
class GenericDetector final : public Detector {
public:
  explicit GenericDetector(RaceSink &Sink, GenericConfig Config = {})
      : Detector(Sink), Config(Config) {
    if (Config.UseAccordionClocks)
      Sync.enableRecycling();
  }

  const char *name() const override { return "generic"; }

  void fork(ThreadId Parent, ThreadId Child) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.fork(Parent, Child, Stats);
  }
  void join(ThreadId Parent, ThreadId Child) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.join(Parent, Child, Stats);
  }
  void acquire(ThreadId Tid, LockId Lock) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.acquire(Tid, Lock, Stats);
  }
  void release(ThreadId Tid, LockId Lock) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.release(Tid, Lock, Stats);
  }
  void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.acquireReleasePairs(Tid, Lock, Pairs, Stats);
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.volatileRead(Tid, Vol, Stats);
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.volatileWrite(Tid, Vol, Stats);
  }

  void read(ThreadId Tid, VarId Var, SiteId Site) override;
  void write(ThreadId Tid, VarId Var, SiteId Site) override;

  /// Batched epoch dispatch: one arena scope per epoch, and the slot and
  /// clock resolution hoisted to thread switches.
  using Detector::accessBatch;
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override;

  /// Narrowest clock the race checks screen with allLeq (see
  /// checkClockOrdered). Below it the screen's two indirect kernel calls
  /// plus SIMD setup cost more than the scalar component walk.
  static constexpr size_t MinScreenWidth = 16;

  void threadBegin(ThreadId Tid) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.ensureThread(Sync.slotOf(Tid));
  }

  void threadExit(ThreadId Tid) override {
    Arena::Scope MetadataScope(&Metadata);
    Sync.threadExit(Tid);
  }

  /// Accordion clocks: reclaim dominated dead slots and compact (no-op
  /// unless GenericConfig::UseAccordionClocks is set).
  size_t recycleDeadSlots() override;

  size_t slotCount() const override { return Sync.slotCount(); }
  size_t peakSlotCount() const override { return Sync.peakSlotCount(); }

  size_t liveMetadataBytes() const override;
  size_t accessMetadataBytes() const override;

  /// Test hook: the current clock of \p Tid.
  const VectorClock &threadClock(ThreadId Tid) {
    return Sync.ensureThread(Sync.slotOf(Tid));
  }

private:
  /// Recorded-access sites, stored in the detector's arena like every
  /// other per-variable block.
  using SiteVector = std::vector<SiteId, ArenaAllocator<SiteId>>;

  /// Per-variable access history: last-read and last-write clock values and
  /// the program site of each recorded access, all indexed by thread slot.
  struct VarState {
    VectorClock R;
    VectorClock W;
    SiteVector RSites;
    SiteVector WSites;
  };

  VarState &ensureVar(VarId Var);

  /// Algorithm bodies with the arena scope open and \p Tid already
  /// resolved to a slot with its clock -- the batch loop hoists that
  /// resolution out of per-access work.
  void readWith(ThreadId Tid, const VectorClock &Clock, VarId Var,
                SiteId Site);
  void writeWith(ThreadId Tid, const VectorClock &Clock, VarId Var,
                 SiteId Site);

  /// Reports one race per component of \p Prior exceeding \p Current.
  /// Clocks at least MinScreenWidth wide are first screened with one
  /// kernel-dispatched allLeq: Prior <= Current reports nothing, so the
  /// component walk is skipped.
  void checkClockOrdered(const VectorClock &Prior,
                         const SiteVector &PriorSites,
                         AccessKind PriorKind, const VectorClock &Current,
                         VarId Var, ThreadId Tid, AccessKind Kind,
                         SiteId Site);

  /// Backs the per-variable table, its site vectors, and spilled clocks.
  /// MUST stay the first data member: the later members free their blocks
  /// back into this arena while being destroyed.
  Arena Metadata;

  GenericConfig Config;
  SyncState Sync;
  std::vector<VarState, ArenaAllocator<VarState>> Vars;
};

} // namespace pacer

#endif // PACER_DETECTORS_GENERICDETECTOR_H
