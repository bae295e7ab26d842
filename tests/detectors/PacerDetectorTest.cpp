//===- tests/detectors/PacerDetectorTest.cpp ------------------------------==//
//
// Semantics of PACER's read/write rules (Table 4) and its reporting
// guarantee: sampled shortest races are reported; races whose first access
// is not sampled are not (and their metadata is discarded).
//
//===----------------------------------------------------------------------===//

#include "detectors/PacerDetector.h"

#include "support/Rng.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <utility>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

class PacerDetectorTest : public ::testing::Test {
protected:
  CollectingSink Sink;
  PacerDetector D{Sink};

  void replay(Trace T) { replayInto(D, T); }
};

TEST_F(PacerDetectorTest, AlwaysSamplingDetectsWriteWriteRace) {
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).write(0, 5, 50).write(1, 5, 51).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstSite, 50u);
  EXPECT_EQ(Sink.Reports[0].SecondSite, 51u);
}

TEST_F(PacerDetectorTest, AlwaysSamplingRespectsLockOrdering) {
  D.beginSamplingPeriod();
  replay(TraceBuilder()
             .fork(0, 1)
             .acq(0, 9)
             .write(0, 5)
             .rel(0, 9)
             .acq(1, 9)
             .write(1, 5)
             .rel(1, 9)
             .take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(PacerDetectorTest, NeverSamplingReportsAndRecordsNothing) {
  replay(TraceBuilder().fork(0, 1).write(0, 5).write(1, 5).read(1, 5).take());
  EXPECT_TRUE(Sink.empty());
  EXPECT_EQ(D.trackedVariableCount(), 0u);
  const DetectorStats &Stats = D.stats();
  EXPECT_EQ(Stats.WriteFastNonSampling, 2u);
  EXPECT_EQ(Stats.ReadFastNonSampling, 1u);
  EXPECT_EQ(Stats.WriteSlowSampling + Stats.WriteSlowNonSampling, 0u);
}

TEST_F(PacerDetectorTest, SampledWriteRacesWithLaterUnsampledRead) {
  // Figure 1's y: the write happens in the sampling period; the racing
  // read comes after the period ends. PACER must still report it.
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).write(0, 5, 50).take());
  D.endSamplingPeriod();
  replay(TraceBuilder().read(1, 5, 51).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstSite, 50u);
  EXPECT_EQ(Sink.Reports[0].SecondSite, 51u);
  EXPECT_EQ(Sink.Reports[0].FirstKind, AccessKind::Write);
  EXPECT_EQ(Sink.Reports[0].SecondKind, AccessKind::Read);
}

TEST_F(PacerDetectorTest, SampledWriteSurvivesManyPeriodsUntilRace) {
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).write(0, 5, 50).take());
  D.endSamplingPeriod();
  // Several empty sampling periods elapse; the metadata must survive
  // because no conflicting access supersedes it.
  for (int I = 0; I < 3; ++I) {
    D.beginSamplingPeriod();
    D.endSamplingPeriod();
  }
  replay(TraceBuilder().write(1, 5, 51).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstSite, 50u);
}

TEST_F(PacerDetectorTest, UnsampledFirstAccessRaceNotReported) {
  // Both accesses outside sampling periods: no metadata, no report; PACER
  // finds this race only in the r fraction of runs where the first access
  // is sampled.
  replay(TraceBuilder().fork(0, 1).write(0, 5).write(1, 5).take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(PacerDetectorTest, HappensBeforeEdgeDiscardsSampledReadViaLock) {
  // Figure 1's x: t2's sampled read is ordered (via lock 9) before t1's
  // unsampled write, so the read cannot be the last access to race with
  // anything later; PACER discards x's metadata at the write. The later
  // concurrent write by t3 races with t1's (unsampled) write only, so
  // nothing is reported -- and nothing is tracked.
  D.beginSamplingPeriod();
  replay(TraceBuilder()
             .fork(0, 1)
             .fork(0, 2)
             .fork(0, 3)
             .acq(2, 9)
             .read(2, 5)
             .take());
  D.endSamplingPeriod();
  EXPECT_EQ(D.trackedVariableCount(), 1u);
  replay(TraceBuilder()
             .rel(2, 9)
             .acq(1, 9)
             .write(1, 5) // Ordered after the sampled read: discard.
             .rel(1, 9)
             .take());
  EXPECT_TRUE(Sink.empty());
  EXPECT_EQ(D.trackedVariableCount(), 0u);
  // t3's concurrent write truly races with t1's write, but that race's
  // first access was not sampled: PACER stays silent by design.
  replay(TraceBuilder().write(3, 5).take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(PacerDetectorTest, ConcurrentSampledReadKeptOutsideSampling) {
  // Table 4 Rule 4 non-sampling arm: a sampled read epoch that is
  // concurrent with the current read is kept, because it may still be the
  // first access of a future race.
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).fork(0, 2).read(1, 5, 51).take());
  D.endSamplingPeriod();
  // t2's unsampled concurrent read does not discard t1's epoch.
  replay(TraceBuilder().read(2, 5, 52).take());
  EXPECT_EQ(D.trackedVariableCount(), 1u);
  // A later write concurrent with t1's read reports against it.
  replay(TraceBuilder().write(2, 5, 53).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstSite, 51u);
  EXPECT_EQ(Sink.Reports[0].SecondSite, 53u);
}

TEST_F(PacerDetectorTest, NonSampledReadRemovesOnlyOwnMapEntry) {
  // Two concurrent sampled reads build a read map; t1's later unsampled
  // read discards only t1's entry (Rule 3 non-sampling), so a racing
  // write still reports against t2's surviving entry.
  D.beginSamplingPeriod();
  replay(TraceBuilder()
             .fork(0, 1)
             .fork(0, 2)
             .fork(0, 3)
             .read(1, 5, 51)
             .read(2, 5, 52)
             .take());
  D.endSamplingPeriod();
  replay(TraceBuilder().read(1, 5, 61).take());
  const ReadMap *R = D.readMapForTest(5);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->size(), 1u);
  replay(TraceBuilder().write(3, 5, 53).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstSite, 52u);
}

TEST_F(PacerDetectorTest, UnsampledWriteDiscardsVariableEntirely) {
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).acq(0, 9).write(0, 5).rel(0, 9).take());
  D.endSamplingPeriod();
  EXPECT_EQ(D.trackedVariableCount(), 1u);
  // An unsampled write by another thread, ordered after the sampled one
  // via the lock, supersedes it: no race, metadata discarded.
  replay(TraceBuilder().acq(1, 9).write(1, 5).rel(1, 9).take());
  EXPECT_TRUE(Sink.empty());
  EXPECT_EQ(D.trackedVariableCount(), 0u);
}

TEST_F(PacerDetectorTest, UnsampledRacingWriteReportsThenDiscards) {
  // The unsampled write both reports the sampled race and then discards
  // the metadata (it is now the last access, and it is unsampled).
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).fork(0, 2).write(1, 5, 51).take());
  D.endSamplingPeriod();
  replay(TraceBuilder().write(2, 5, 52).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(D.trackedVariableCount(), 0u);
  // A third concurrent write does not re-report the stale pair.
  replay(TraceBuilder().write(0, 5, 53).take());
  EXPECT_EQ(Sink.size(), 1u);
}

TEST_F(PacerDetectorTest, SameEpochWriteKeepsMetadata) {
  D.beginSamplingPeriod();
  replay(TraceBuilder().write(0, 5, 50).take());
  D.endSamplingPeriod();
  // Same thread, same epoch (no increments since): Rule 5, no discard.
  replay(TraceBuilder().write(0, 5, 60).take());
  EXPECT_EQ(D.trackedVariableCount(), 1u);
  EXPECT_EQ(D.writeEpochForTest(5).tid(), 0u);
}

TEST_F(PacerDetectorTest, SampledReadRacesWithLaterUnsampledWrite) {
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).read(1, 5, 51).take());
  D.endSamplingPeriod();
  replay(TraceBuilder().write(0, 5, 50).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstKind, AccessKind::Read);
  EXPECT_EQ(Sink.Reports[0].FirstSite, 51u);
}

TEST_F(PacerDetectorTest, InstrumentationDisabledSkipsAccesses) {
  PacerConfig Config;
  Config.InstrumentReadsWrites = false;
  CollectingSink Sink2;
  PacerDetector SyncOnly(Sink2, Config);
  SyncOnly.beginSamplingPeriod();
  replayInto(SyncOnly,
             TraceBuilder().fork(0, 1).write(0, 5).write(1, 5).take());
  EXPECT_TRUE(Sink2.empty());
  EXPECT_EQ(SyncOnly.stats().totalWrites(), 0u);
  EXPECT_GT(SyncOnly.stats().SyncOps, 0u);
}

TEST_F(PacerDetectorTest, Table3StyleCounterClassification) {
  D.beginSamplingPeriod();
  replay(TraceBuilder().write(0, 5).read(0, 6).take());
  D.endSamplingPeriod();
  replay(TraceBuilder()
             .read(0, 6)  // Has metadata: slow path.
             .read(0, 7)  // No metadata: fast path.
             .write(0, 8) // No metadata: fast path.
             .take());
  const DetectorStats &Stats = D.stats();
  EXPECT_EQ(Stats.WriteSlowSampling, 1u);
  EXPECT_EQ(Stats.ReadSlowSampling, 1u);
  EXPECT_EQ(Stats.ReadSlowNonSampling, 1u);
  EXPECT_EQ(Stats.ReadFastNonSampling, 1u);
  EXPECT_EQ(Stats.WriteFastNonSampling, 1u);
}

TEST_F(PacerDetectorTest, ReadMapSurvivesAcrossPeriodsUntilSuperseded) {
  // A read map built during one sampling period keeps collecting entries
  // in a later one, and each entry reports independently.
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).fork(0, 2).fork(0, 3).read(1, 5, 51)
             .read(2, 5, 52).take());
  D.endSamplingPeriod();
  D.beginSamplingPeriod();
  replay(TraceBuilder().read(3, 5, 53).take()); // Third concurrent reader.
  D.endSamplingPeriod();
  const ReadMap *R = D.readMapForTest(5);
  ASSERT_NE(R, nullptr);
  EXPECT_EQ(R->size(), 3u);
  replay(TraceBuilder().write(0, 5, 50).take()); // Races with all three.
  EXPECT_EQ(Sink.size(), 3u);
  EXPECT_EQ(D.trackedVariableCount(), 0u) << "unsampled write discards";
}

TEST_F(PacerDetectorTest, SampledEpochUpgradedInLaterPeriod) {
  // Rule 2 sampling: a later sampled read that dominates the recorded
  // epoch replaces it (and its site), so reports name the latest reader.
  D.beginSamplingPeriod();
  replay(TraceBuilder().fork(0, 1).acq(1, 9).read(1, 5, 51).rel(1, 9)
             .take());
  D.endSamplingPeriod();
  D.beginSamplingPeriod();
  replay(TraceBuilder().acq(0, 9).read(0, 5, 60).rel(0, 9).take());
  D.endSamplingPeriod();
  const ReadMap *R = D.readMapForTest(5);
  ASSERT_NE(R, nullptr);
  ASSERT_TRUE(R->isEpoch());
  EXPECT_EQ(R->epoch().tid(), 0u);
  EXPECT_EQ(R->epochSite(), 60u);
}

TEST_F(PacerDetectorTest, DiscardMetadataDisabledKeepsEntries) {
  PacerConfig Config;
  Config.DiscardMetadata = false;
  CollectingSink Sink2;
  PacerDetector Keeper(Sink2, Config);
  Keeper.beginSamplingPeriod();
  replayInto(Keeper, TraceBuilder().fork(0, 1).acq(0, 9).write(0, 5)
                         .rel(0, 9).take());
  Keeper.endSamplingPeriod();
  // The ordered unsampled write would normally discard; the ablation
  // keeps the (stale, ordered) entry.
  replayInto(Keeper, TraceBuilder().acq(1, 9).write(1, 5).rel(1, 9).take());
  EXPECT_TRUE(Sink2.empty());
  EXPECT_EQ(Keeper.trackedVariableCount(), 1u);
}

TEST_F(PacerDetectorTest, MetadataBytesShrinkAfterDiscard) {
  D.beginSamplingPeriod();
  Trace T;
  for (VarId Var = 100; Var < 140; ++Var)
    T.push_back({ActionKind::Write, 0, Var, 7});
  replay(T);
  D.endSamplingPeriod();
  size_t During = D.liveMetadataBytes();
  // Unsampled same-thread writes discard every entry.
  // (Same epoch would keep them: force a new epoch via a sampled period
  // boundary increment first.)
  D.beginSamplingPeriod();
  D.endSamplingPeriod();
  replay(T);
  EXPECT_EQ(D.trackedVariableCount(), 0u);
  EXPECT_LT(D.liveMetadataBytes(), During);
}

/// Drives a detector with a seeded random mix of sampling toggles, lock
/// handoffs, forks, joins, and reads/writes (delivered one at a time,
/// through single-access batches, and through multi-access batches), and
/// after every step checks the presence-bitmap invariant: a variable's
/// bit is set exactly when it has a Vars entry, and no other bit is set.
/// With accordion clocks the joins retire slots, so purges and
/// compactions run too.
void checkPresenceBitmapInvariant(bool Accordion, uint64_t Seed) {
  SCOPED_TRACE(::testing::Message()
               << "accordion " << Accordion << " seed " << Seed);
  CollectingSink Sink;
  PacerConfig Config;
  Config.UseAccordionClocks = Accordion;
  PacerDetector D(Sink, Config);
  Rng R(Seed);

  // Variables spread over several bitmap words, including word-boundary
  // ids; a small pool so accesses keep meeting each other's metadata.
  const std::vector<VarId> Pool{0, 1, 2, 3, 63, 64, 65, 127, 128, 700,
                                701, 4095, 4096, 9999};
  std::vector<ThreadId> Live{0};
  ThreadId NextThread = 1;
  D.threadBegin(0);

  size_t Erasures = 0, Recycled = 0, Compactions = 0;
  size_t PrevTracked = 0, PrevSlots = D.slotCount();
  auto Check = [&](const char *Step) {
    for (VarId Var : Pool)
      ASSERT_EQ(D.presenceBitForTest(Var), D.readMapForTest(Var) != nullptr)
          << Step << ": var " << Var;
    ASSERT_EQ(D.presenceBitCountForTest(), D.trackedVariableCount()) << Step;
    Erasures += D.trackedVariableCount() < PrevTracked;
    PrevTracked = D.trackedVariableCount();
    Compactions += D.slotCount() < PrevSlots;
    PrevSlots = D.slotCount();
  };
  auto RandomAccess = [&]() {
    const ThreadId Tid = Live[R.nextBelow(Live.size())];
    const VarId Var = Pool[R.nextBelow(Pool.size())];
    const ActionKind Kind =
        R.nextBool(0.5) ? ActionKind::Write : ActionKind::Read;
    return Action{Kind, Tid, Var, static_cast<SiteId>(R.nextBelow(8))};
  };

  for (int Step = 0; Step < 4000; ++Step) {
    // Alternate growth and shrink phases so slot counts swing past the
    // recycler's compaction threshold (16 slots, half of them free).
    const bool Growing = (Step / 500) % 2 == 0;
    const uint64_t Pick = R.nextBelow(100);
    if (Pick < 4) {
      if (D.isSampling())
        D.endSamplingPeriod();
      else
        D.beginSamplingPeriod();
      Check("toggle");
    } else if (Pick < 8) {
      if (!Growing || Live.size() >= 24)
        continue;
      const ThreadId Parent = Live[R.nextBelow(Live.size())];
      D.fork(Parent, NextThread);
      Live.push_back(NextThread++);
      Check("fork");
    } else if (Pick < 12) {
      if (Growing || Live.size() <= 1)
        continue;
      const size_t Index = 1 + R.nextBelow(Live.size() - 1);
      const ThreadId Child = Live[Index];
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Index));
      D.threadExit(Child);
      Recycled += D.recycleDeadSlots();
      Check("exit");
      D.join(Live[R.nextBelow(Live.size())], Child);
      Recycled += D.recycleDeadSlots();
      Check("join");
    } else if (Pick < 30) {
      const ThreadId Tid = Live[R.nextBelow(Live.size())];
      const LockId Lock = static_cast<LockId>(R.nextBelow(2));
      D.acquire(Tid, Lock);
      Check("acquire");
      D.release(Tid, Lock);
      Check("release");
    } else if (Pick < 55) {
      const Action A = RandomAccess();
      if (A.Kind == ActionKind::Write)
        D.write(A.Tid, A.Target, A.Site);
      else
        D.read(A.Tid, A.Target, A.Site);
      Check("access");
    } else if (Pick < 85) {
      const Action A = RandomAccess();
      D.accessBatch(std::span<const Action>(&A, 1));
      Check("single-access batch");
    } else {
      std::vector<Action> Batch;
      for (uint64_t I = 0, N = 2 + R.nextBelow(30); I < N; ++I)
        Batch.push_back(RandomAccess());
      D.accessBatch(Batch);
      Check("batch");
    }
    if (::testing::Test::HasFatalFailure())
      return;
  }
  // The run must have exercised what the invariant guards: discards
  // (bits cleared) and, with accordion clocks, slot purges and
  // compactions.
  EXPECT_GT(Erasures, 0u);
  if (Accordion) {
    EXPECT_GT(Recycled, 0u);
    EXPECT_GT(Compactions, 0u);
  }
}

TEST_F(PacerDetectorTest, PresenceBitSetExactlyWhenVariableTracked) {
  for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
    checkPresenceBitmapInvariant(/*Accordion=*/false, Seed);
    checkPresenceBitmapInvariant(/*Accordion=*/true, Seed);
  }
}

/// Sum of payload bytes over the distinct clock payloads thread 0 and
/// locks [0, Locks) hold: what liveMetadataBytes must charge for them,
/// each shared payload once.
size_t distinctPayloadBytes(const PacerDetector &D, LockId Locks) {
  std::unordered_set<const void *> Seen;
  size_t Bytes = 0;
  auto Add = [&](const void *Key, const VectorClock &Clock) {
    if (Seen.insert(Key).second)
      Bytes += sizeof(ClockPayload) + Clock.heapBytes();
  };
  Add(D.threadClockKeyForTest(0), D.threadClockForTest(0));
  for (LockId Lock = 0; Lock != Locks; ++Lock)
    Add(D.lockClockKeyForTest(Lock), *D.lockClockForTest(Lock));
  return Bytes;
}

/// One thread acquires and releases locks [0, Locks) in order; \p Sampled
/// decides, per lock, whether its release falls in a sampling period (a
/// deep copy into a private payload) or not (a shallow copy sharing the
/// thread's payload).
template <typename SampledFn>
void releaseEachLock(PacerDetector &D, LockId Locks, SampledFn Sampled) {
  D.threadBegin(0);
  for (LockId Lock = 0; Lock != Locks; ++Lock) {
    if (Sampled(Lock) != D.isSampling()) {
      if (D.isSampling())
        D.endSamplingPeriod();
      else
        D.beginSamplingPeriod();
    }
    D.acquire(0, Lock);
    D.release(0, Lock);
  }
  if (D.isSampling())
    D.endSamplingPeriod();
}

TEST_F(PacerDetectorTest, ManyLockPayloadsChargedOnceEach) {
  // 2^18 locks: far past where deduplicating payloads by a linear search
  // per lock stops finishing in test time.
  constexpr LockId Locks = LockId(1) << 18;
  CollectingSink SinkAll, SinkNone, SinkMixed;
  PacerDetector AllShared(SinkNone), AllPrivate(SinkAll), Mixed(SinkMixed);
  releaseEachLock(AllShared, Locks, [](LockId) { return false; });
  releaseEachLock(AllPrivate, Locks, [](LockId) { return true; });
  // Alternating stretches: each unsampled stretch shares one payload.
  releaseEachLock(Mixed, Locks, [](LockId L) { return (L / 1000) % 2 == 0; });

  // The three runs differ only in how payloads are shared, so their
  // charges differ by exactly their distinct-payload sums (plus thread
  // 0's version vector, which sampling grows).
  auto Expected = [&](const PacerDetector &D) {
    return distinctPayloadBytes(D, Locks) +
           D.threadVersionsForTest(0).heapBytes();
  };
  const size_t SharedBytes = AllShared.liveMetadataBytes();
  for (const PacerDetector *D : {&AllPrivate, &Mixed})
    EXPECT_EQ(D->liveMetadataBytes() - SharedBytes,
              Expected(*D) - Expected(AllShared));
  // The scenario shares what it claims to.
  EXPECT_EQ(distinctPayloadBytes(AllShared, Locks), sizeof(ClockPayload));
  EXPECT_EQ(distinctPayloadBytes(AllPrivate, Locks),
            (Locks + 1) * sizeof(ClockPayload));
}

TEST_F(PacerDetectorTest, CompactionRenumbersEachOfManyPayloadsOnce) {
  // Slots 1..18 die, slot 19 survives and moves to slot 1. Compacting a
  // payload twice would move its slot-19 component off the clock; skipping
  // one would leave it at 19.
  constexpr LockId Locks = LockId(1) << 17;
  constexpr ThreadId Survivor = 19;
  constexpr LockId Handoff = Locks; // Past the locks under test.
  PacerConfig Config;
  Config.UseAccordionClocks = true;
  PacerDetector Acc(Sink, Config);
  Acc.threadBegin(0);
  Acc.beginSamplingPeriod();
  for (ThreadId Child = 1; Child <= Survivor; ++Child)
    Acc.fork(0, Child);

  // Locks alternate between thread 0 and the survivor; sampled stretches
  // give private payloads, unsampled ones share a thread's payload.
  for (LockId Lock = 0; Lock != Locks; ++Lock) {
    if (((Lock / 512) % 2 == 0) != Acc.isSampling()) {
      if (Acc.isSampling())
        Acc.endSamplingPeriod();
      else
        Acc.beginSamplingPeriod();
    }
    const ThreadId Tid = Lock % 2 == 0 ? 0 : Survivor;
    Acc.acquire(Tid, Lock);
    Acc.release(Tid, Lock);
  }
  if (!Acc.isSampling())
    Acc.beginSamplingPeriod();

  // The others die; the survivor learns their final clocks through 0.
  for (ThreadId Child = 1; Child < Survivor; ++Child) {
    Acc.threadExit(Child);
    Acc.join(0, Child);
  }
  Acc.acquire(0, Handoff);
  Acc.release(0, Handoff);
  Acc.acquire(Survivor, Handoff);
  Acc.release(Survivor, Handoff);

  ASSERT_EQ(Acc.slotCount(), Survivor + 1);
  std::vector<std::pair<uint32_t, uint32_t>> Before(Locks);
  size_t SurvivorComponents = 0;
  for (LockId Lock = 0; Lock != Locks; ++Lock) {
    const VectorClock &C = *Acc.lockClockForTest(Lock);
    Before[Lock] = {C.get(0), C.get(Survivor)};
    SurvivorComponents += C.get(Survivor) != 0;
  }
  ASSERT_GT(SurvivorComponents, Locks / 4);

  EXPECT_EQ(Acc.recycleDeadSlots(), Survivor - 1);
  ASSERT_EQ(Acc.slotCount(), 2u);
  for (LockId Lock = 0; Lock != Locks; ++Lock) {
    const VectorClock &C = *Acc.lockClockForTest(Lock);
    ASSERT_EQ(C.get(0), Before[Lock].first) << "lock " << Lock;
    ASSERT_EQ(C.get(1), Before[Lock].second) << "lock " << Lock;
    for (ThreadId Slot = 2; Slot <= Survivor; ++Slot)
      ASSERT_EQ(C.get(Slot), 0u) << "lock " << Lock << " slot " << Slot;
  }
  // Still a working detector: unordered writes by the two threads race.
  Acc.write(0, 5, 50);
  Acc.write(Survivor, 5, 51);
  EXPECT_EQ(Sink.size(), 1u);
}

} // namespace
