//===- tests/detectors/GenericDetectorTest.cpp ----------------------------==//

#include "detectors/GenericDetector.h"
#include "runtime/AnalysisSession.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

using namespace pacer;
using namespace pacer::test;

namespace {

class GenericDetectorTest : public ::testing::Test {
protected:
  CollectingSink Sink;
  GenericDetector D{Sink};

  void replay(Trace T) { replayInto(D, T); }
};

TEST_F(GenericDetectorTest, WriteWriteRaceDetected) {
  replay(TraceBuilder()
             .fork(0, 1)
             .write(0, /*Var=*/5, /*Site=*/50)
             .write(1, 5, 51)
             .take());
  ASSERT_EQ(Sink.size(), 1u);
  const RaceReport &Report = Sink.Reports[0];
  EXPECT_EQ(Report.Var, 5u);
  EXPECT_EQ(Report.FirstKind, AccessKind::Write);
  EXPECT_EQ(Report.SecondKind, AccessKind::Write);
  EXPECT_EQ(Report.FirstThread, 0u);
  EXPECT_EQ(Report.SecondThread, 1u);
  EXPECT_EQ(Report.FirstSite, 50u);
  EXPECT_EQ(Report.SecondSite, 51u);
}

TEST_F(GenericDetectorTest, WriteReadRaceDetected) {
  replay(TraceBuilder().fork(0, 1).write(0, 5).read(1, 5).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstKind, AccessKind::Write);
  EXPECT_EQ(Sink.Reports[0].SecondKind, AccessKind::Read);
}

TEST_F(GenericDetectorTest, ReadWriteRaceDetected) {
  replay(TraceBuilder().fork(0, 1).read(0, 5).write(1, 5).take());
  ASSERT_EQ(Sink.size(), 1u);
  EXPECT_EQ(Sink.Reports[0].FirstKind, AccessKind::Read);
  EXPECT_EQ(Sink.Reports[0].SecondKind, AccessKind::Write);
}

TEST_F(GenericDetectorTest, ReadReadNeverRaces) {
  replay(TraceBuilder().fork(0, 1).read(0, 5).read(1, 5).read(0, 5).take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(GenericDetectorTest, LockOrderingPreventsRace) {
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

TEST_F(GenericDetectorTest, DifferentLocksDoNotOrder) {
  replay(TraceBuilder()
             .fork(0, 1)
             .acq(0, 1)
             .write(0, 5)
             .rel(0, 1)
             .acq(1, 2)
             .write(1, 5)
             .rel(1, 2)
             .take());
  EXPECT_EQ(Sink.size(), 1u);
}

TEST_F(GenericDetectorTest, ForkOrdersParentBeforeChild) {
  replay(TraceBuilder().write(0, 5).fork(0, 1).read(1, 5).take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(GenericDetectorTest, JoinOrdersChildBeforeParent) {
  replay(TraceBuilder().fork(0, 1).write(1, 5).join(0, 1).read(0, 5).take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(GenericDetectorTest, VolatileWriteThenReadOrders) {
  // t0 writes x, writes volatile v; t1 reads v, reads x: ordered.
  replay(TraceBuilder()
             .fork(0, 1)
             .write(0, 5)
             .volWrite(0, 3)
             .volRead(1, 3)
             .read(1, 5)
             .take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(GenericDetectorTest, VolatileReadAloneDoesNotOrder) {
  // Reading the volatile before the writer wrote it gives no edge.
  replay(TraceBuilder()
             .fork(0, 1)
             .volRead(1, 3)
             .read(1, 5)
             .write(0, 5)
             .volWrite(0, 3)
             .take());
  EXPECT_EQ(Sink.size(), 1u);
}

TEST_F(GenericDetectorTest, MultipleConcurrentReadsAllReportedAtWrite) {
  replay(TraceBuilder()
             .fork(0, 1)
             .fork(0, 2)
             .read(1, 5, 51)
             .read(2, 5, 52)
             .write(0, 5, 50)
             .take());
  // Both reads race with the write.
  ASSERT_EQ(Sink.size(), 2u);
  std::set<RaceKey> Keys = Sink.keys();
  EXPECT_TRUE(Keys.count(RaceKey{50, 51}));
  EXPECT_TRUE(Keys.count(RaceKey{50, 52}));
}

TEST_F(GenericDetectorTest, SameThreadAccessesNeverRace) {
  replay(TraceBuilder().write(0, 5).read(0, 5).write(0, 5).take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(GenericDetectorTest, TransitiveHappensBefore) {
  // t0 -> t1 via lock 1, t1 -> t2 via lock 2; t0's write ordered before
  // t2's read transitively.
  replay(TraceBuilder()
             .fork(0, 1)
             .fork(0, 2)
             .write(0, 5)
             .acq(0, 1)
             .rel(0, 1)
             .acq(1, 1)
             .rel(1, 1)
             .acq(1, 2)
             .rel(1, 2)
             .acq(2, 2)
             .rel(2, 2)
             .read(2, 5)
             .take());
  EXPECT_TRUE(Sink.empty());
}

TEST_F(GenericDetectorTest, StatsCountOperations) {
  replay(TraceBuilder()
             .fork(0, 1)
             .acq(1, 0)
             .read(1, 2)
             .write(1, 2)
             .rel(1, 0)
             .join(0, 1)
             .take());
  const DetectorStats &Stats = D.stats();
  EXPECT_EQ(Stats.SyncOps, 4u);
  EXPECT_EQ(Stats.totalReads(), 1u);
  EXPECT_EQ(Stats.totalWrites(), 1u);
}

TEST_F(GenericDetectorTest, MetadataBytesGrowWithVariables) {
  size_t Before = D.liveMetadataBytes();
  replay(TraceBuilder().write(0, 100).write(0, 200).take());
  EXPECT_GT(D.liveMetadataBytes(), Before);
}

TEST_F(GenericDetectorTest, LargestVariableIdCostsOneEntry) {
  // Per-variable state is keyed by id, not indexed densely: one access to
  // the largest legal id must not allocate state for every smaller id
  // (a dense vector of 2^24 entries took gigabytes and aborted the
  // analysis under a 4 GB address-space limit).
  const std::string Path =
      ::testing::TempDir() + "/pacer_generic_largest_var.trace";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "pacer-trace v1 4183\nwr 0 16777215 1\n";
  }
  AnalysisRequest Request;
  Request.Setup = genericSetup();
  AnalysisResult Result =
      AnalysisSession(flatSiteWorkload(), Request).analyzeFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.TraceEvents, 1u);
  EXPECT_LT(Result.FinalMetadataBytes, size_t{1} << 20);

  replay(TraceBuilder().write(0, MaxActionObjectId).take());
  EXPECT_EQ(D.trackedVariableCount(), 1u);
  EXPECT_LT(D.liveMetadataBytes(), size_t{1} << 20);
}

TEST_F(GenericDetectorTest, ThreadClockAdvancesOnRelease) {
  replay(TraceBuilder().acq(0, 1).rel(0, 1).take());
  EXPECT_EQ(D.threadClock(0).get(0), 2u) << "initial 1 plus one release";
}

// --- The allLeq screen (clocks at least MinScreenWidth wide) -----------

/// Threads 0..Wide-1: wide enough that every per-variable clock a worker
/// past the screen width touched is screened with allLeq.
constexpr ThreadId Wide = GenericDetector::MinScreenWidth + 4;

TraceBuilder forkAll() {
  TraceBuilder B;
  for (ThreadId T = 1; T < Wide; ++T)
    B.fork(0, T);
  return B;
}

TEST_F(GenericDetectorTest, WideScreenReportsEveryConcurrentPriorWrite) {
  // Every worker writes var 5 unsynchronized, so each write races with
  // every earlier worker's write. From the screen width on, the stored
  // write clock is wide enough to screen; the screen must fail and the
  // walk must still report each racing component in slot order.
  TraceBuilder B = forkAll();
  for (ThreadId T = 1; T < Wide; ++T)
    B.write(T, /*Var=*/5, /*Site=*/500 + T);
  // After joining everyone, main's write is ordered after all of them:
  // the screen passes and nothing more is reported.
  for (ThreadId T = 1; T < Wide; ++T)
    B.join(0, T);
  B.write(0, 5, 499);
  replay(B.take());

  std::vector<RaceReport> Want;
  for (ThreadId Second = 2; Second < Wide; ++Second) {
    for (ThreadId First = 1; First < Second; ++First) {
      RaceReport R;
      R.Var = 5;
      R.FirstKind = AccessKind::Write;
      R.SecondKind = AccessKind::Write;
      R.FirstThread = First;
      R.SecondThread = Second;
      R.FirstSite = 500 + First;
      R.SecondSite = 500 + Second;
      Want.push_back(R);
    }
  }
  ASSERT_EQ(Sink.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I) {
    const RaceReport &Got = Sink.Reports[I];
    EXPECT_EQ(Got.Var, Want[I].Var) << I;
    EXPECT_EQ(Got.FirstKind, Want[I].FirstKind) << I;
    EXPECT_EQ(Got.SecondKind, Want[I].SecondKind) << I;
    EXPECT_EQ(Got.FirstThread, Want[I].FirstThread) << I;
    EXPECT_EQ(Got.SecondThread, Want[I].SecondThread) << I;
    EXPECT_EQ(Got.FirstSite, Want[I].FirstSite) << I;
    EXPECT_EQ(Got.SecondSite, Want[I].SecondSite) << I;
  }
}

TEST_F(GenericDetectorTest, WideScreenPassesOnLockOrderedAccesses) {
  // Every worker reads and writes vars 5 and 6 under one lock, so all
  // accesses are ordered; the stored read and write clocks grow past
  // the screen width and every later check is screened and passes.
  TraceBuilder B = forkAll();
  for (ThreadId T = 1; T < Wide; ++T)
    B.acq(T, 9).read(T, 5).write(T, 5).read(T, 6).rel(T, 9);
  for (ThreadId T = 1; T < Wide; ++T)
    B.join(0, T);
  B.read(0, 6).write(0, 5).write(0, 6);
  replay(B.take());

  EXPECT_TRUE(Sink.empty());
  EXPECT_GE(D.threadClock(0).size(), GenericDetector::MinScreenWidth);
  EXPECT_EQ(D.stats().totalReads(), 2 * (Wide - 1) + 1);
  EXPECT_EQ(D.stats().totalWrites(), (Wide - 1) + 2);
}

} // namespace
