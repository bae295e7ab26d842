//===- tests/harness/StreamingReplayTest.cpp ------------------------------==//
//
// The bit-identity matrix for the trace read paths: one generated trace,
// replayed as {in-memory text parse, in-memory binary read, mmap view,
// bounded-window stream} x {1 shard, 4 shards}, must produce exactly the
// same AnalysisResult for every detector. Also pins the pieces that make
// that hold: Runtime::replayChunk is chunking-invariant, and
// TraceIndex::Builder is chunking-invariant and equal to the one-shot
// build.
//
//===----------------------------------------------------------------------==//

#include "runtime/AnalysisSession.h"
#include "runtime/RaceLog.h"
#include "runtime/Runtime.h"
#include "runtime/TraceIndex.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace pacer;
using namespace pacer::test;

namespace {

void expectSameStats(const DetectorStats &A, const DetectorStats &B) {
  EXPECT_EQ(A.SlowJoinsSampling, B.SlowJoinsSampling);
  EXPECT_EQ(A.FastJoinsSampling, B.FastJoinsSampling);
  EXPECT_EQ(A.SlowJoinsNonSampling, B.SlowJoinsNonSampling);
  EXPECT_EQ(A.FastJoinsNonSampling, B.FastJoinsNonSampling);
  EXPECT_EQ(A.DeepCopiesSampling, B.DeepCopiesSampling);
  EXPECT_EQ(A.ShallowCopiesSampling, B.ShallowCopiesSampling);
  EXPECT_EQ(A.DeepCopiesNonSampling, B.DeepCopiesNonSampling);
  EXPECT_EQ(A.ShallowCopiesNonSampling, B.ShallowCopiesNonSampling);
  EXPECT_EQ(A.ReadSlowSampling, B.ReadSlowSampling);
  EXPECT_EQ(A.ReadSlowNonSampling, B.ReadSlowNonSampling);
  EXPECT_EQ(A.ReadFastNonSampling, B.ReadFastNonSampling);
  EXPECT_EQ(A.WriteSlowSampling, B.WriteSlowSampling);
  EXPECT_EQ(A.WriteSlowNonSampling, B.WriteSlowNonSampling);
  EXPECT_EQ(A.WriteFastNonSampling, B.WriteFastNonSampling);
  EXPECT_EQ(A.RacesReported, B.RacesReported);
  EXPECT_EQ(A.SyncOps, B.SyncOps);
  EXPECT_EQ(A.ClockClones, B.ClockClones);
}

void expectSameResult(const AnalysisResult &A, const AnalysisResult &B) {
  ASSERT_EQ(A.Races.size(), B.Races.size());
  for (const auto &[Key, Count] : A.Races) {
    auto It = B.Races.find(Key);
    ASSERT_TRUE(It != B.Races.end()) << "race key missing";
    EXPECT_EQ(Count, It->second);
  }
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces);
  expectSameStats(A.Stats, B.Stats);
  EXPECT_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate);
  EXPECT_EQ(A.EffectiveSyncRate, B.EffectiveSyncRate);
  EXPECT_EQ(A.LiteRaceEffectiveRate, B.LiteRaceEffectiveRate);
  EXPECT_EQ(A.Boundaries, B.Boundaries);
  EXPECT_EQ(A.TraceEvents, B.TraceEvents);
  EXPECT_EQ(A.FinalMetadataBytes, B.FinalMetadataBytes);
}

struct NamedSetup {
  const char *Name;
  DetectorSetup Setup;
};

std::vector<NamedSetup> allSetups() {
  DetectorSetup PacerSampled = pacerSetup(0.03);
  PacerSampled.Sampling.PeriodBytes = 12 * 1024;
  return {{"pacer_r3", PacerSampled},
          {"pacer_r100", pacerSetup(1.0)},
          {"fasttrack", fastTrackSetup()},
          {"generic", genericSetup()},
          {"literace", literaceSetup()}};
}

TEST(StreamingReplayTest, AllReadPathsMatchForAllDetectors) {
  CompiledWorkload Workload(mediumTestWorkload());
  const uint64_t Seed = 7;
  Trace T = generateTrace(Workload, Seed);

  std::string TextPath = ::testing::TempDir() + "/pacer_paths.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_paths.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));

  TraceParseResult FromText = readTraceFile(TextPath);
  ASSERT_TRUE(FromText.Ok) << FromText.Error;
  TraceParseResult FromBinary = readTraceFile(BinPath);
  ASSERT_TRUE(FromBinary.Ok) << FromBinary.Error;
  TraceView View = TraceView::open(BinPath);
  ASSERT_TRUE(View.ok()) << View.error();

  for (const NamedSetup &NS : allSetups()) {
    SCOPED_TRACE(NS.Name);
    for (unsigned Shards : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(Shards));
      DetectorSetup Setup = NS.Setup;
      Setup.Shards = Shards;

      AnalysisSession Session(Workload, trialRequest(Setup, Seed));
      AnalysisResult Baseline = Session.analyzeTrace(T);
      expectSameResult(Baseline, Session.analyzeTrace(FromText.T));
      expectSameResult(Baseline, Session.analyzeTrace(FromBinary.T));
      expectSameResult(Baseline, Session.analyzeTrace(View.actions()));

      // The streaming path is sequential; its result must match the
      // sharded in-memory runs too (sharding is bit-identical).
      for (size_t Window : {size_t(97), size_t(1 << 20)}) {
        for (const std::string &Path : {TextPath, BinPath}) {
          StreamingTraceReader Reader(Path, Window);
          ASSERT_TRUE(Reader.ok()) << Reader.error();
          AnalysisResult Streamed = Session.analyzeStream(Reader);
          ASSERT_TRUE(Streamed.Ok) << Streamed.Error;
          expectSameResult(Baseline, Streamed);
        }
      }
    }
  }

  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(StreamingReplayTest, ReplayChunkIsChunkingInvariant) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 3);

  for (const NamedSetup &NS : allSetups()) {
    SCOPED_TRACE(NS.Name);
    AnalysisResult Baseline =
        AnalysisSession(Workload, trialRequest(NS.Setup, 3)).analyzeTrace(T);
    for (size_t Chunk : {size_t(1), size_t(13), size_t(257)}) {
      RaceLog Log;
      std::unique_ptr<Detector> D =
          makeDetector(NS.Setup, Log, Workload, 3);
      std::unique_ptr<SamplingController> Controller;
      if (NS.Setup.Kind == DetectorKind::Pacer) {
        SamplingConfig Sampling = NS.Setup.Sampling;
        Sampling.TargetRate = NS.Setup.SamplingRate;
        Controller = std::make_unique<SamplingController>(
            Sampling, 3 ^ 0x47432121u);
      }
      Runtime RT(*D, Controller.get());
      RT.start();
      for (size_t I = 0; I < T.size(); I += Chunk)
        RT.replayChunk(
            TraceSpan(T.data() + I, std::min(Chunk, T.size() - I)),
            AccessShard::all());
      EXPECT_EQ(Baseline.Races, Log.counts()) << "chunk " << Chunk;
      EXPECT_EQ(Baseline.DynamicRaces, Log.dynamicCount());
      expectSameStats(Baseline.Stats, D->stats());
    }
  }
}

TEST(StreamingReplayTest, StreamedIndexBuildMatchesOneShot) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, 11);
  const unsigned Shards = 4;
  TraceIndex OneShot = TraceIndex::build(T, Shards);

  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    TraceIndex::Builder Builder(Shards);
    for (size_t I = 0; I < T.size(); I += Chunk)
      Builder.addChunk(
          TraceSpan(T.data() + I, std::min(Chunk, T.size() - I)));
    EXPECT_EQ(Builder.accessCount(), OneShot.accessCount());
    TraceIndex Streamed = Builder.take();

    ASSERT_EQ(Streamed.events().size(), OneShot.events().size());
    for (size_t I = 0; I != OneShot.events().size(); ++I) {
      EXPECT_EQ(Streamed.events()[I].Pos, OneShot.events()[I].Pos);
      EXPECT_EQ(Streamed.events()[I].BeginTid, OneShot.events()[I].BeginTid);
    }
    ASSERT_EQ(Streamed.epochs().size(), OneShot.epochs().size());
    for (size_t I = 0; I != OneShot.epochs().size(); ++I) {
      EXPECT_EQ(Streamed.epochs()[I].Begin, OneShot.epochs()[I].Begin);
      EXPECT_EQ(Streamed.epochs()[I].End, OneShot.epochs()[I].End);
    }
    for (unsigned S = 0; S < Shards; ++S) {
      EXPECT_EQ(Streamed.ownedAccessCount(S), OneShot.ownedAccessCount(S));
      ASSERT_EQ(Streamed.runs(S).size(), OneShot.runs(S).size());
      for (size_t I = 0; I != OneShot.runs(S).size(); ++I) {
        EXPECT_EQ(Streamed.runs(S)[I].Begin, OneShot.runs(S)[I].Begin);
        EXPECT_EQ(Streamed.runs(S)[I].End, OneShot.runs(S)[I].End);
        EXPECT_EQ(Streamed.runs(S)[I].Epoch, OneShot.runs(S)[I].Epoch);
      }
    }
  }
}

TEST(StreamingReplayTest, StreamHonoursElideLocalAccesses) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 5;
  Trace T = generateTrace(Workload, Seed);
  std::string Path = ::testing::TempDir() + "/pacer_elide.btrace";
  ASSERT_TRUE(writeTraceFile(Path, T, TraceFormat::Binary));

  DetectorSetup Setup = fastTrackSetup();
  Setup.ElideLocalAccesses = true;
  AnalysisSession Session(Workload, trialRequest(Setup, Seed));
  AnalysisResult Baseline = Session.analyzeTrace(T);

  StreamingTraceReader Reader(Path, 61);
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  AnalysisResult Streamed = Session.analyzeStream(Reader);
  ASSERT_TRUE(Streamed.Ok) << Streamed.Error;
  expectSameResult(Baseline, Streamed);
  std::remove(Path.c_str());
}

TEST(StreamingReplayTest, StreamErrorSurfacesThroughTrialRunner) {
  CompiledWorkload Workload(tinyTestWorkload());
  StreamingTraceReader Reader("/nonexistent/path/x.trace");
  AnalysisResult Result =
      AnalysisSession(Workload, trialRequest(fastTrackSetup(), 1))
          .analyzeStream(Reader);
  EXPECT_FALSE(Result.Ok);
  EXPECT_FALSE(Result.Error.empty());
  EXPECT_EQ(Result.TraceEvents, 0u);
}

} // namespace
