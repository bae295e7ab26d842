//===- tests/runtime/AnalysisSessionTest.cpp ------------------------------==//
//
// Regression pins for the AnalysisSession facade: the legacy entry points
// (runTrial / runTrialOnTrace / runTrialOnStream, now thin wrappers) are
// exactly equal to direct session calls for every detector kind at shard
// counts 1 and 4, and the four analyze* paths over the same input --
// in-memory trace, whole-file load, streamed file, explicit reader --
// agree bit-for-bit on everything the analysis computes. These equalities
// are what made consolidating four replay entry points behind one facade
// safe, and they must survive future refactors of either layer.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"

#include "harness/TrialRunner.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace pacer;

namespace {

/// DetectorStats is a flat aggregate of u64 counters; bytewise equality
/// is field equality.
bool sameStats(const DetectorStats &A, const DetectorStats &B) {
  return std::memcmp(&A, &B, sizeof(DetectorStats)) == 0;
}

/// Sorted race keys of the sample reports (sharded replay reorders the
/// cross-shard report sequence; the set is what is stable).
std::vector<RaceKey> reportKeys(const std::vector<RaceReport> &Reports) {
  std::vector<RaceKey> Keys;
  for (const RaceReport &Report : Reports)
    Keys.push_back({std::min(Report.FirstSite, Report.SecondSite),
                    std::max(Report.FirstSite, Report.SecondSite)});
  std::sort(Keys.begin(), Keys.end(), [](RaceKey A, RaceKey B) {
    return A.FirstSite != B.FirstSite ? A.FirstSite < B.FirstSite
                                      : A.SecondSite < B.SecondSite;
  });
  return Keys;
}

void expectSameTrial(const TrialResult &A, const TrialResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Races, B.Races) << What;
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces) << What;
  EXPECT_TRUE(sameStats(A.Stats, B.Stats)) << What;
  EXPECT_DOUBLE_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate) << What;
  EXPECT_DOUBLE_EQ(A.EffectiveSyncRate, B.EffectiveSyncRate) << What;
  EXPECT_DOUBLE_EQ(A.LiteRaceEffectiveRate, B.LiteRaceEffectiveRate)
      << What;
  EXPECT_EQ(A.Boundaries, B.Boundaries) << What;
  EXPECT_EQ(A.TraceEvents, B.TraceEvents) << What;
}

void expectSameAnalysis(const AnalysisResult &A, const AnalysisResult &B,
                        const std::string &What) {
  ASSERT_TRUE(A.Ok) << What << ": " << A.Error;
  ASSERT_TRUE(B.Ok) << What << ": " << B.Error;
  expectSameTrial(A.trial(), B.trial(), What);
  EXPECT_EQ(reportKeys(A.SampleReports), reportKeys(B.SampleReports))
      << What;
}

/// Equality on everything the analysis computes, reports in order: what
/// two runs of the same sequential replay must share.
void expectBitIdentical(const AnalysisResult &A, const AnalysisResult &B,
                        const std::string &What) {
  expectSameAnalysis(A, B, What);
  EXPECT_EQ(A.FinalMetadataBytes, B.FinalMetadataBytes) << What;
  EXPECT_EQ(A.PeakSlotCount, B.PeakSlotCount) << What;
  EXPECT_EQ(A.HotAccesses, B.HotAccesses) << What;
  EXPECT_EQ(A.ColdAccesses, B.ColdAccesses) << What;
  ASSERT_EQ(A.SampleReports.size(), B.SampleReports.size()) << What;
  for (size_t I = 0; I != A.SampleReports.size(); ++I)
    EXPECT_EQ(A.SampleReports[I].str(), B.SampleReports[I].str())
        << What << " report " << I;
}

/// Every detector kind, with PACER configured to cross many sampling
/// periods on the tiny workload.
std::vector<std::pair<std::string, DetectorSetup>> detectorMatrix() {
  DetectorSetup Pacer = pacerSetup(0.3);
  Pacer.Sampling.PeriodBytes = 16 * 1024;
  return {{"generic", genericSetup()},
          {"fasttrack", fastTrackSetup()},
          {"pacer_r30", Pacer},
          {"literace", literaceSetup(100)}};
}

AnalysisRequest requestFor(DetectorSetup Setup, unsigned Shards,
                           uint64_t Seed, bool CollectReports) {
  AnalysisRequest Request;
  Request.Setup = std::move(Setup);
  Request.Setup.Shards = Shards;
  Request.Setup.ShardJobs = 1; // Deterministic and CI-friendly.
  Request.Seed = Seed;
  Request.CollectReports = CollectReports;
  return Request;
}

TEST(AnalysisSessionTest, LegacyWrappersEqualDirectSessionCalls) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 11;
  Trace T = generateTrace(Workload, Seed);

  for (const auto &[Name, Setup] : detectorMatrix()) {
    for (unsigned Shards : {1u, 4u}) {
      DetectorSetup Sharded = Setup;
      Sharded.Shards = Shards;
      Sharded.ShardJobs = 1;
      const std::string What = Name + " K=" + std::to_string(Shards);

      // The wrappers run with CollectReports off (the legacy API never
      // exposed reports); mirror that in the direct calls.
      AnalysisSession Session(
          Workload, requestFor(Setup, Shards, Seed, /*CollectReports=*/false));

      expectSameTrial(runTrial(Workload, Sharded, Seed),
                      Session.analyzeGenerated().trial(),
                      What + " runTrial");
      expectSameTrial(runTrialOnTrace(T, Workload, Sharded, Seed),
                      Session.analyzeTrace(T).trial(),
                      What + " runTrialOnTrace");
    }
  }
}

TEST(AnalysisSessionTest, StreamWrapperEqualsDirectStreamCall) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 13;
  Trace T = generateTrace(Workload, Seed);
  std::string Path =
      ::testing::TempDir() + "/pacer_session_stream.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (const auto &[Name, Setup] : detectorMatrix()) {
    StreamingTraceReader WrapperReader(Path, /*WindowActions=*/512);
    ASSERT_TRUE(WrapperReader.ok()) << WrapperReader.error();
    std::string Error;
    TrialResult Legacy =
        runTrialOnStream(WrapperReader, Workload, Setup, Seed, &Error);
    EXPECT_TRUE(Error.empty()) << Error;

    StreamingTraceReader SessionReader(Path, 512);
    AnalysisSession Session(Workload,
                            requestFor(Setup, 1, Seed, false));
    AnalysisResult Direct = Session.analyzeStream(SessionReader);
    ASSERT_TRUE(Direct.Ok) << Direct.Error;
    expectSameTrial(Legacy, Direct.trial(), Name + " stream");
  }
  std::remove(Path.c_str());
}

TEST(AnalysisSessionTest, AllInputPathsAgreeBitForBit) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 17;
  Trace T = generateTrace(Workload, Seed);
  std::string Path = ::testing::TempDir() + "/pacer_session_paths.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (const auto &[Name, Setup] : detectorMatrix()) {
    for (unsigned Shards : {1u, 4u}) {
      AnalysisSession Session(
          Workload, requestFor(Setup, Shards, Seed, /*CollectReports=*/true));
      const std::string What = Name + " K=" + std::to_string(Shards);

      AnalysisResult FromTrace = Session.analyzeTrace(T);
      AnalysisResult FromFile = Session.analyzeFile(Path);
      expectSameAnalysis(FromTrace, FromFile, What + " file");
      EXPECT_EQ(FromFile.ResolvedShards, Shards) << What;

      // Streamed file analysis: same numbers from O(window) memory.
      AnalysisRequest Streamed =
          requestFor(Setup, Shards, Seed, /*CollectReports=*/true);
      Streamed.Stream = true;
      Streamed.StreamWindow = 700; // Forces many windows on ~10k actions.
      AnalysisResult FromStreamedFile =
          AnalysisSession(Workload, Streamed).analyzeFile(Path);
      expectSameAnalysis(FromTrace, FromStreamedFile, What + " streamed");
    }
  }
  std::remove(Path.c_str());
}

TEST(AnalysisSessionTest, ShardCountsAgreeAndAutoResolves) {
  CompiledWorkload Workload(tinyTestWorkload());
  const uint64_t Seed = 19;
  Trace T = generateTrace(Workload, Seed);
  DetectorSetup Setup = fastTrackSetup();

  AnalysisResult Sequential =
      AnalysisSession(Workload, requestFor(Setup, 1, Seed, true))
          .analyzeTrace(T);
  AnalysisResult Sharded =
      AnalysisSession(Workload, requestFor(Setup, 4, Seed, true))
          .analyzeTrace(T);
  expectSameAnalysis(Sequential, Sharded, "K=1 vs K=4");
  EXPECT_EQ(Sequential.ResolvedShards, 1u);
  EXPECT_EQ(Sharded.ResolvedShards, 4u);

  // Auto shards (Shards = 0) replay sequentially: one shard, no index,
  // and the very same result as Shards = 1 on every input path.
  AnalysisResult Auto =
      AnalysisSession(Workload, requestFor(Setup, 0, Seed, true))
          .analyzeTrace(T);
  EXPECT_EQ(Auto.ResolvedShards, 1u);
  expectBitIdentical(Sequential, Auto, "K=1 vs auto");

  const std::string Binary =
      ::testing::TempDir() + "/pacer_session_auto.btrace";
  const std::string Text = ::testing::TempDir() + "/pacer_session_auto.trace";
  ASSERT_TRUE(writeTraceFileBinary(Binary, T));
  ASSERT_TRUE(writeTraceFile(Text, T));
  for (const auto &[Name, Each] : detectorMatrix()) {
    for (const std::string &Path : {Binary, Text}) {
      for (bool Stream : {false, true}) {
        const std::string What =
            Name + " " + Path + (Stream ? " streamed" : " in memory");
        AnalysisRequest One = requestFor(Each, 1, Seed, true);
        One.Stream = Stream;
        One.StreamWindow = 700;
        AnalysisRequest Zero = One;
        Zero.Setup.Shards = 0;
        AnalysisResult FromOne =
            AnalysisSession(Workload, One).analyzeFile(Path);
        AnalysisResult FromAuto =
            AnalysisSession(Workload, Zero).analyzeFile(Path);
        EXPECT_EQ(FromAuto.ResolvedShards, 1u) << What;
        EXPECT_EQ(FromAuto.IndexSeconds, 0.0) << What;
        EXPECT_TRUE(FromAuto.Notes.empty()) << What << ": " << FromAuto.Notes;
        expectBitIdentical(FromOne, FromAuto, What);
      }
    }
  }
  std::remove(Binary.c_str());
  std::remove(Text.c_str());
}

TEST(AnalysisSessionTest, RepeatedCallsAreIndependentAndDeterministic) {
  // The session is stateless across calls: the third analysis of the
  // same trace equals the first.
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 23);
  DetectorSetup Pacer = pacerSetup(0.4);
  Pacer.Sampling.PeriodBytes = 16 * 1024;
  AnalysisSession Session(Workload, requestFor(Pacer, 1, 23, true));

  AnalysisResult First = Session.analyzeTrace(T);
  Session.analyzeTrace(T);
  AnalysisResult Third = Session.analyzeTrace(T);
  expectSameAnalysis(First, Third, "repeat");
}

TEST(AnalysisSessionTest, FileErrorsSurfaceCleanly) {
  CompiledWorkload Workload(flatSiteWorkload());
  AnalysisSession Session(Workload, AnalysisRequest{});

  AnalysisResult Missing =
      Session.analyzeFile(::testing::TempDir() + "/pacer_no_such.trace");
  EXPECT_FALSE(Missing.Ok);
  EXPECT_FALSE(Missing.Error.empty());

  std::string Path = ::testing::TempDir() + "/pacer_session_bad.trace";
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(Out, nullptr);
  std::fputs("pacer-trace v1 1\nnot an action\n", Out);
  std::fclose(Out);
  AnalysisResult Corrupt = Session.analyzeFile(Path);
  EXPECT_FALSE(Corrupt.Ok);
  EXPECT_FALSE(Corrupt.Error.empty());
  std::remove(Path.c_str());
}

} // namespace
