//===- tests/harness/TrialRunnerTest.cpp ----------------------------------==//
//
// One experiment trial: generate the workload's trace for a seed and
// replay it through AnalysisSession::analyzeGenerated, as the detection,
// ablation and operation-count studies do for every trial.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"

#include "sim/Workloads.h"

#include <gtest/gtest.h>

using namespace pacer;

namespace {

TEST(TrialRunnerTest, FastTrackFindsCertainRacesInTinyWorkload) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, trialRequest(fastTrackSetup(), 1))
          .analyzeGenerated();
  EXPECT_GT(Result.TraceEvents, 1000u);
  EXPECT_GT(Result.DynamicRaces, 0u);
  EXPECT_FALSE(Result.Races.empty());
  EXPECT_GT(Result.ReplaySeconds, 0.0);
  EXPECT_GT(Result.FinalMetadataBytes, 0u);
}

TEST(TrialRunnerTest, ReportedKeysAreRacyPairs) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, trialRequest(fastTrackSetup(), 2))
          .analyzeGenerated();
  std::set<RaceKey> Planted;
  for (uint32_t Race = 0; Race < Workload.numRaces(); ++Race)
    Planted.insert(Workload.racyKey(Race));
  for (const auto &[Key, Count] : Result.Races) {
    EXPECT_TRUE(Planted.count(Key))
        << "every detected race must be a planted one (" << Key.FirstSite
        << "," << Key.SecondSite << ")";
    EXPECT_GT(Count, 0u);
  }
}

TEST(TrialRunnerTest, PacerAtZeroFindsNothing) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, trialRequest(pacerSetup(0.0), 1))
          .analyzeGenerated();
  EXPECT_EQ(Result.DynamicRaces, 0u);
  EXPECT_DOUBLE_EQ(Result.EffectiveAccessRate, 0.0);
}

TEST(TrialRunnerTest, PacerAtFullRateMatchesFastTrackKeys) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult FastTrack =
      AnalysisSession(Workload, trialRequest(fastTrackSetup(), 3))
          .analyzeGenerated();
  AnalysisResult Pacer =
      AnalysisSession(Workload, trialRequest(pacerSetup(1.0), 3))
          .analyzeGenerated();
  EXPECT_EQ(FastTrack.Races.size(), Pacer.Races.size());
  for (const auto &[Key, Count] : FastTrack.Races)
    EXPECT_EQ(Pacer.dynamicCount(Key), Count);
  EXPECT_NEAR(Pacer.EffectiveAccessRate, 1.0, 1e-9);
}

TEST(TrialRunnerTest, DeterministicAcrossRuns) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult A =
      AnalysisSession(Workload, trialRequest(pacerSetup(0.3), 5))
          .analyzeGenerated();
  AnalysisResult B =
      AnalysisSession(Workload, trialRequest(pacerSetup(0.3), 5))
          .analyzeGenerated();
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces);
  EXPECT_EQ(A.Races, B.Races);
  EXPECT_DOUBLE_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate);
}

TEST(TrialRunnerTest, PacerPopulatesSamplingFields) {
  CompiledWorkload Workload(tinyTestWorkload());
  DetectorSetup Setup = pacerSetup(0.5);
  Setup.Sampling.PeriodBytes = 16 * 1024;
  AnalysisResult Result =
      AnalysisSession(Workload, trialRequest(Setup, 7)).analyzeGenerated();
  EXPECT_GT(Result.Boundaries, 0u);
  EXPECT_GT(Result.EffectiveAccessRate, 0.0);
  EXPECT_GT(Result.EffectiveSyncRate, 0.0);
}

TEST(TrialRunnerTest, LiteRacePopulatesEffectiveRate) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, trialRequest(literaceSetup(100), 1))
          .analyzeGenerated();
  EXPECT_GT(Result.LiteRaceEffectiveRate, 0.0);
  EXPECT_LE(Result.LiteRaceEffectiveRate, 1.0);
}

TEST(TrialRunnerTest, MakeDetectorProducesEveryKind) {
  CompiledWorkload Workload(tinyTestWorkload());
  NullRaceSink Sink;
  for (DetectorSetup Setup :
       {nullSetup(), genericSetup(), fastTrackSetup(), pacerSetup(0.1),
        literaceSetup()}) {
    std::unique_ptr<Detector> D = makeDetector(Setup, Sink, Workload, 1);
    ASSERT_NE(D, nullptr);
    EXPECT_STREQ(D->name(), detectorKindName(Setup.Kind));
  }
}

TEST(TrialRunnerTest, NullDetectorBaselineIsCheapest) {
  CompiledWorkload Workload(tinyTestWorkload());
  AnalysisResult Null =
      AnalysisSession(Workload, trialRequest(nullSetup(), 1))
          .analyzeGenerated();
  EXPECT_EQ(Null.DynamicRaces, 0u);
  EXPECT_EQ(Null.FinalMetadataBytes, 0u);
}

TEST(TrialRunnerTest, EscapeAnalysisElisionKeepsRacesDropsLocals) {
  // Section 4: the compiler pass does not instrument provably local
  // accesses. Eliding them must not change the races found (locals never
  // race) but removes their instrumentation entirely.
  CompiledWorkload Workload(tinyTestWorkload());
  DetectorSetup Plain = fastTrackSetup();
  DetectorSetup Elided = fastTrackSetup();
  Elided.ElideLocalAccesses = true;
  AnalysisResult WithLocals =
      AnalysisSession(Workload, trialRequest(Plain, 4)).analyzeGenerated();
  AnalysisResult WithoutLocals =
      AnalysisSession(Workload, trialRequest(Elided, 4)).analyzeGenerated();
  EXPECT_EQ(WithLocals.Races, WithoutLocals.Races);
  EXPECT_LT(WithoutLocals.Stats.totalReads() +
                WithoutLocals.Stats.totalWrites(),
            (WithLocals.Stats.totalReads() + WithLocals.Stats.totalWrites()) /
                2)
      << "local accesses dominate the tiny workload's traffic";
}

TEST(TrialRunnerTest, GenericAndFastTrackAgreeOnRaceExistence) {
  CompiledWorkload Workload(tinyTestWorkload());
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    AnalysisResult Generic =
        AnalysisSession(Workload, trialRequest(genericSetup(), Seed))
            .analyzeGenerated();
    AnalysisResult FastTrack =
        AnalysisSession(Workload, trialRequest(fastTrackSetup(), Seed))
            .analyzeGenerated();
    EXPECT_EQ(Generic.Races.empty(), FastTrack.Races.empty());
  }
}

} // namespace
