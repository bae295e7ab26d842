//===- tests/runtime/FleetAggregatorTest.cpp ------------------------------==//

#include "runtime/FleetAggregator.h"

#include "runtime/AnalysisSession.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace pacer;

namespace {

RaceReport report(SiteId First, SiteId Second) {
  RaceReport Report;
  Report.Var = 1;
  Report.FirstSite = First;
  Report.SecondSite = Second;
  return Report;
}

TEST(FleetAggregatorTest, CountsInstancesAndRaces) {
  FleetAggregator Fleet(0.1);
  RaceLog LogA, LogB;
  LogA.onRace(report(1, 2));
  LogA.onRace(report(1, 2));
  LogB.onRace(report(3, 4));
  Fleet.addInstance(LogA);
  Fleet.addInstance(LogB);
  Fleet.addInstance(RaceLog()); // Clean run.
  EXPECT_EQ(Fleet.instanceCount(), 3u);
  EXPECT_EQ(Fleet.distinctRaceCount(), 2u);
}

TEST(FleetAggregatorTest, OccurrenceEstimateInvertsSamplingRate) {
  // A race reported by 10 of 100 instances at r = 20% occurs in an
  // estimated 50% of runs.
  FleetAggregator Fleet(0.2);
  for (int Instance = 0; Instance < 100; ++Instance) {
    RaceLog Log;
    if (Instance < 10)
      Log.onRace(report(1, 2));
    Fleet.addInstance(Log);
  }
  std::vector<FleetRaceInfo> Summary = Fleet.summarize();
  ASSERT_EQ(Summary.size(), 1u);
  EXPECT_NEAR(Summary[0].EstimatedOccurrence, 0.5, 1e-9);
  EXPECT_EQ(Summary[0].InstancesReporting, 10u);
  // The CI brackets the observed 10% detection rate.
  EXPECT_LE(Summary[0].DetectionCI.Low, 0.10);
  EXPECT_GE(Summary[0].DetectionCI.High, 0.10);
}

TEST(FleetAggregatorTest, OccurrenceClampedToOne) {
  FleetAggregator Fleet(0.05);
  for (int Instance = 0; Instance < 10; ++Instance) {
    RaceLog Log;
    Log.onRace(report(1, 2));
    Fleet.addInstance(Log); // Every instance reports: o*r estimate > 1.
  }
  EXPECT_DOUBLE_EQ(Fleet.summarize()[0].EstimatedOccurrence, 1.0);
}

TEST(FleetAggregatorTest, SummarySortedByOccurrence) {
  FleetAggregator Fleet(0.5);
  for (int Instance = 0; Instance < 20; ++Instance) {
    RaceLog Log;
    Log.onRace(report(1, 2)); // Every run.
    if (Instance % 4 == 0)
      Log.onRace(report(3, 4)); // Quarter of runs.
    Fleet.addInstance(Log);
  }
  std::vector<FleetRaceInfo> Summary = Fleet.summarize();
  ASSERT_EQ(Summary.size(), 2u);
  EXPECT_EQ(Summary[0].Key, (RaceKey{1, 2}));
  EXPECT_GT(Summary[0].EstimatedOccurrence,
            Summary[1].EstimatedOccurrence);
}

TEST(FleetAggregatorTest, KeepsAnExampleReport) {
  FleetAggregator Fleet(1.0);
  RaceLog Log;
  RaceReport Full = report(9, 4);
  Full.FirstThread = 3;
  Full.SecondThread = 7;
  Log.onRace(Full);
  Fleet.addInstance(Log);
  std::vector<FleetRaceInfo> Summary = Fleet.summarize();
  ASSERT_EQ(Summary.size(), 1u);
  EXPECT_EQ(Summary[0].Example.FirstThread, 3u);
  EXPECT_EQ(Summary[0].Example.SecondThread, 7u);
}

TEST(FleetAggregatorTest, CoverageProbabilityFormula) {
  FleetAggregator Fleet(0.1);
  // o=0.5, r=0.1 => per-instance 0.05; k=10 => 1 - 0.95^10.
  EXPECT_NEAR(Fleet.coverageProbability(0.5, 10),
              1.0 - std::pow(0.95, 10), 1e-12);
  EXPECT_DOUBLE_EQ(Fleet.coverageProbability(0.0, 100), 0.0);
  EXPECT_GT(Fleet.coverageProbability(1.0, 1000), 0.9999);
}

TEST(FleetAggregatorTest, FleetSizeInvertsCoverage) {
  FleetAggregator Fleet(0.02);
  for (double Occurrence : {1.0, 0.3, 0.05}) {
    for (double Confidence : {0.5, 0.9, 0.99}) {
      uint32_t K = Fleet.fleetSizeFor(Occurrence, Confidence);
      ASSERT_GT(K, 0u);
      EXPECT_GE(Fleet.coverageProbability(Occurrence, K), Confidence);
      if (K > 1)
        EXPECT_LT(Fleet.coverageProbability(Occurrence, K - 1), Confidence);
    }
  }
}

TEST(FleetAggregatorTest, FleetSizeDegenerateInputs) {
  FleetAggregator Fleet(0.1);
  EXPECT_EQ(Fleet.fleetSizeFor(0.0, 0.9), 0u) << "never-occurring race";
  EXPECT_EQ(Fleet.fleetSizeFor(0.5, 1.0), 0u) << "certainty unreachable";
  FleetAggregator Full(1.0);
  EXPECT_EQ(Full.fleetSizeFor(1.0, 0.99), 1u) << "certain race, full rate";
}

TEST(FleetAggregatorTest, EffectiveRatesRefineEstimates) {
  // Specified 10% but instances measured 50%: 1 of 10 instances reporting
  // means occurrence 0.1/0.5 = 0.2, not 0.1/0.1 = 1.0.
  FleetAggregator Fleet(0.10);
  for (int Instance = 0; Instance < 10; ++Instance) {
    RaceLog Log;
    if (Instance == 0)
      Log.onRace(report(1, 2));
    Fleet.addInstance(Log, 0.5);
  }
  EXPECT_DOUBLE_EQ(Fleet.meanEffectiveRate(), 0.5);
  std::vector<FleetRaceInfo> Summary = Fleet.summarize();
  EXPECT_NEAR(Summary[0].EstimatedOccurrence, 0.2, 1e-9);
}

TEST(FleetAggregatorTest, EndToEndEstimatesMatchPlantedOccurrence) {
  // Deploy PACER at 25% on a workload whose certain races occur every
  // run; the fleet estimate should land near 1.0 for those races.
  WorkloadSpec Spec = tinyTestWorkload();
  CompiledWorkload Workload(Spec);
  DetectorSetup Setup = pacerSetup(0.25);
  Setup.Sampling.PeriodBytes = 12 * 1024;
  FleetAggregator Fleet(0.25);
  for (uint64_t Instance = 0; Instance < 60; ++Instance) {
    AnalysisResult Result =
        AnalysisSession(Workload, trialRequest(Setup, 40000 + Instance))
            .analyzeGenerated();
    RaceLog Log;
    for (const auto &[Key, Count] : Result.Races) {
      RaceReport Report;
      Report.FirstSite = Key.FirstSite;
      Report.SecondSite = Key.SecondSite;
      for (uint64_t I = 0; I < Count; ++I)
        Log.onRace(Report);
    }
    Fleet.addInstance(Log, Result.EffectiveAccessRate);
  }
  std::vector<FleetRaceInfo> Summary = Fleet.summarize();
  ASSERT_GE(Summary.size(), 4u);
  // The top races (the certain ones) should have occurrence estimates
  // well above the rare ones' and near 1.
  EXPECT_GT(Summary[0].EstimatedOccurrence, 0.6);
}

} // namespace
