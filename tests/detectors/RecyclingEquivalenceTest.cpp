//===- tests/detectors/RecyclingEquivalenceTest.cpp -----------------------==//
//
// The contract ISSUE 6 ships on: for every detector, every shard count,
// and both sharded-replay engines, the races a trial reports are exactly
// the same with accordion thread-slot recycling on and off -- recycling
// only discards metadata that domination proves can never start a race.
// On top of the equality matrix, the space claim: with recycling on, the
// peak slot count never exceeds the off run's (and on thread-churn
// workloads is strictly smaller).
//
// Sweeps stay deliberately small (tiny/forkjoin workloads, two seeds):
// the matrix is detectors {generic, fasttrack, pacer, literace} x shards
// {1, 4} x engine {full-scan, index} x recycling {off, on}.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace pacer;

namespace {

struct NamedSetup {
  std::string Name;
  DetectorSetup Setup;
};

std::vector<NamedSetup> detectorSetups() {
  // A mid-range sampling rate with small periods exercises PACER's
  // discard path alongside recycling; the controller's decisions depend
  // only on the seed and event sizes, so they are recycling-invariant.
  DetectorSetup Pacer = pacerSetup(0.4);
  Pacer.Sampling.PeriodBytes = 8 * 1024;
  return {{"generic", genericSetup()},
          {"fasttrack", fastTrackSetup()},
          {"pacer", Pacer},
          {"literace", literaceSetup(500)}};
}

/// The fields recycling must not change. Stats counters (join fast/slow
/// splits, clock allocations) legitimately differ -- recycling exists to
/// change those -- so equality is over the reported races.
void expectSameRaces(const AnalysisResult &A, const AnalysisResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Races, B.Races) << What;
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces) << What;
  EXPECT_EQ(A.TraceEvents, B.TraceEvents) << What;
}

} // namespace

TEST(RecyclingEquivalenceTest, ReportsIdenticalAcrossDetectorsShardsEngines) {
  for (const WorkloadSpec &Spec :
       {tinyTestWorkload(), forkJoinModelWithTasks(60)}) {
    CompiledWorkload Workload(Spec);
    for (uint64_t Seed : {1ull, 9ull}) {
      Trace T = generateTrace(Workload, Seed);
      for (const NamedSetup &NS : detectorSetups()) {
        for (unsigned Shards : {1u, 4u}) {
          for (bool UseIndex : {false, true}) {
            const std::string What = Spec.Name + "/" + NS.Name +
                                     "/shards=" + std::to_string(Shards) +
                                     (UseIndex ? "/index" : "/scan") +
                                     "/seed=" + std::to_string(Seed);
            DetectorSetup Off = NS.Setup;
            Off.Shards = Shards;
            Off.ShardUseIndex = UseIndex;
            DetectorSetup On = Off;
            On.AccordionClocks = true;

            AnalysisResult OffResult =
                AnalysisSession(Workload, trialRequest(Off, Seed))
                    .analyzeTrace(T);
            AnalysisResult OnResult =
                AnalysisSession(Workload, trialRequest(On, Seed))
                    .analyzeTrace(T);
            expectSameRaces(OffResult, OnResult, What);
            EXPECT_LE(OnResult.PeakSlotCount, OffResult.PeakSlotCount)
                << What;
          }
        }
      }
    }
  }
}

TEST(RecyclingEquivalenceTest, RecyclingOnMatchesSequentialAcrossEngines) {
  // With recycling on, every engine/shard combination must also agree
  // with the sequential replay -- recycling decisions are a pure function
  // of the sync prefix, which all replicas share.
  CompiledWorkload Workload(forkJoinModelWithTasks(60));
  Trace T = generateTrace(Workload, 5);
  for (const NamedSetup &NS : detectorSetups()) {
    DetectorSetup Sequential = NS.Setup;
    Sequential.AccordionClocks = true;
    Sequential.Shards = 1;
    AnalysisResult Baseline =
        AnalysisSession(Workload, trialRequest(Sequential, 5)).analyzeTrace(T);
    for (unsigned Shards : {2u, 4u}) {
      for (bool UseIndex : {false, true}) {
        DetectorSetup Setup = Sequential;
        Setup.Shards = Shards;
        Setup.ShardUseIndex = UseIndex;
        AnalysisResult Sharded =
            AnalysisSession(Workload, trialRequest(Setup, 5)).analyzeTrace(T);
        expectSameRaces(Baseline, Sharded,
                        NS.Name + "/shards=" + std::to_string(Shards) +
                            (UseIndex ? "/index" : "/scan"));
        // Replica 0 sees the identical sync stream, so even the peak slot
        // count is engine- and shard-invariant.
        EXPECT_EQ(Sharded.PeakSlotCount, Baseline.PeakSlotCount) << NS.Name;
      }
    }
  }
}

TEST(RecyclingEquivalenceTest, ThreadChurnShrinksPeakSlots) {
  // On the fork/join family the bound is strict: hundreds of tasks, a
  // fixed live cap, so recycling must hold the peak far below the total.
  CompiledWorkload Workload(forkJoinModelWithTasks(100));
  Trace T = generateTrace(Workload, 2);
  for (const NamedSetup &NS : detectorSetups()) {
    DetectorSetup Off = NS.Setup;
    DetectorSetup On = Off;
    On.AccordionClocks = true;
    AnalysisResult OffResult =
        AnalysisSession(Workload, trialRequest(Off, 2)).analyzeTrace(T);
    AnalysisResult OnResult =
        AnalysisSession(Workload, trialRequest(On, 2)).analyzeTrace(T);
    EXPECT_EQ(OffResult.PeakSlotCount, Workload.totalThreads()) << NS.Name;
    EXPECT_LT(OnResult.PeakSlotCount, OffResult.PeakSlotCount / 2)
        << NS.Name << ": recycling must bound slots by live threads";
  }
}
