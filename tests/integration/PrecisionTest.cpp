//===- tests/integration/PrecisionTest.cpp --------------------------------==//
//
// Precision (no false positives) end to end: every race any detector
// reports on a generated workload must be one of the planted racy site
// pairs -- all other accesses are ordered by construction (lock
// discipline, read-only sharing, thread locality, fork/join waves).
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace pacer;

namespace {

class PrecisionTest : public ::testing::TestWithParam<uint64_t> {
protected:
  static std::set<RaceKey> plantedKeys(const CompiledWorkload &Workload) {
    std::set<RaceKey> Keys;
    for (uint32_t Race = 0; Race < Workload.numRaces(); ++Race)
      Keys.insert(Workload.racyKey(Race));
    return Keys;
  }

  void expectOnlyPlanted(const CompiledWorkload &Workload,
                         const DetectorSetup &Setup) {
    AnalysisResult Result =
        AnalysisSession(Workload, trialRequest(Setup, GetParam()))
            .analyzeGenerated();
    std::set<RaceKey> Planted = plantedKeys(Workload);
    for (const auto &[Key, Count] : Result.Races)
      EXPECT_TRUE(Planted.count(Key))
          << detectorKindName(Setup.Kind) << " false positive ("
          << Key.FirstSite << "," << Key.SecondSite << ")";
  }
};

TEST_P(PrecisionTest, GenericIsPrecise) {
  CompiledWorkload Workload(tinyTestWorkload());
  expectOnlyPlanted(Workload, genericSetup());
}

TEST_P(PrecisionTest, FastTrackIsPrecise) {
  CompiledWorkload Workload(tinyTestWorkload());
  expectOnlyPlanted(Workload, fastTrackSetup());
}

TEST_P(PrecisionTest, PacerIsPreciseAtEveryRate) {
  CompiledWorkload Workload(tinyTestWorkload());
  for (double Rate : {0.02, 0.1, 0.5, 1.0}) {
    DetectorSetup Setup = pacerSetup(Rate);
    Setup.Sampling.PeriodBytes = 8 * 1024;
    expectOnlyPlanted(Workload, Setup);
  }
}

TEST_P(PrecisionTest, LiteRaceIsPrecise) {
  CompiledWorkload Workload(tinyTestWorkload());
  expectOnlyPlanted(Workload, literaceSetup(50));
}

TEST_P(PrecisionTest, MediumWorkloadPrecision) {
  CompiledWorkload Workload(mediumTestWorkload());
  expectOnlyPlanted(Workload, fastTrackSetup());
  DetectorSetup Setup = pacerSetup(0.2);
  Setup.Sampling.PeriodBytes = 32 * 1024;
  expectOnlyPlanted(Workload, Setup);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrecisionTest,
                         ::testing::Range<uint64_t>(1, 11));

} // namespace
