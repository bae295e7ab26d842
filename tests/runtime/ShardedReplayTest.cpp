//===- tests/runtime/ShardedReplayTest.cpp --------------------------------==//
//
// The sharded replay engine's core contract: a trial analysed across K
// variable shards is *bit-identical* to the sequential trial -- same
// races with the same dynamic counts, same operation statistics, same
// metadata bytes, same effective rates -- for every detector and every
// shard count, including shard counts that do not divide the variable
// space evenly. EXPECT_EQ / exact double comparison throughout, exactly
// like the jobs-invariance tests for the trial-level engine.
//
// Also covers the batched detector API itself: every accessBatch override
// must be observationally identical to the base-class per-action loop.
//
//===----------------------------------------------------------------------===//

#include "detectors/FastTrackDetector.h"
#include "detectors/LiteRaceDetector.h"
#include "detectors/PacerDetector.h"
#include "runtime/AnalysisSession.h"
#include "runtime/RaceLog.h"
#include "runtime/Runtime.h"
#include "runtime/ShardedReplay.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

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
    ASSERT_TRUE(It != B.Races.end()) << "race key missing in sharded run";
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
  // Small periods so the trial crosses many sampling boundaries; the
  // boundary schedule has to stay aligned across replicas.
  PacerSampled.Sampling.PeriodBytes = 12 * 1024;
  return {{"pacer_r3", PacerSampled},
          {"pacer_r100", pacerSetup(1.0)},
          {"fasttrack", fastTrackSetup()},
          {"generic", genericSetup()},
          {"literace", literaceSetup()}};
}

void expectShardInvariant(const WorkloadSpec &Spec, uint64_t Seed,
                          std::initializer_list<unsigned> ShardCounts) {
  CompiledWorkload Workload(Spec);
  for (const NamedSetup &NS : allSetups()) {
    DetectorSetup Sequential = NS.Setup;
    Sequential.Shards = 1;
    AnalysisResult Baseline =
        AnalysisSession(Workload, trialRequest(Sequential, Seed))
            .analyzeGenerated();
    // Both sharded engines -- full-scan replicas and the TraceIndex walk
    // -- must reproduce the sequential result exactly.
    for (bool UseIndex : {false, true}) {
      for (unsigned Shards : ShardCounts) {
        DetectorSetup Sharded = NS.Setup;
        Sharded.Shards = Shards;
        Sharded.ShardUseIndex = UseIndex;
        AnalysisResult Result =
            AnalysisSession(Workload, trialRequest(Sharded, Seed))
                .analyzeGenerated();
        SCOPED_TRACE(std::string(NS.Name) + " shards=" +
                     std::to_string(Shards) +
                     (UseIndex ? " indexed" : " full-scan"));
        expectSameResult(Baseline, Result);
      }
    }
  }
}

} // namespace

TEST(ShardedReplayTest, TinyWorkloadIdenticalAcrossShardCounts) {
  expectShardInvariant(tinyTestWorkload(), /*Seed=*/7, {1, 2, 4, 7});
}

TEST(ShardedReplayTest, MediumWorkloadIdenticalAcrossShardCounts) {
  expectShardInvariant(mediumTestWorkload(), /*Seed=*/1234, {1, 2, 4, 7});
}

TEST(ShardedReplayTest, ScaledPaperWorkloadIdenticalAcrossShardCounts) {
  // A paper workload shape (many threads, volatiles, planted races) at a
  // test-friendly scale.
  WorkloadSpec Spec = scaleWorkload(paperWorkloads()[0], 0.05);
  expectShardInvariant(Spec, /*Seed=*/99, {2, 7});
}

TEST(ShardedReplayTest, ShardCountBeyondVariableCountStillIdentical) {
  // More shards than the tiny workload has variables: some replicas own
  // nothing but must still replay synchronization identically.
  CompiledWorkload Workload(tinyTestWorkload());
  DetectorSetup Sequential = fastTrackSetup();
  AnalysisResult Baseline =
      AnalysisSession(Workload, trialRequest(Sequential, /*Seed=*/3))
          .analyzeGenerated();
  DetectorSetup Sharded = Sequential;
  Sharded.Shards = 64;
  expectSameResult(Baseline,
                   AnalysisSession(Workload, trialRequest(Sharded, /*Seed=*/3))
                       .analyzeGenerated());
}

TEST(ShardedReplayTest, ShardJobsInvariance) {
  // The worker count must never leak into results: one worker, one per
  // shard, and an oversubscribed pool all match.
  CompiledWorkload Workload(mediumTestWorkload());
  DetectorSetup Setup = pacerSetup(0.03);
  Setup.Sampling.PeriodBytes = 12 * 1024;
  Setup.Shards = 4;

  Setup.ShardJobs = 1;
  AnalysisResult OneJob =
      AnalysisSession(Workload, trialRequest(Setup, /*Seed=*/21))
          .analyzeGenerated();
  Setup.ShardJobs = 0; // Auto: one job per shard.
  AnalysisResult AutoJobs =
      AnalysisSession(Workload, trialRequest(Setup, /*Seed=*/21))
          .analyzeGenerated();
  Setup.ShardJobs = 9;
  AnalysisResult ManyJobs =
      AnalysisSession(Workload, trialRequest(Setup, /*Seed=*/21))
          .analyzeGenerated();

  expectSameResult(OneJob, AutoJobs);
  expectSameResult(OneJob, ManyJobs);
}

TEST(ShardedReplayTest, ElidedLocalAccessesShardIdentically) {
  // The escape-analysis pre-filter and sharding compose: same races and
  // stats whether or not local accesses are elided first.
  CompiledWorkload Workload(mediumTestWorkload());
  DetectorSetup Setup = fastTrackSetup();
  Setup.ElideLocalAccesses = true;
  AnalysisResult Baseline =
      AnalysisSession(Workload, trialRequest(Setup, /*Seed=*/17))
          .analyzeGenerated();
  Setup.Shards = 4;
  expectSameResult(Baseline,
                   AnalysisSession(Workload, trialRequest(Setup, /*Seed=*/17))
                       .analyzeGenerated());
}

//===----------------------------------------------------------------------===//
// Direct shardedReplay engine comparisons
//===----------------------------------------------------------------------===//

namespace {

void expectSameShardedResult(const ShardedReplayResult &A,
                             const ShardedReplayResult &B) {
  ASSERT_EQ(A.Races.size(), B.Races.size());
  for (const auto &[Key, Count] : A.Races) {
    auto It = B.Races.find(Key);
    ASSERT_TRUE(It != B.Races.end()) << "race key missing";
    EXPECT_EQ(Count, It->second);
  }
  EXPECT_EQ(A.DynamicRaces, B.DynamicRaces);
  expectSameStats(A.Stats, B.Stats);
  EXPECT_EQ(A.FinalMetadataBytes, B.FinalMetadataBytes);
  EXPECT_EQ(A.EffectiveAccessRate, B.EffectiveAccessRate);
  EXPECT_EQ(A.EffectiveSyncRate, B.EffectiveSyncRate);
  EXPECT_EQ(A.Boundaries, B.Boundaries);
}

ShardedReplayConfig pacerShardConfig(unsigned Shards, uint64_t Seed) {
  ShardedReplayConfig Config;
  Config.Shards = Shards;
  Config.UseController = true;
  Config.Sampling.TargetRate = 0.03;
  Config.Sampling.PeriodBytes = 12 * 1024;
  Config.ControllerSeed = Seed;
  return Config;
}

} // namespace

TEST(ShardedReplayTest, SingleShardIndexedMatchesSequential) {
  // K = 1 through the indexed engine (a caller-supplied index engages it
  // even without real sharding) must equal the plain sequential replay.
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/31);
  DetectorSetup Setup = pacerSetup(0.03);
  Setup.Sampling.PeriodBytes = 12 * 1024;
  DetectorFactory Factory = [&](RaceSink &Sink) {
    return makeDetector(Setup, Sink, Workload, /*Seed=*/31);
  };

  ShardedReplayConfig Sequential = pacerShardConfig(1, /*Seed=*/31);
  Sequential.UseIndex = false;
  ShardedReplayResult Baseline = shardedReplay(T, Factory, Sequential);

  TraceIndex Index = TraceIndex::build(T, 1);
  ShardedReplayConfig Indexed = pacerShardConfig(1, /*Seed=*/31);
  Indexed.Index = &Index;
  expectSameShardedResult(Baseline, shardedReplay(T, Factory, Indexed));
}

TEST(ShardedReplayTest, PrebuiltIndexMatchesInternalBuild) {
  // Supplying a matching index must be a pure optimization; a mismatched
  // shard count must be ignored (a correct private index built instead).
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/47);
  DetectorSetup Setup = fastTrackSetup();
  DetectorFactory Factory = [&](RaceSink &Sink) {
    return makeDetector(Setup, Sink, Workload, /*Seed=*/47);
  };

  ShardedReplayConfig Internal;
  Internal.Shards = 4;
  ShardedReplayResult Baseline = shardedReplay(T, Factory, Internal);

  TraceIndex Matching = TraceIndex::build(T, 4);
  ShardedReplayConfig WithIndex = Internal;
  WithIndex.Index = &Matching;
  expectSameShardedResult(Baseline, shardedReplay(T, Factory, WithIndex));

  TraceIndex Mismatched = TraceIndex::build(T, 3);
  ShardedReplayConfig WithWrongIndex = Internal;
  WithWrongIndex.Index = &Mismatched;
  expectSameShardedResult(Baseline,
                          shardedReplay(T, Factory, WithWrongIndex));
}

//===----------------------------------------------------------------------===//
// accessBatch override vs base-class default loop
//===----------------------------------------------------------------------===//

namespace {

/// Wraps a detector so its virtual accessBatch falls back to the base
/// class's per-action loop, bypassing the detector's bulk override.
template <typename Base> class ForceDefaultBatch final : public Base {
public:
  using Base::Base;
  using Detector::accessBatch;
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override {
    this->Detector::accessBatch(Batch, Shard);
  }
};

template <typename Make>
void expectOverrideMatchesDefault(const Trace &T, Make MakePair) {
  CollectingSink SinkA, SinkB;
  auto [Overridden, Defaulted] = MakePair(SinkA, SinkB);

  Runtime RA(*Overridden);
  RA.replay(T);
  Runtime RB(*Defaulted);
  RB.replay(T);

  EXPECT_EQ(SinkA.keys(), SinkB.keys());
  EXPECT_EQ(SinkA.size(), SinkB.size());
  expectSameStats(Overridden->stats(), Defaulted->stats());
  EXPECT_EQ(Overridden->liveMetadataBytes(), Defaulted->liveMetadataBytes());
}

} // namespace

TEST(ShardedReplayTest, PacerBatchOverrideMatchesDefault) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/5);
  expectOverrideMatchesDefault(T, [](RaceSink &A, RaceSink &B) {
    return std::make_pair(std::make_unique<PacerDetector>(A),
                          std::make_unique<ForceDefaultBatch<PacerDetector>>(B));
  });
}

TEST(ShardedReplayTest, FastTrackBatchOverrideMatchesDefault) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/5);
  expectOverrideMatchesDefault(T, [](RaceSink &A, RaceSink &B) {
    return std::make_pair(
        std::make_unique<FastTrackDetector>(A),
        std::make_unique<ForceDefaultBatch<FastTrackDetector>>(B));
  });
}

TEST(ShardedReplayTest, LiteRaceBatchOverrideMatchesDefault) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, /*Seed=*/5);
  std::vector<MethodId> Sites(Workload.siteToMethod().begin(),
                              Workload.siteToMethod().end());
  expectOverrideMatchesDefault(T, [&](RaceSink &A, RaceSink &B) {
    return std::make_pair(
        std::make_unique<LiteRaceDetector>(A, Sites, /*Seed=*/11),
        std::make_unique<ForceDefaultBatch<LiteRaceDetector>>(B, Sites,
                                                              /*Seed=*/11));
  });
}
