//===- tests/harness/BatchPathEquivalenceTest.cpp -------------------------==//
//
// Every detector's accessBatch is a strength reduction of the per-access
// read()/write() loop, so the two must agree exactly: race keys and
// counts, every DetectorStats counter, effective rates, boundary tallies,
// and metadata bytes. The oracle is the detector itself wrapped in
// test::PerAccessReference, which forwards every hook except accessBatch
// and replays the sync skeleton event by event, sequentially, from the
// in-memory trace. The system side is AnalysisSession, on the in-memory
// trace (both sharded engines, full-scan and indexed) and on a binary
// trace file through the mmap view and through the streaming reader with
// a small window (access runs straddle chunk edges), at 1 and 4 shards,
// with accordion clocks on and off. The cold suite covers the
// non-sampling batch paths (generic, FastTrack, LiteRace, PACER at r = 0);
// the hot suite covers PACER at r = 1%, 3% and 100% with a small
// simulated nursery, so period boundaries toggle sampling mid-run and
// both batch phases are exercised.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"

#include "TestUtil.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace pacer;

namespace {

/// AnalysisSession's sampling-controller seed salt ("GC!!").
constexpr uint64_t ControllerSalt = 0x47432121u;

bool sameStats(const DetectorStats &A, const DetectorStats &B) {
  return std::memcmp(&A, &B, sizeof(DetectorStats)) == 0;
}

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

/// Sequential per-access replay of \p T: the oracle every batch path,
/// shard count and input path must reproduce.
AnalysisResult perAccessReference(const CompiledWorkload &Workload,
                                  const DetectorSetup &Setup, uint64_t Seed,
                                  TraceSpan T) {
  RaceLog Log;
  test::PerAccessReference D(Log, makeDetector(Setup, Log, Workload, Seed));
  std::unique_ptr<SamplingController> Controller;
  if (Setup.Kind == DetectorKind::Pacer) {
    SamplingConfig Sampling = Setup.Sampling;
    Sampling.TargetRate = Setup.SamplingRate;
    Controller =
        std::make_unique<SamplingController>(Sampling, Seed ^ ControllerSalt);
  }
  Runtime RT(D, Controller.get(), /*SyncBatching=*/false);
  RT.replay(T);

  AnalysisResult Out;
  Out.Races = Log.counts();
  Out.DynamicRaces = Log.dynamicCount();
  Out.Stats = D.stats();
  Out.HotAccesses = Out.Stats.hotAccesses();
  Out.ColdAccesses = Out.Stats.coldAccesses();
  if (Controller) {
    Out.EffectiveAccessRate = Controller->effectiveAccessRate();
    Out.EffectiveSyncRate = Controller->effectiveSyncRate();
    Out.Boundaries = Controller->boundaryCount();
  }
  if (Setup.Kind == DetectorKind::LiteRace)
    Out.LiteRaceEffectiveRate =
        LiteRaceDetector::effectiveRateFromStats(Out.Stats);
  Out.TraceEvents = T.size();
  Out.FinalMetadataBytes = D.liveMetadataBytes();
  Out.PeakSlotCount = D.peakSlotCount();
  Out.SampleReports = Log.sampleReports();
  return Out;
}

/// Exact agreement of two analyses. Sample reports are compared only when
/// both sides replayed sequentially: sharded replay keeps a different
/// capped subset (the full race map is compared either way).
void expectSameAnalysis(const AnalysisResult &Got,
                        const AnalysisResult &Want, const std::string &What,
                        bool CompareSamples = true) {
  ASSERT_TRUE(Got.Ok) << What << ": " << Got.Error;
  ASSERT_TRUE(Want.Ok) << What << ": " << Want.Error;
  EXPECT_EQ(Got.Races, Want.Races) << What;
  EXPECT_EQ(Got.DynamicRaces, Want.DynamicRaces) << What;
  EXPECT_TRUE(sameStats(Got.Stats, Want.Stats)) << What;
  EXPECT_DOUBLE_EQ(Got.EffectiveAccessRate, Want.EffectiveAccessRate)
      << What;
  EXPECT_DOUBLE_EQ(Got.EffectiveSyncRate, Want.EffectiveSyncRate) << What;
  EXPECT_DOUBLE_EQ(Got.LiteRaceEffectiveRate, Want.LiteRaceEffectiveRate)
      << What;
  EXPECT_EQ(Got.Boundaries, Want.Boundaries) << What;
  EXPECT_EQ(Got.TraceEvents, Want.TraceEvents) << What;
  EXPECT_EQ(Got.FinalMetadataBytes, Want.FinalMetadataBytes) << What;
  EXPECT_EQ(Got.PeakSlotCount, Want.PeakSlotCount) << What;
  EXPECT_EQ(Got.HotAccesses, Want.HotAccesses) << What;
  EXPECT_EQ(Got.ColdAccesses, Want.ColdAccesses) << What;
  if (CompareSamples) {
    EXPECT_EQ(reportKeys(Got.SampleReports), reportKeys(Want.SampleReports))
        << What;
  }
}

DetectorSetup pacerWithSmallNursery(double Rate) {
  DetectorSetup Setup = pacerSetup(Rate);
  Setup.Sampling.PeriodBytes = 12 * 1024;
  return Setup;
}

/// Detectors whose batches only ever take the non-sampling (cold) paths.
std::vector<std::pair<std::string, DetectorSetup>> coldMatrix() {
  return {{"generic", genericSetup()},
          {"fasttrack", fastTrackSetup()},
          {"literace", literaceSetup(100)},
          {"pacer_r0", pacerWithSmallNursery(0.0)}};
}

/// PACER at sampling rates that toggle into the sampling (hot) phase.
std::vector<std::pair<std::string, DetectorSetup>> hotMatrix() {
  return {{"pacer_r1", pacerWithSmallNursery(0.01)},
          {"pacer_r3", pacerWithSmallNursery(0.03)},
          {"pacer_r100", pacerWithSmallNursery(1.0)}};
}

/// Both suites together, for the sync-batching check.
std::vector<std::pair<std::string, DetectorSetup>> detectorMatrix() {
  std::vector<std::pair<std::string, DetectorSetup>> All = coldMatrix();
  for (auto &Entry : hotMatrix())
    All.push_back(std::move(Entry));
  return All;
}

AnalysisRequest requestFor(DetectorSetup Setup, unsigned Shards,
                           uint64_t Seed) {
  AnalysisRequest Request;
  Request.Setup = std::move(Setup);
  Request.Setup.Shards = Shards;
  Request.Setup.ShardJobs = 1; // Deterministic and CI-friendly.
  Request.Seed = Seed;
  Request.CollectReports = true;
  return Request;
}

/// In-memory replay of \p T at 1 and 4 shards, full-scan and indexed,
/// accordion clocks off and on, against the per-access reference.
void checkTracesAgainstReference(
    const std::vector<std::pair<std::string, DetectorSetup>> &Matrix,
    uint64_t Seed) {
  CompiledWorkload Workload(mediumTestWorkload());
  Trace T = generateTrace(Workload, Seed);

  for (bool Accordion : {false, true}) {
    for (auto [Name, Setup] : Matrix) {
      Setup.AccordionClocks = Accordion;
      const AnalysisResult Reference =
          perAccessReference(Workload, Setup, Seed, T);
      for (unsigned Shards : {1u, 4u}) {
        for (bool UseIndex : {false, true}) {
          const std::string What = Name + (Accordion ? " accordion" : "") +
                                   " K=" + std::to_string(Shards) +
                                   (UseIndex ? " indexed" : " full-scan");
          AnalysisRequest Request = requestFor(Setup, Shards, Seed);
          Request.Setup.ShardUseIndex = UseIndex;
          expectSameAnalysis(
              AnalysisSession(Workload, Request).analyzeTrace(T), Reference,
              What, /*CompareSamples=*/Shards == 1);
        }
      }
    }
  }
}

/// File replay of a trace of \p Spec through the mmap view and the
/// streaming reader (a small window, so access runs straddle chunk edges),
/// at 1 and 4 shards, accordion clocks off and on, against the per-access
/// reference on the in-memory trace: chunking is invisible, not merely
/// consistently wrong.
void checkFilesAgainstReference(
    const std::vector<std::pair<std::string, DetectorSetup>> &Matrix,
    const WorkloadSpec &Spec, uint64_t Seed, const std::string &FileName) {
  CompiledWorkload Workload(Spec);
  Trace T = generateTrace(Workload, Seed);
  std::string Path = ::testing::TempDir() + "/" + FileName;
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (bool Accordion : {false, true}) {
    for (auto [Name, Setup] : Matrix) {
      Setup.AccordionClocks = Accordion;
      const AnalysisResult Reference =
          perAccessReference(Workload, Setup, Seed, T);
      for (unsigned Shards : {1u, 4u}) {
        for (bool Stream : {false, true}) {
          const std::string What =
              Name + (Accordion ? " accordion" : "") +
              " K=" + std::to_string(Shards) + (Stream ? " stream" : " mmap");
          AnalysisRequest Request = requestFor(Setup, Shards, Seed);
          Request.Stream = Stream;
          Request.StreamWindow = 700;
          expectSameAnalysis(
              AnalysisSession(Workload, Request).analyzeFile(Path), Reference,
              What, /*CompareSamples=*/Shards == 1);
        }
      }
    }
  }
  std::remove(Path.c_str());
}

/// A workload whose per-thread scripts are dominated by standalone
/// acquire/release toggling on one preferred lock, emitted in long
/// scheduler bursts: maximal same-thread pair runs for the skeleton
/// coalescer, with enough data accesses left to keep both engines busy.
WorkloadSpec syncHeavyWorkload() {
  WorkloadSpec Spec = mediumTestWorkload();
  Spec.Name = "sync_heavy";
  Spec.SyncOpFraction = 0.6;
  Spec.VolatileOpFraction = 0.0;
  Spec.LockAffinity = 1.0;
  Spec.AffinityLocks = 1;
  Spec.MaxSchedulerBurst = 48;
  return Spec;
}

/// Longest run of adjacent same-thread acquire/release pairs on one lock
/// -- what Runtime/TraceIndex coalesce into syncBatch calls.
size_t longestPairRun(const Trace &T) {
  size_t Best = 0;
  for (size_t I = 0; I + 1 < T.size();) {
    size_t J = I;
    while (J + 1 < T.size() && T[J].Kind == ActionKind::Acquire &&
           T[J + 1].Kind == ActionKind::Release && T[J].Tid == T[I].Tid &&
           T[J + 1].Tid == T[I].Tid && T[J].Target == T[I].Target &&
           T[J + 1].Target == T[I].Target)
      J += 2;
    Best = std::max(Best, (J - I) / 2);
    I = J == I ? I + 1 : J;
  }
  return Best;
}

TEST(ColdPathEquivalenceTest, ColdKernelsBitIdenticalOnTraces) {
  checkTracesAgainstReference(coldMatrix(), 23);
}

TEST(ColdPathEquivalenceTest, ColdKernelsBitIdenticalOnStreamedFiles) {
  checkFilesAgainstReference(coldMatrix(), mediumTestWorkload(), 29,
                             "pacer_coldpath.btrace");
}

TEST(HotPathEquivalenceTest, HotEngineBitIdenticalOnTraces) {
  checkTracesAgainstReference(hotMatrix(), 41);
}

TEST(HotPathEquivalenceTest, HotEngineBitIdenticalOnStreamedFiles) {
  // Sync pair runs straddle chunk edges too, so skeleton coalescing
  // restarts mid-run.
  checkFilesAgainstReference(hotMatrix(), syncHeavyWorkload(), 53,
                             "pacer_hotpath.btrace");
}

TEST(BatchPathEquivalenceTest, SyncBatchingBitIdenticalOnPairRunTraces) {
  CompiledWorkload Workload(syncHeavyWorkload());
  const uint64_t Seed = 47;
  Trace T = generateTrace(Workload, Seed);
  // The workload must actually produce coalescible runs, or this test
  // silently degenerates to the per-event path.
  ASSERT_GE(longestPairRun(T), 4u);

  for (const auto &[Name, Setup] : detectorMatrix()) {
    const AnalysisResult Reference =
        perAccessReference(Workload, Setup, Seed, T);
    for (unsigned Shards : {1u, 4u}) {
      for (bool UseIndex : {false, true}) {
        const std::string What = Name + " K=" + std::to_string(Shards) +
                                 (UseIndex ? " indexed" : " full-scan") +
                                 " sync-heavy";
        AnalysisRequest Batched = requestFor(Setup, Shards, Seed);
        Batched.Setup.ShardUseIndex = UseIndex;
        AnalysisRequest PerEvent = Batched;
        PerEvent.Setup.SyncBatching = false;
        const AnalysisResult WithBatching =
            AnalysisSession(Workload, Batched).analyzeTrace(T);
        expectSameAnalysis(WithBatching,
                           AnalysisSession(Workload, PerEvent).analyzeTrace(T),
                           What);
        expectSameAnalysis(WithBatching, Reference, What + " vs reference",
                           /*CompareSamples=*/Shards == 1);
      }
    }
  }
}

TEST(BatchPathEquivalenceTest, PhaseSplitPartitionsAnalysedAccesses) {
  // fig7 attribution sanity: hot + cold equals the detector's analysed
  // access total, and at a low rate the cold side dominates
  // (proportionality's >97% claim, loosened for the small trace).
  CompiledWorkload Workload(mediumTestWorkload());
  AnalysisResult Result =
      AnalysisSession(Workload, requestFor(pacerWithSmallNursery(0.03), 1, 31))
          .analyzeGenerated();
  ASSERT_TRUE(Result.Ok) << Result.Error;
  const DetectorStats &S = Result.Stats;
  const uint64_t Analysed =
      S.ReadSlowSampling + S.WriteSlowSampling + S.ReadSlowNonSampling +
      S.WriteSlowNonSampling + S.ReadFastNonSampling +
      S.WriteFastNonSampling;
  EXPECT_EQ(Result.HotAccesses + Result.ColdAccesses, Analysed);
  EXPECT_GT(Result.ColdAccesses, Result.HotAccesses);
}

} // namespace
