//===- perfbench/src/Layers.cpp -------------------------------------------==//

#include "Layers.h"
#include "Common.h"

#include "runtime/RaceLog.h"
#include "runtime/Runtime.h"
#include "runtime/ShardedReplay.h"
#include "runtime/TraceIndex.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>

using namespace pacer;
using namespace perfbench;

std::unique_ptr<SamplingController>
perfbench::makeController(const DetectorSetup &Setup, uint64_t Seed) {
  if (Setup.Kind != DetectorKind::Pacer)
    return nullptr;
  SamplingConfig Sampling = Setup.Sampling;
  Sampling.TargetRate = Setup.SamplingRate;
  return std::make_unique<SamplingController>(Sampling,
                                              Seed ^ ControllerSeedSalt);
}

LayerProbe::LayerProbe(RaceSink &Sink, std::unique_ptr<Detector> Inner,
                       LayerTally &Tally)
    : Detector(Sink), Inner(std::move(Inner)), Tally(Tally) {}

template <typename Fn> void LayerProbe::timed(double &Ns, Fn &&Call) {
  const Clock::time_point Start = Clock::now();
  Call();
  const Clock::time_point End = Clock::now();
  Ns += std::chrono::duration<double, std::nano>(End - Start).count();
  Tally.LastReturn = End;
  Stats = Inner->stats();
  Probe = Inner->probeCounters();
}

void LayerProbe::fork(ThreadId Parent, ThreadId Child) {
  timed(Tally.SyncNs, [&] { Inner->fork(Parent, Child); });
  ++Tally.SyncEvents;
}

void LayerProbe::join(ThreadId Parent, ThreadId Child) {
  timed(Tally.SyncNs, [&] { Inner->join(Parent, Child); });
  ++Tally.SyncEvents;
}

void LayerProbe::acquire(ThreadId Tid, LockId Lock) {
  timed(Tally.SyncNs, [&] { Inner->acquire(Tid, Lock); });
  ++Tally.SyncEvents;
}

void LayerProbe::release(ThreadId Tid, LockId Lock) {
  timed(Tally.SyncNs, [&] { Inner->release(Tid, Lock); });
  ++Tally.SyncEvents;
}

void LayerProbe::syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) {
  timed(Tally.SyncNs, [&] { Inner->syncBatch(Tid, Lock, Pairs); });
  Tally.SyncEvents += 2 * Pairs;
  ++Tally.SyncBatches;
  Tally.SyncBatchPairs += Pairs;
}

void LayerProbe::volatileRead(ThreadId Tid, VolatileId Vol) {
  timed(Tally.SyncNs, [&] { Inner->volatileRead(Tid, Vol); });
  ++Tally.SyncEvents;
}

void LayerProbe::volatileWrite(ThreadId Tid, VolatileId Vol) {
  timed(Tally.SyncNs, [&] { Inner->volatileWrite(Tid, Vol); });
  ++Tally.SyncEvents;
}

void LayerProbe::read(ThreadId Tid, VarId Var, SiteId Site) {
  timed(Inner->isSampling() ? Tally.HotNs : Tally.ColdNs,
        [&] { Inner->read(Tid, Var, Site); });
}

void LayerProbe::write(ThreadId Tid, VarId Var, SiteId Site) {
  timed(Inner->isSampling() ? Tally.HotNs : Tally.ColdNs,
        [&] { Inner->write(Tid, Var, Site); });
}

void LayerProbe::accessBatch(std::span<const Action> Batch,
                             const AccessShard &Shard) {
  // The runtime delivers phase-pure batches, so the phase at entry holds
  // for the whole batch.
  timed(Inner->isSampling() ? Tally.HotNs : Tally.ColdNs,
        [&] { Inner->accessBatch(Batch, Shard); });
  ++Tally.AccessBatches;
  Tally.BatchedAccesses += Batch.size();
}

void LayerProbe::threadBegin(ThreadId Tid) {
  timed(Tally.LifecycleNs, [&] { Inner->threadBegin(Tid); });
}

void LayerProbe::threadExit(ThreadId Tid) {
  timed(Tally.LifecycleNs, [&] { Inner->threadExit(Tid); });
}

size_t LayerProbe::recycleDeadSlots() {
  size_t Reclaimed = 0;
  timed(Tally.LifecycleNs, [&] { Reclaimed = Inner->recycleDeadSlots(); });
  return Reclaimed;
}

void LayerProbe::beginSamplingPeriod() {
  timed(Tally.BoundaryNs, [&] { Inner->beginSamplingPeriod(); });
}

void LayerProbe::endSamplingPeriod() {
  // Metadata peaks as a sampling period closes (Figure 10); the sample is
  // taken outside the timed hook.
  Tally.MetadataSamples.push_back(
      {Inner->liveMetadataBytes(), Inner->accessMetadataBytes()});
  timed(Tally.BoundaryNs, [&] { Inner->endSamplingPeriod(); });
}

DispatchReplay perfbench::dispatchReplay(TraceSpan T,
                                         const DetectorSetup &Setup,
                                         uint64_t Seed) {
  NullRaceSink Sink;
  DispatchOnlyDetector D(Sink);
  std::unique_ptr<SamplingController> Controller = makeController(Setup, Seed);
  Runtime RT(D, Controller.get(), Setup.SyncBatching);
  const Clock::time_point Start = Clock::now();
  RT.replay(T);
  DispatchReplay Out;
  Out.Ms = msSince(Start);
  if (Controller) {
    Out.Boundaries = Controller->boundaryCount();
    Out.SamplingPeriods = Controller->samplingPeriods();
    Out.EffectiveRate = Controller->effectiveAccessRate();
  }
  return Out;
}

double perfbench::detectorReplayMs(TraceSpan T, const DetectorSetup &Setup,
                                   uint64_t Seed) {
  RaceLog Log;
  std::unique_ptr<Detector> D =
      makeDetector(Setup, Log, flatSiteWorkload(), Seed);
  std::unique_ptr<SamplingController> Controller = makeController(Setup, Seed);
  Runtime RT(*D, Controller.get(), Setup.SyncBatching);
  const Clock::time_point Start = Clock::now();
  RT.replay(T);
  return msSince(Start);
}

namespace {

/// Recombines per-replica toggle samples into whole-trace totals. Every
/// replica toggles at the same trace positions and holds the same sync
/// metadata, so the k-th total is one replica's sync-side bytes (live
/// minus access) plus every replica's access bytes -- the sharded merge
/// rule, applied at each toggle.
size_t peakMetadataBytes(const std::vector<LayerTally> &Replicas) {
  size_t Peak = 0;
  const size_t Samples = Replicas.front().MetadataSamples.size();
  const bool Aligned =
      std::all_of(Replicas.begin(), Replicas.end(), [&](const LayerTally &R) {
        return R.MetadataSamples.size() == Samples;
      });
  if (!Aligned) {
    for (const LayerTally &R : Replicas)
      for (auto [Live, Access] : R.MetadataSamples)
        Peak = std::max(Peak, Live);
    return Peak;
  }
  for (size_t K = 0; K < Samples; ++K) {
    const auto [Live0, Access0] = Replicas.front().MetadataSamples[K];
    size_t Total = Live0 - Access0;
    for (const LayerTally &R : Replicas)
      Total += R.MetadataSamples[K].second;
    Peak = std::max(Peak, Total);
  }
  return Peak;
}

} // namespace

TracedResult perfbench::analyzeTraced(const std::string &Path,
                                      const AnalysisRequest &Request,
                                      SpanLog &Spans, uint64_t TraceId,
                                      int64_t Parent) {
  const DetectorSetup &Setup = Request.Setup;
  TracedResult Out;
  auto Fail = [&](const std::string &Why) {
    Out.Ok = false;
    Out.Error = Why;
    return Out;
  };

  std::error_code SizeError;
  Out.FileBytes = std::filesystem::file_size(Path, SizeError);

  std::optional<LoadedTrace> Loaded;
  {
    SpanLog::Scope Load(Spans, "load", TraceId, Parent);
    const Clock::time_point Start = Clock::now();
    Loaded.emplace(Path);
    Out.LoadMs = msSince(Start);
  }
  if (!Loaded->ok())
    return Fail(Loaded->error());
  const TraceSpan T = Loaded->actions();
  Out.Actions = T.size();

  unsigned Shards = Setup.Shards;
  TraceIndex Index;
  const TraceIndex *IndexPtr = nullptr;
  if (Shards != 1) {
    SpanLog::Scope IndexSpan(Spans, "index", TraceId, Parent);
    const Clock::time_point Start = Clock::now();
    if (Shards == 0) {
      TraceIndex::Builder Counter(1);
      Counter.addChunk(T);
      Shards = resolveShardCount(0, Counter.accessCount());
    }
    if (Shards > 1 && !Setup.ElideLocalAccesses) {
      Index = TraceIndex::build(T, Shards);
      IndexPtr = &Index;
    }
    Out.IndexMs = msSince(Start);
  }
  Out.Shards = Shards;

  const CompiledWorkload &Workload = flatSiteWorkload();
  SpanLog::Scope Replay(Spans, "replay", TraceId, Parent);
  if (Shards > 1) {
    std::mutex TallyMutex;
    std::deque<LayerTally> Tallies; // Stable addresses across emplace.
    DetectorFactory Factory =
        [&](RaceSink &Sink) -> std::unique_ptr<Detector> {
      LayerTally *Tally;
      {
        std::lock_guard<std::mutex> G(TallyMutex);
        Tally = &Tallies.emplace_back();
      }
      Tally->Created = Clock::now();
      return std::make_unique<LayerProbe>(
          Sink, makeDetector(Setup, Sink, Workload, Request.Seed), *Tally);
    };
    ShardedReplayConfig Config;
    Config.Shards = Shards;
    Config.Jobs = Setup.ShardJobs;
    Config.UseIndex = Setup.ShardUseIndex;
    Config.Index = IndexPtr;
    Config.SyncBatching = Setup.SyncBatching;
    if (Setup.Kind == DetectorKind::Pacer) {
      Config.UseController = true;
      Config.Sampling = Setup.Sampling;
      Config.Sampling.TargetRate = Setup.SamplingRate;
      Config.ControllerSeed = Request.Seed ^ ControllerSeedSalt;
    }
    ShardedReplayResult Sharded = shardedReplay(T, Factory, Config);
    Out.Races = std::move(Sharded.Races);
    Out.DynamicRaces = Sharded.DynamicRaces;
    Out.Stats = Sharded.Stats;
    Out.Probe = Sharded.Probe;
    Out.MetadataFinalBytes = Sharded.FinalMetadataBytes;
    Out.PeakSlots = Sharded.PeakSlotCount;
    Out.Replicas.assign(Tallies.begin(), Tallies.end());
  } else {
    RaceLog Log;
    LayerTally Tally;
    Tally.Created = Clock::now();
    LayerProbe D(Log, makeDetector(Setup, Log, Workload, Request.Seed),
                 Tally);
    std::unique_ptr<SamplingController> Controller =
        makeController(Setup, Request.Seed);
    Runtime RT(D, Controller.get(), Setup.SyncBatching);
    RT.replay(T);
    Out.Races = Log.counts();
    Out.DynamicRaces = Log.dynamicCount();
    Out.Stats = D.stats();
    Out.Probe = D.probeCounters();
    Out.MetadataFinalBytes = D.liveMetadataBytes();
    Out.PeakSlots = D.peakSlotCount();
    Out.Replicas.push_back(std::move(Tally));
  }
  Out.MetadataPeakBytes =
      std::max(peakMetadataBytes(Out.Replicas), Out.MetadataFinalBytes);
  return Out;
}
