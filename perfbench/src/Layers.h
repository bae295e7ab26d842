//===- perfbench/src/Layers.h - Per-layer probes and replays ---*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's view into the library, built from its public entry
/// points only:
///
///   LayerProbe           -- a forwarding decorator around makeDetector()'s
///                           result that times and counts each hook family
///                           (cold and hot access batches, sync hooks,
///                           period toggles, thread lifecycle) and samples
///                           metadata bytes at every period toggle;
///   DispatchOnlyDetector -- empty hooks and a no-op accessBatch: the cost
///                           of Runtime::replay and the sampling controller
///                           alone, the floor every rate pays;
///   analyzeTraced()      -- AnalysisSession::analyzeFile's in-memory path
///                           (load, auto-shard count, TraceIndex::build,
///                           Runtime::replay or shardedReplay) rebuilt with
///                           a span around each layer and LayerProbe
///                           replicas, so its races and DetectorStats can
///                           be checked bit for bit against analyzeFile.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Measure.h"

#include "runtime/AnalysisSession.h"
#include "runtime/SamplingController.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/// AnalysisSession derives each sampling controller's seed from the
/// request seed with this salt ("GC!!"). The traced pipeline must use the
/// same derivation; the bit-identity check catches any drift.
inline constexpr uint64_t ControllerSeedSalt = 0x47432121u;

/// The sampling controller AnalysisSession builds for \p Setup, or null
/// for detectors that do not sample.
std::unique_ptr<pacer::SamplingController>
makeController(const pacer::DetectorSetup &Setup, uint64_t Seed);

/// Time and counts one detector replica spent in each hook family.
struct LayerTally {
  double ColdNs = 0, HotNs = 0, SyncNs = 0, BoundaryNs = 0, LifecycleNs = 0;
  uint64_t SyncEvents = 0;
  uint64_t AccessBatches = 0, BatchedAccesses = 0;
  uint64_t SyncBatches = 0, SyncBatchPairs = 0;
  /// (liveMetadataBytes, accessMetadataBytes) after every period toggle.
  std::vector<std::pair<size_t, size_t>> MetadataSamples;
  Clock::time_point Created{}, LastReturn{};
};

/// Forwards every hook to the wrapped detector and records where the time
/// went. Reports flow straight from the wrapped detector to the sink; the
/// wrapped detector's stats and probe counters are mirrored after each
/// hook so stats() reads exactly as it would unwrapped.
class LayerProbe final : public pacer::Detector {
public:
  LayerProbe(pacer::RaceSink &Sink, std::unique_ptr<pacer::Detector> Inner,
             LayerTally &Tally);

  const char *name() const override { return Inner->name(); }
  void fork(pacer::ThreadId Parent, pacer::ThreadId Child) override;
  void join(pacer::ThreadId Parent, pacer::ThreadId Child) override;
  void acquire(pacer::ThreadId Tid, pacer::LockId Lock) override;
  void release(pacer::ThreadId Tid, pacer::LockId Lock) override;
  void syncBatch(pacer::ThreadId Tid, pacer::LockId Lock,
                 uint64_t Pairs) override;
  void volatileRead(pacer::ThreadId Tid, pacer::VolatileId Vol) override;
  void volatileWrite(pacer::ThreadId Tid, pacer::VolatileId Vol) override;
  void read(pacer::ThreadId Tid, pacer::VarId Var,
            pacer::SiteId Site) override;
  void write(pacer::ThreadId Tid, pacer::VarId Var,
             pacer::SiteId Site) override;
  void accessBatch(std::span<const pacer::Action> Batch,
                   const pacer::AccessShard &Shard) override;
  bool accessAnalysisIsShardLocal() const override {
    return Inner->accessAnalysisIsShardLocal();
  }
  void threadBegin(pacer::ThreadId Tid) override;
  void threadExit(pacer::ThreadId Tid) override;
  size_t recycleDeadSlots() override;
  size_t slotCount() const override { return Inner->slotCount(); }
  size_t peakSlotCount() const override { return Inner->peakSlotCount(); }
  void beginSamplingPeriod() override;
  void endSamplingPeriod() override;
  bool isSampling() const override { return Inner->isSampling(); }
  size_t liveMetadataBytes() const override {
    return Inner->liveMetadataBytes();
  }
  size_t accessMetadataBytes() const override {
    return Inner->accessMetadataBytes();
  }

private:
  template <typename Fn> void timed(double &Ns, Fn &&Call);

  std::unique_ptr<pacer::Detector> Inner;
  LayerTally &Tally;
};

/// Empty hooks, no-op accessBatch; tracks only the sampling flag the
/// controller toggles.
class DispatchOnlyDetector final : public pacer::Detector {
public:
  explicit DispatchOnlyDetector(pacer::RaceSink &Sink) : Detector(Sink) {}

  const char *name() const override { return "dispatch-only"; }
  void fork(pacer::ThreadId, pacer::ThreadId) override {}
  void join(pacer::ThreadId, pacer::ThreadId) override {}
  void acquire(pacer::ThreadId, pacer::LockId) override {}
  void release(pacer::ThreadId, pacer::LockId) override {}
  void syncBatch(pacer::ThreadId, pacer::LockId, uint64_t) override {}
  void volatileRead(pacer::ThreadId, pacer::VolatileId) override {}
  void volatileWrite(pacer::ThreadId, pacer::VolatileId) override {}
  void read(pacer::ThreadId, pacer::VarId, pacer::SiteId) override {}
  void write(pacer::ThreadId, pacer::VarId, pacer::SiteId) override {}
  void accessBatch(std::span<const pacer::Action>,
                   const pacer::AccessShard &) override {}
  void beginSamplingPeriod() override { Sampling = true; }
  void endSamplingPeriod() override { Sampling = false; }
  bool isSampling() const override { return Sampling; }
  size_t liveMetadataBytes() const override { return 0; }

private:
  bool Sampling = false;
};

/// Controller facts and wall time of one dispatch-only replay.
struct DispatchReplay {
  double Ms = 0;
  uint64_t Boundaries = 0;
  uint64_t SamplingPeriods = 0;
  double EffectiveRate = 0;
};

/// Runtime::replay of \p T through a DispatchOnlyDetector under the
/// controller \p Setup implies.
DispatchReplay dispatchReplay(pacer::TraceSpan T,
                              const pacer::DetectorSetup &Setup,
                              uint64_t Seed);

/// Wall time of Runtime::replay of \p T through makeDetector(\p Setup)
/// (sequential, no probes).
double detectorReplayMs(pacer::TraceSpan T, const pacer::DetectorSetup &Setup,
                        uint64_t Seed);

/// One analysis through the traced pipeline.
struct TracedResult {
  bool Ok = true;
  std::string Error;
  std::unordered_map<pacer::RaceKey, uint64_t> Races;
  uint64_t DynamicRaces = 0;
  pacer::DetectorStats Stats;
  pacer::Detector::ProbeCounters Probe;
  uint64_t Actions = 0;
  uint64_t FileBytes = 0;
  unsigned Shards = 1;
  size_t PeakSlots = 0;
  double LoadMs = 0, IndexMs = 0;
  /// One tally per detector replica (one for sequential replay).
  std::vector<LayerTally> Replicas;
  /// Highest total liveMetadataBytes() over the period toggles (replica
  /// samples recombined by the sharded merge rule) and the final value.
  size_t MetadataPeakBytes = 0;
  size_t MetadataFinalBytes = 0;
};

/// analyzeFile's in-memory path for \p Path under \p Request (Stream
/// ignored), with spans "load", "index" and "replay" under \p Parent.
TracedResult analyzeTraced(const std::string &Path,
                           const pacer::AnalysisRequest &Request,
                           SpanLog &Spans, uint64_t TraceId, int64_t Parent);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
