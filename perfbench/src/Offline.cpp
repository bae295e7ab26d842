//===- perfbench/src/Offline.cpp - pacer-r1, pacer-r100, batch-default ---==//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline workloads: trace files analysed one after another through
/// AnalysisSession::analyzeFile, as `racedetect` does.
///
///   pacer-r1      -- one xalan trace (scale 20, binary, mmap path) at
///                    r = 1%: the paper's operating point, where nearly
///                    every access takes the cold path.
///   pacer-r100    -- the same trace at r = 100%: hot path only.
///   batch-default -- racedetect's multi-file default: eclipse, hsqldb,
///                    pseudojbb (binary) and forkjoin (text) at r = 3%
///                    with auto sharding.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Common.h"
#include "Layers.h"
#include "Measure.h"

#include "runtime/AnalysisSession.h"
#include "sim/TraceIO.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>

using namespace pacer;
using namespace perfbench;

namespace {

/// How a workload's results are checked against its references.
enum class Gate {
  SubsetOfFastTrack, ///< pacer-r1: races a subset of FastTrack's.
  EqualsFastTrack,   ///< pacer-r100: the same distinct races as FastTrack.
  EqualsSequential,  ///< batch-default: races and stats of Shards=1.
};

struct FileSpec {
  const char *Model;
  double Scale;
  TraceFormat Format;
};

struct Plan {
  AnalysisRequest Request;
  Gate Check = Gate::EqualsSequential;
  std::vector<FileSpec> Files;
};

Plan planFor(const Options &Opts) {
  Plan P;
  P.Request.Seed = AnalysisSeed;
  if (Opts.Workload == "batch-default") {
    P.Request.Setup = pacerSetup(0.03);
    P.Request.Setup.Shards = 0; // Auto, racedetect's multi-file default.
    P.Check = Gate::EqualsSequential;
    // The text file is sized so that parsing shows in the latency mix
    // without dominating it, and still has enough accesses (> 4 x 32Ki)
    // for auto sharding to pick K = 4 on a 4-CPU host, like the others.
    P.Files = {{"eclipse", 1.0, TraceFormat::Binary},
               {"hsqldb", 1.0, TraceFormat::Binary},
               {"pseudojbb", 1.0, TraceFormat::Binary},
               {"forkjoin", 0.6, TraceFormat::Text}};
  } else {
    const bool Full = Opts.Workload == "pacer-r100";
    P.Request.Setup = pacerSetup(Full ? 1.0 : 0.01);
    P.Check = Full ? Gate::EqualsFastTrack : Gate::SubsetOfFastTrack;
    P.Files = {{"xalan", 20.0, TraceFormat::Binary}};
  }
  return P;
}

struct Reference {
  /// analyzeFile under the workload's request: every later analysis of
  /// the file must match it bit for bit.
  AnalysisResult Expected;
  /// FastTrack's distinct races (pacer-* gates).
  std::set<RaceKey> FastTrackRaces;
  /// The Shards=1 replay (batch-default gate).
  AnalysisResult Sequential;
};

struct Prepared {
  std::vector<TraceFile> Files;
  std::vector<Reference> Refs;
};

std::set<RaceKey> keySet(const std::unordered_map<RaceKey, uint64_t> &Races) {
  std::set<RaceKey> Keys;
  for (const auto &Entry : Races)
    Keys.insert(Entry.first);
  return Keys;
}

bool sameStats(const DetectorStats &A, const DetectorStats &B) {
  static_assert(sizeof(DetectorStats) % sizeof(uint64_t) == 0,
                "DetectorStats must be padding-free for memcmp");
  return std::memcmp(&A, &B, sizeof(DetectorStats)) == 0;
}

Prepared setUp(const Plan &P, const Options &Opts, const std::string &Dir) {
  Prepared Out;
  for (size_t I = 0; I < P.Files.size(); ++I) {
    const FileSpec &F = P.Files[I];
    Out.Files.push_back(writeWorkloadTrace(Dir, F.Model, F.Scale, F.Format,
                                           Opts.Seed + I, Opts.Tiny));
  }
  for (const TraceFile &F : Out.Files) {
    Reference Ref;
    Ref.Expected =
        AnalysisSession(flatSiteWorkload(), P.Request).analyzeFile(F.Path);
    if (P.Check == Gate::EqualsSequential) {
      AnalysisRequest Sequential = P.Request;
      Sequential.Setup.Shards = 1;
      Ref.Sequential =
          AnalysisSession(flatSiteWorkload(), Sequential).analyzeFile(F.Path);
    } else {
      AnalysisRequest FastTrack = P.Request;
      FastTrack.Setup = fastTrackSetup();
      Ref.FastTrackRaces = keySet(
          AnalysisSession(flatSiteWorkload(), FastTrack).analyzeFile(F.Path)
              .Races);
    }
    Out.Refs.push_back(std::move(Ref));
  }
  return Out;
}

/// Why \p Races / \p Stats fail the workload's gate; empty when they pass.
std::string gateFailure(Gate Check, const Reference &Ref,
                        const std::unordered_map<RaceKey, uint64_t> &Races,
                        const DetectorStats &Stats) {
  const std::set<RaceKey> Keys = keySet(Races);
  switch (Check) {
  case Gate::SubsetOfFastTrack:
    if (!std::includes(Ref.FastTrackRaces.begin(), Ref.FastTrackRaces.end(),
                       Keys.begin(), Keys.end()))
      return "a reported race is not in FastTrack's set";
    break;
  case Gate::EqualsFastTrack:
    if (Keys != Ref.FastTrackRaces)
      return "distinct races differ from FastTrack's (" +
             std::to_string(Keys.size()) + " vs " +
             std::to_string(Ref.FastTrackRaces.size()) + ")";
    break;
  case Gate::EqualsSequential:
    if (Races != Ref.Sequential.Races)
      return "races differ from the Shards=1 replay";
    if (!sameStats(Stats, Ref.Sequential.Stats))
      return "DetectorStats differ from the Shards=1 replay";
    break;
  }
  return {};
}

/// Why \p R fails the gate or differs from the first analysis of the
/// same file; empty when it passes.
std::string checkAnalysis(Gate Check, const Reference &Ref,
                          const AnalysisResult &R) {
  if (!R.Ok)
    return "analysis failed: " + R.Error;
  std::string Why = gateFailure(Check, Ref, R.Races, R.Stats);
  if (!Why.empty())
    return Why;
  const AnalysisResult &E = Ref.Expected;
  if (R.Races != E.Races || R.DynamicRaces != E.DynamicRaces ||
      !sameStats(R.Stats, E.Stats) ||
      R.EffectiveAccessRate != E.EffectiveAccessRate ||
      R.EffectiveSyncRate != E.EffectiveSyncRate ||
      R.Boundaries != E.Boundaries || R.TraceEvents != E.TraceEvents ||
      R.FinalMetadataBytes != E.FinalMetadataBytes ||
      R.PeakSlotCount != E.PeakSlotCount ||
      R.ResolvedShards != E.ResolvedShards ||
      R.ProbeVectorResolved != E.ProbeVectorResolved ||
      R.ProbeScalarFallback != E.ProbeScalarFallback)
    return "repeated analysis is not bit-identical to the first";
  return {};
}

/// An untraced timed phase: whole rounds over the workload's files until
/// \p BudgetS has passed.
struct LoopResult {
  Timeline Phase;
  uint64_t Failed = 0;
  double PeakRssMb = 0;
  std::vector<std::vector<double>> FileMs; ///< Latencies per file.
};

LoopResult timedLoop(const Plan &P, const Prepared &Prep, double BudgetS,
                     Outcome &Out) {
  LoopResult L;
  L.FileMs.resize(Prep.Files.size());
  const AnalysisSession Session(flatSiteWorkload(), P.Request);
  resetPeakRss();
  const Clock::time_point Start = Clock::now();
  const double Cpu0 = processCpuMs();
  do {
    for (size_t I = 0; I < Prep.Files.size(); ++I) {
      const Clock::time_point T0 = Clock::now();
      AnalysisResult R = Session.analyzeFile(Prep.Files[I].Path);
      const Clock::time_point T1 = Clock::now();
      L.Phase.Samples.push_back({msBetween(T0, T1), R.TraceEvents});
      L.FileMs[I].push_back(msBetween(T0, T1));
      const std::string Why = checkAnalysis(P.Check, Prep.Refs[I], R);
      if (!Why.empty()) {
        ++L.Failed;
        if (L.Failed <= 3)
          Out.fail(Prep.Files[I].Label + ": " + Why);
      }
    }
  } while (msSince(Start) < BudgetS * 1e3);
  L.Phase.WallMs = msSince(Start);
  L.Phase.CpuMs = processCpuMs() - Cpu0;
  L.PeakRssMb = peakRssMb();
  return L;
}

/// Sums over the traced analyses, turned into per-trace metrics at the
/// end.
struct LayerSums {
  uint64_t Analyses = 0;
  double LoadMs = 0, LoadBytes = 0, IndexMs = 0, Shards = 0;
  double BusyMaxMs = 0, BusyMeanMs = 0, SkeletonMs = 0;
  uint64_t ShardedAnalyses = 0;
  double ColdNs = 0, HotNs = 0, SyncNs = 0, BoundaryNs = 0, LifecycleNs = 0;
  double SyncEvents = 0, AccessBatches = 0, BatchedAccesses = 0;
  double SyncBatches = 0, SyncBatchPairs = 0;
  double ProbeVector = 0, ProbeAll = 0;
  double PeakSlots = 0;
  DetectorStats Stats; // Summed field by field.
  double MetadataPeak = 0, MetadataFinal = 0;

  void add(const TracedResult &R) {
    ++Analyses;
    LoadMs += R.LoadMs;
    LoadBytes += static_cast<double>(R.FileBytes);
    IndexMs += R.IndexMs;
    Shards += R.Shards;
    if (R.Replicas.size() > 1) {
      ++ShardedAnalyses;
      double Max = 0, Sum = 0, Skeleton = 0;
      for (const LayerTally &T : R.Replicas) {
        const double Busy = msBetween(T.Created, T.LastReturn);
        Max = std::max(Max, Busy);
        Sum += Busy;
        Skeleton += Busy - (T.ColdNs + T.HotNs) / 1e6;
      }
      const double K = static_cast<double>(R.Replicas.size());
      BusyMaxMs += Max;
      BusyMeanMs += Sum / K;
      SkeletonMs += Skeleton / K;
    }
    for (const LayerTally &T : R.Replicas) {
      ColdNs += T.ColdNs;
      HotNs += T.HotNs;
      SyncNs += T.SyncNs;
      BoundaryNs += T.BoundaryNs;
      LifecycleNs += T.LifecycleNs;
      SyncEvents += static_cast<double>(T.SyncEvents);
      AccessBatches += static_cast<double>(T.AccessBatches);
      BatchedAccesses += static_cast<double>(T.BatchedAccesses);
      SyncBatches += static_cast<double>(T.SyncBatches);
      SyncBatchPairs += static_cast<double>(T.SyncBatchPairs);
    }
    ProbeVector += static_cast<double>(R.Probe.VectorResolved);
    ProbeAll += static_cast<double>(R.Probe.VectorResolved +
                                    R.Probe.ScalarFallback);
    PeakSlots = std::max(PeakSlots, static_cast<double>(R.PeakSlots));
    constexpr size_t Fields = sizeof(DetectorStats) / sizeof(uint64_t);
    uint64_t Sum[Fields], Add[Fields];
    std::memcpy(Sum, &Stats, sizeof Sum);
    std::memcpy(Add, &R.Stats, sizeof Add);
    for (size_t I = 0; I < Fields; ++I)
      Sum[I] += Add[I];
    std::memcpy(&Stats, Sum, sizeof Sum);
    MetadataPeak = std::max(MetadataPeak,
                            static_cast<double>(R.MetadataPeakBytes));
    MetadataFinal += static_cast<double>(R.MetadataFinalBytes);
  }
};

/// Detector replays and their dispatch-only floors, timed outside the
/// probes: the baseline sanity check and the proportionality curve.
struct LayerPass {
  std::vector<double> DispatchMs;  ///< Per rep, per-trace mean.
  std::vector<double> Boundaries, Periods, Rates;
  std::map<std::string, std::vector<double>> ReplayMs, FloorMs;
};

void runLayerPass(const Options &Opts, const Plan &P, const Prepared &Prep,
                  double BudgetS, LayerPass &Pass) {
  // The detector replays whose slowdown over dispatch is checked; the
  // pacer-r1 set doubles as the proportionality curve.
  std::vector<std::pair<std::string, DetectorSetup>> Replays;
  if (Opts.Workload == "pacer-r1") {
    Replays = {{"pacer-r0", pacerSetup(0.0)},
               {"pacer-r1pct", pacerSetup(0.01)},
               {"pacer-r100", pacerSetup(1.0)},
               {"fasttrack", fastTrackSetup()}};
  } else if (Opts.Workload == "pacer-r100") {
    Replays = {{"pacer-r100", pacerSetup(1.0)},
               {"fasttrack", fastTrackSetup()}};
  } else {
    Replays = {{"pacer-r3pct", pacerSetup(0.03)}};
  }
  const double FilesN = static_cast<double>(Prep.Files.size());
  std::vector<std::unique_ptr<LoadedTrace>> Traces;
  for (const TraceFile &F : Prep.Files)
    Traces.push_back(std::make_unique<LoadedTrace>(F.Path));
  const Clock::time_point Start = Clock::now();
  do {
    double Dispatch = 0, Boundaries = 0, Periods = 0, Rate = 0;
    std::map<std::string, double> Replay, Floor;
    for (const std::unique_ptr<LoadedTrace> &Loaded : Traces) {
      const LoadedTrace &T = *Loaded;
      const DispatchReplay D =
          dispatchReplay(T.actions(), P.Request.Setup, AnalysisSeed);
      Dispatch += D.Ms;
      Boundaries += static_cast<double>(D.Boundaries);
      Periods += static_cast<double>(D.SamplingPeriods);
      Rate += D.EffectiveRate;
      for (const auto &[Name, Setup] : Replays) {
        Replay[Name] += detectorReplayMs(T.actions(), Setup, AnalysisSeed);
        Floor[Name] += dispatchReplay(T.actions(), Setup, AnalysisSeed).Ms;
      }
    }
    Pass.DispatchMs.push_back(Dispatch / FilesN);
    Pass.Boundaries.push_back(Boundaries / FilesN);
    Pass.Periods.push_back(Periods / FilesN);
    Pass.Rates.push_back(Rate / FilesN);
    for (const auto &[Name, Ms] : Replay) {
      Pass.ReplayMs[Name].push_back(Ms / FilesN);
      Pass.FloorMs[Name].push_back(Floor[Name] / FilesN);
    }
  } while (msSince(Start) < BudgetS * 1e3);
}

void reportOffline(const LoopResult &L, const Prepared &Prep, double SetupS,
                   Outcome &Out) {
  Out.Attempted = L.Phase.Samples.size();
  Out.Failed = L.Failed;
  reportEndToEnd(L.Phase, L.PeakRssMb, SetupS, "traces", Out);
  std::string ByFile = "trace_ms.p50 by file:";
  for (size_t I = 0; I < Prep.Files.size(); ++I)
    ByFile += " " + Prep.Files[I].Label + "=" +
              std::to_string(median(L.FileMs[I]));
  Out.Notes.push_back(ByFile);
}

/// Corrupts the reference of the first file so that the check \p Wrong
/// names must reject its analyses.
void corrupt(Options::Corruption Wrong, Gate Check, Reference &Ref) {
  const RaceKey Bogus{0xFFFFFFF0u, 0xFFFFFFF1u};
  if (Wrong == Options::Corruption::Identity) {
    Ref.Expected.Stats.SyncOps += 1;
    return;
  }
  switch (Check) {
  case Gate::SubsetOfFastTrack:
    // Drop from FastTrack's set every race the analysis reports. When it
    // reports none, no reference can fail this gate.
    for (const auto &Entry : Ref.Expected.Races)
      Ref.FastTrackRaces.erase(Entry.first);
    break;
  case Gate::EqualsFastTrack:
    Ref.FastTrackRaces.insert(Bogus);
    break;
  case Gate::EqualsSequential:
    Ref.Sequential.Stats.SyncOps += 1;
    break;
  }
}

} // namespace

Outcome perfbench::runOffline(const Options &Opts) {
  Outcome Out;
  const Plan P = planFor(Opts);

  Prepared Prep;
  const double SetupS = timedSetups(Opts.WorkDir, [&](const std::string &Dir) {
    Prep = setUp(P, Opts, Dir);
  });
  for (size_t I = 0; I < Prep.Files.size(); ++I) {
    const TraceFile &F = Prep.Files[I];
    Out.Notes.push_back(describeTrace(F));
    if (!Prep.Refs[I].Expected.Ok)
      Out.fail(F.Label + ": reference analysis failed: " +
               Prep.Refs[I].Expected.Error);
  }
  if (Opts.WrongReference != Options::Corruption::None) {
    corrupt(Opts.WrongReference, P.Check, Prep.Refs.front());
    Out.Notes.push_back("wrong reference injected (self-test)");
    if (P.Check == Gate::SubsetOfFastTrack &&
        Prep.Refs.front().Expected.Races.empty())
      Out.Notes.push_back("warning: the analysis reports no race, so the "
                          "subset gate cannot fail");
  }

  if (!Opts.Trace) {
    reportOffline(timedLoop(P, Prep, Opts.Seconds, Out), Prep, SetupS, Out);
    return Out;
  }

  // Traced run: a short untraced phase for the overhead comparison, the
  // traced phase, then the layer pass of bare replays.
  Outcome Untraced;
  const LoopResult Base = timedLoop(P, Prep, 0.25 * Opts.Seconds, Untraced);
  Out.Attempted += Base.Phase.Samples.size();
  Out.Failed += Base.Failed;
  if (!Untraced.Correct) {
    Out.Correct = false;
    Out.Notes.insert(Out.Notes.end(), Untraced.Notes.begin(),
                     Untraced.Notes.end());
  }
  const double UntracedMact = Base.Phase.summarize().ThroughputMactS;

  SpanLog Spans;
  LayerSums Sums;
  Timeline Traced;
  const Clock::time_point TracedStart = Clock::now();
  uint64_t TraceId = 0;
  do {
    for (size_t I = 0; I < Prep.Files.size(); ++I) {
      SpanLog::Scope Root(Spans, "analysis", TraceId);
      const Clock::time_point T0 = Clock::now();
      TracedResult R = analyzeTraced(Prep.Files[I].Path, P.Request, Spans,
                                     TraceId++, Root.index());
      const Clock::time_point T1 = Clock::now();
      Traced.Samples.push_back({msBetween(T0, T1), R.Actions});
      ++Out.Attempted;
      const Reference &Ref = Prep.Refs[I];
      std::string Why = R.Ok ? gateFailure(P.Check, Ref, R.Races, R.Stats)
                             : "traced analysis failed: " + R.Error;
      if (Why.empty() &&
          (R.Races != Ref.Expected.Races ||
           R.DynamicRaces != Ref.Expected.DynamicRaces ||
           !sameStats(R.Stats, Ref.Expected.Stats) ||
           R.MetadataFinalBytes != Ref.Expected.FinalMetadataBytes))
        Why = "traced run is not bit-identical to the untraced analyzeFile";
      if (!Why.empty()) {
        ++Out.Failed;
        if (Out.Failed <= 3)
          Out.fail(Prep.Files[I].Label + ": " + Why);
      }
      Sums.add(R);
    }
  } while (msSince(TracedStart) < 0.45 * Opts.Seconds * 1e3);
  Traced.WallMs = msSince(TracedStart);
  const double TracedMact = Traced.summarize().ThroughputMactS;

  LayerPass Pass;
  runLayerPass(Opts, P, Prep, 0.3 * Opts.Seconds, Pass);

  std::map<std::string, double> &M = Out.Metrics;
  for (const MetricDef &Def : perLayerMetrics())
    M[Def.Name] = 0.0;
  const double N = static_cast<double>(Sums.Analyses);
  M["sim.load_ms"] = ratio(Sums.LoadMs, N);
  M["sim.load_mb_s"] = ratio(Sums.LoadBytes / (1 << 20), Sums.LoadMs / 1e3);
  M["runtime.dispatch_ms"] = median(Pass.DispatchMs);
  M["runtime.access_batches"] = ratio(Sums.AccessBatches, N);
  M["runtime.accesses_per_batch"] =
      ratio(Sums.BatchedAccesses, Sums.AccessBatches);
  M["runtime.sync_batches"] = ratio(Sums.SyncBatches, N);
  M["runtime.sync_pairs_per_batch"] =
      ratio(Sums.SyncBatchPairs, Sums.SyncBatches);
  M["runtime.boundaries"] = median(Pass.Boundaries);
  M["runtime.sampling_periods"] = median(Pass.Periods);
  M["runtime.effective_rate"] = median(Pass.Rates);
  M["runtime.index_ms"] = ratio(Sums.IndexMs, N);
  M["runtime.shards"] = ratio(Sums.Shards, N);
  const double Sharded = static_cast<double>(Sums.ShardedAnalyses);
  M["runtime.shard_busy_ms.max"] = ratio(Sums.BusyMaxMs, Sharded);
  M["runtime.shard_busy_ms.mean"] = ratio(Sums.BusyMeanMs, Sharded);
  M["runtime.skeleton_ms.per_replica"] = ratio(Sums.SkeletonMs, Sharded);
  const DetectorStats &S = Sums.Stats;
  M["detectors.cold_ms"] = ratio(Sums.ColdNs / 1e6, N);
  M["detectors.cold_accesses"] = ratio(S.coldAccesses(), N);
  M["detectors.cold_ns_per_access"] = ratio(Sums.ColdNs, S.coldAccesses());
  M["detectors.hot_ms"] = ratio(Sums.HotNs / 1e6, N);
  M["detectors.hot_accesses"] = ratio(S.hotAccesses(), N);
  M["detectors.hot_ns_per_access"] = ratio(Sums.HotNs, S.hotAccesses());
  M["detectors.probe_vector_frac"] = ratio(Sums.ProbeVector, Sums.ProbeAll);
  M["detectors.sync_ms"] = ratio(Sums.SyncNs / 1e6, N);
  M["detectors.sync_events"] = ratio(Sums.SyncEvents, N);
  M["detectors.boundary_ms"] = ratio(Sums.BoundaryNs / 1e6, N);
  M["detectors.lifecycle_ms"] = ratio(Sums.LifecycleNs / 1e6, N);
  M["detectors.peak_slots"] = Sums.PeakSlots;
  auto PerTrace = [&](uint64_t Count) {
    return ratio(static_cast<double>(Count), N);
  };
  M["core.slow_joins"] = PerTrace(S.SlowJoinsSampling + S.SlowJoinsNonSampling);
  M["core.fast_joins"] = PerTrace(S.FastJoinsSampling + S.FastJoinsNonSampling);
  M["core.deep_copies"] =
      PerTrace(S.DeepCopiesSampling + S.DeepCopiesNonSampling);
  M["core.shallow_copies"] =
      PerTrace(S.ShallowCopiesSampling + S.ShallowCopiesNonSampling);
  M["core.clock_clones"] = PerTrace(S.ClockClones);
  M["core.read_slow"] = PerTrace(S.ReadSlowSampling + S.ReadSlowNonSampling);
  M["core.read_fast"] = PerTrace(S.ReadFastNonSampling);
  M["core.write_slow"] =
      PerTrace(S.WriteSlowSampling + S.WriteSlowNonSampling);
  M["core.write_fast"] = PerTrace(S.WriteFastNonSampling);
  M["core.metadata_mb.peak"] = Sums.MetadataPeak / (1 << 20);
  M["core.metadata_mb.final"] = ratio(Sums.MetadataFinal / (1 << 20), N);

  if (Opts.Workload == "pacer-r1") {
    const double R0 = median(Pass.ReplayMs["pacer-r0"]);
    const double R1 = median(Pass.ReplayMs["pacer-r1pct"]);
    const double R100 = median(Pass.ReplayMs["pacer-r100"]);
    M["pacer.replay_ms.r0"] = R0;
    M["pacer.replay_ms.r1pct"] = R1;
    M["pacer.replay_ms.r100"] = R100;
    M["pacer.excess_1pct"] = ratio(R1 - R0, R100 - R0);
  }

  double MinSlowdown = 0;
  uint64_t Below = 0;
  for (const auto &[Name, Samples] : Pass.ReplayMs) {
    const double Floor = median(Pass.FloorMs[Name]);
    const double Slowdown = ratio(median(Samples), Floor);
    MinSlowdown = MinSlowdown == 0 ? Slowdown : std::min(MinSlowdown, Slowdown);
    char Line[160];
    std::snprintf(Line, sizeof Line,
                  "baseline: %s replay %.3f ms over dispatch-only %.3f ms = "
                  "%.3fx%s",
                  Name.c_str(), median(Samples), Floor, Slowdown,
                  Slowdown < 1 ? "  << FLAG: below 1" : "");
    Out.Notes.push_back(Line);
    Below += Slowdown < 1 ? 1 : 0;
  }
  M["baseline.slowdown_min"] = MinSlowdown;
  M["baseline.slowdowns_below_1"] = static_cast<double>(Below);

  M["trace.throughput_mact_s"] = TracedMact;
  M["trace.overhead_mact_s"] = UntracedMact - TracedMact;
  const std::map<std::string, double> Self = Spans.meanSelfMs();
  for (const char *Name : {"analysis", "load", "index", "replay"}) {
    auto It = Self.find(Name);
    M[std::string("span.") + Name + ".self_ms"] =
        It == Self.end() ? 0.0 : It->second;
  }
  Out.Notes.push_back("tracing: untraced " + std::to_string(UntracedMact) +
                      " Mact/s, traced " + std::to_string(TracedMact) +
                      " Mact/s, " + std::to_string(Spans.size()) + " spans");
  writeSpans(Spans, Opts, Out);
  return Out;
}
