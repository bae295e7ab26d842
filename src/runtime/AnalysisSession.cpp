//===- runtime/AnalysisSession.cpp ----------------------------------------==//

#include "runtime/AnalysisSession.h"

#include "core/ClockKernels.h"
#include "detectors/GenericDetector.h"
#include "runtime/Runtime.h"
#include "runtime/ShardedReplay.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"
#include "support/Error.h"

#include <chrono>
#include <optional>

using namespace pacer;

const char *pacer::detectorKindName(DetectorKind Kind) {
  switch (Kind) {
  case DetectorKind::Null:
    return "null";
  case DetectorKind::Generic:
    return "generic";
  case DetectorKind::FastTrack:
    return "fasttrack";
  case DetectorKind::Pacer:
    return "pacer";
  case DetectorKind::LiteRace:
    return "literace";
  }
  return "?";
}

DetectorSetup pacer::pacerSetup(double Rate) {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::Pacer;
  Setup.SamplingRate = Rate;
  return Setup;
}

DetectorSetup pacer::fastTrackSetup() {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::FastTrack;
  return Setup;
}

DetectorSetup pacer::genericSetup() {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::Generic;
  return Setup;
}

DetectorSetup pacer::literaceSetup(uint32_t BurstLength) {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::LiteRace;
  Setup.LiteRace.BurstLength = BurstLength;
  return Setup;
}

DetectorSetup pacer::nullSetup() {
  DetectorSetup Setup;
  Setup.Kind = DetectorKind::Null;
  return Setup;
}

std::unique_ptr<Detector> pacer::makeDetector(const DetectorSetup &Setup,
                                              RaceSink &Sink,
                                              const CompiledWorkload &Workload,
                                              uint64_t Seed) {
  switch (Setup.Kind) {
  case DetectorKind::Null:
    return std::make_unique<NullDetector>(Sink);
  case DetectorKind::Generic: {
    GenericConfig Config;
    Config.UseAccordionClocks = Setup.AccordionClocks;
    return std::make_unique<GenericDetector>(Sink, Config);
  }
  case DetectorKind::FastTrack: {
    FastTrackConfig Config = Setup.FastTrack;
    Config.UseAccordionClocks |= Setup.AccordionClocks;
    return std::make_unique<FastTrackDetector>(Sink, Config);
  }
  case DetectorKind::Pacer: {
    PacerConfig Config = Setup.Pacer;
    Config.UseAccordionClocks |= Setup.AccordionClocks;
    return std::make_unique<PacerDetector>(Sink, Config);
  }
  case DetectorKind::LiteRace: {
    LiteRaceConfig Config = Setup.LiteRace;
    Config.UseAccordionClocks |= Setup.AccordionClocks;
    return std::make_unique<LiteRaceDetector>(Sink, Workload.siteToMethod(),
                                              Seed ^ 0x4c495445u /*"LITE"*/,
                                              Config);
  }
  }
  pacerUnreachable("unknown detector kind");
}

const CompiledWorkload &pacer::flatSiteWorkload() {
  // Leaked singleton: destruction order vs. static session objects is not
  // worth reasoning about for an immutable table.
  static const CompiledWorkload *Flat = [] {
    WorkloadSpec Spec = tinyTestWorkload();
    Spec.Races.clear();
    return new CompiledWorkload(Spec);
  }();
  return *Flat;
}

AnalysisRequest pacer::trialRequest(const DetectorSetup &Setup,
                                    uint64_t Seed) {
  AnalysisRequest Request;
  Request.Setup = Setup;
  Request.Seed = Seed;
  Request.CollectReports = false;
  return Request;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// The sequential replay core: builds the detector, PACER's sampling
/// controller and the Runtime, lets \p Drive feed the Runtime, and fills
/// the detection fields of \p Out from the log, the detector and the
/// controller. \p Drive returns false when the replay failed in a way
/// that leaves nothing to report; the detection fields then stay unset.
template <typename DriveT>
void replaySequential(const CompiledWorkload &Workload,
                      const AnalysisRequest &Request, AnalysisResult &Out,
                      DriveT Drive) {
  const DetectorSetup &Setup = Request.Setup;
  RaceLog Log;
  std::unique_ptr<Detector> D =
      makeDetector(Setup, Log, Workload, Request.Seed);

  std::unique_ptr<SamplingController> Controller;
  if (Setup.Kind == DetectorKind::Pacer) {
    SamplingConfig Sampling = Setup.Sampling;
    Sampling.TargetRate = Setup.SamplingRate;
    Controller = std::make_unique<SamplingController>(
        Sampling, Request.Seed ^ 0x47432121u /*"GC!!"*/);
  }

  Runtime RT(*D, Controller.get(), Setup.SyncBatching);
  auto Start = Clock::now();
  const bool Complete = Drive(RT);
  Out.ReplaySeconds = secondsSince(Start);
  if (!Complete)
    return;

  Out.Races = Log.counts();
  Out.DynamicRaces = Log.dynamicCount();
  Out.Stats = D->stats();
  Out.HotAccesses = Out.Stats.hotAccesses();
  Out.ColdAccesses = Out.Stats.coldAccesses();
  if (Controller) {
    Out.EffectiveAccessRate = Controller->effectiveAccessRate();
    Out.EffectiveSyncRate = Controller->effectiveSyncRate();
    Out.Boundaries = Controller->boundaryCount();
  }
  if (Setup.Kind == DetectorKind::LiteRace)
    Out.LiteRaceEffectiveRate =
        static_cast<LiteRaceDetector *>(D.get())->effectiveRate();
  Out.FinalMetadataBytes = D->liveMetadataBytes();
  Out.PeakSlotCount = D->peakSlotCount();
  if (Request.CollectReports)
    Out.SampleReports = Log.sampleReports();
}

/// Replays a whole in-memory span, sharded or sequentially: \p Replay is
/// the (already elide-filtered) action stream, \p Shards the resolved
/// count. Fills the detection and timing fields of \p Out.
void replaySpan(const CompiledWorkload &Workload,
                const AnalysisRequest &Request, TraceSpan Replay,
                unsigned Shards, const TraceIndex *Index,
                AnalysisResult &Out) {
  const DetectorSetup &Setup = Request.Setup;
  Out.ResolvedShards = Shards;
  Out.Isa = kernels::activeIsa();

  if (Shards > 1) {
    ShardedReplayConfig Config;
    Config.Shards = Shards;
    Config.Jobs = Setup.ShardJobs;
    Config.UseIndex = Setup.ShardUseIndex;
    Config.Index = Index;
    Config.SyncBatching = Setup.SyncBatching;
    if (Setup.Kind == DetectorKind::Pacer) {
      Config.UseController = true;
      Config.Sampling = Setup.Sampling;
      Config.Sampling.TargetRate = Setup.SamplingRate;
      Config.ControllerSeed = Request.Seed ^ 0x47432121u /*"GC!!"*/;
    }
    // LiteRace's bursty samplers are code-indexed, so a replica would
    // otherwise need the full access stream just to keep its sampling
    // decisions replica-identical. Precompute the decision stream once
    // (it is a pure function of the filtered trace, the seed and the
    // config) and share it read-only: every replica becomes shard-local
    // and the index can feed it owned-access runs only.
    std::optional<LiteRaceSamplerPlan> LiteRacePlan;
    if (Setup.Kind == DetectorKind::LiteRace)
      LiteRacePlan = LiteRaceDetector::computeSamplerPlan(
          Replay, Workload.siteToMethod(),
          Request.Seed ^ 0x4c495445u /*"LITE"*/, Setup.LiteRace);
    DetectorFactory Factory = [&](RaceSink &Sink) {
      std::unique_ptr<Detector> D =
          makeDetector(Setup, Sink, Workload, Request.Seed);
      if (LiteRacePlan)
        static_cast<LiteRaceDetector &>(*D).setSamplerPlan(&*LiteRacePlan);
      return D;
    };
    auto Start = Clock::now();
    ShardedReplayResult Sharded = shardedReplay(Replay, Factory, Config);
    Out.ReplaySeconds = secondsSince(Start);
    Out.Races = std::move(Sharded.Races);
    Out.DynamicRaces = Sharded.DynamicRaces;
    Out.Stats = Sharded.Stats;
    Out.HotAccesses = Sharded.Stats.hotAccesses();
    Out.ColdAccesses = Sharded.Stats.coldAccesses();
    Out.EffectiveAccessRate = Sharded.EffectiveAccessRate;
    Out.EffectiveSyncRate = Sharded.EffectiveSyncRate;
    Out.Boundaries = Sharded.Boundaries;
    if (Setup.Kind == DetectorKind::LiteRace)
      Out.LiteRaceEffectiveRate =
          LiteRaceDetector::effectiveRateFromStats(Out.Stats);
    Out.FinalMetadataBytes = Sharded.FinalMetadataBytes;
    Out.PeakSlotCount = Sharded.PeakSlotCount;
    if (Request.CollectReports)
      Out.SampleReports = std::move(Sharded.SampleReports);
    return;
  }

  replaySequential(Workload, Request, Out, [&](Runtime &RT) {
    if (const BadRecord Bad = RT.replay(Replay)) {
      Out.Ok = false;
      Out.Error =
          std::string(Bad.Why) + " in record " + std::to_string(Bad.Index);
    }
    return true; // A stopped replay still reports what it analysed.
  });
}

} // namespace

AnalysisResult AnalysisSession::analyzeGenerated() const {
  Trace T = generateTrace(Workload, Request.Seed);
  return analyzeTrace(T);
}

AnalysisResult AnalysisSession::analyzeTrace(TraceSpan T,
                                             const TraceIndex *Index) const {
  const DetectorSetup &Setup = Request.Setup;

  // The escape-analysis pass removed instrumentation from thread-local
  // accesses: they execute (cost nothing here) but are never analysed.
  // Filtering up front keeps the replay path -- sequential or sharded --
  // identical to a trace that never contained them.
  TraceSpan Replay = T;
  Trace Filtered;
  if (Setup.ElideLocalAccesses) {
    Filtered.reserve(T.size());
    for (const Action &A : T)
      if (!(isAccessAction(A.Kind) && Workload.isLocalVar(A.Target)))
        Filtered.push_back(A);
    Replay = Filtered;
    Index = nullptr; // A caller index describes T, not the filtered trace.
  }

  AnalysisResult Result;
  Result.TraceEvents = T.size();

  replaySpan(Workload, Request, Replay, resolveShardCount(Setup.Shards, 0),
             Index, Result);
  return Result;
}

AnalysisResult
AnalysisSession::analyzeStream(StreamingTraceReader &Reader) const {
  const DetectorSetup &Setup = Request.Setup;

  AnalysisResult Result;
  Result.ResolvedShards = 1;
  Result.Isa = kernels::activeIsa();

  Trace Filtered; // Reused per-chunk scratch under ElideLocalAccesses.
  replaySequential(Workload, Request, Result, [&](Runtime &RT) {
    RT.start();
    for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
         Chunk = Reader.next()) {
      Result.TraceEvents += Chunk.size();
      TraceSpan Replay = Chunk;
      if (Setup.ElideLocalAccesses) {
        Filtered.clear();
        for (const Action &A : Chunk)
          if (!(isAccessAction(A.Kind) && Workload.isLocalVar(A.Target)))
            Filtered.push_back(A);
        Replay = Filtered;
      }
      RT.replayChunk(Replay, AccessShard::all());
    }
    if (Reader.ok())
      return true;
    Result.Ok = false;
    Result.Error = Reader.error();
    return false;
  });
  return Result;
}

AnalysisResult AnalysisSession::analyzeFile(const std::string &Path) const {
  return Request.Stream ? analyzeFileStreaming(Path)
                        : analyzeFileInMemory(Path);
}

AnalysisResult
AnalysisSession::analyzeFileInMemory(const std::string &Path) const {
  // In-memory mode: binary traces analyse from an mmap view (zero-copy
  // where the platform allows); text traces parse into a Trace. The
  // sequential replay checks each record as it reaches it, so a binary
  // trace that it replays unfiltered is mapped with only its framing
  // checked and is read from memory once; the replay's stop becomes the
  // same "<path>: <why> in record <N>" failure the view would report.
  // The elision filter and the sharded engines read records unchecked,
  // so they get a view that checked every record first.
  AnalysisResult Result;
  auto Fail = [&](const std::string &Why) {
    Result.Ok = false;
    Result.Error = Why;
    return Result;
  };

  TraceFormat Format;
  std::string DetectError;
  if (!detectTraceFileFormat(Path, Format, DetectError))
    return Fail(DetectError);

  // Only an explicit multi-shard request builds an index; "auto" replays
  // sequentially and never looks at the trace before the replay.
  const unsigned Shards = resolveShardCount(Request.Setup.Shards, 0);
  const bool ReplayChecks = Shards <= 1 && !Request.Setup.ElideLocalAccesses;

  TraceView View;
  TraceParseResult Parsed;
  TraceSpan T;
  auto LoadStart = Clock::now();
  if (Format == TraceFormat::Binary) {
    View = ReplayChecks ? TraceView::openUnchecked(Path)
                        : TraceView::open(Path);
    if (!View.ok())
      return Fail(View.error());
    T = View.actions();
  } else {
    Parsed = readTraceFile(Path);
    if (!Parsed.Ok)
      return Fail(Parsed.Error);
    T = Parsed.T;
  }
  double LoadSeconds = secondsSince(LoadStart);

  TraceIndex Index;
  const TraceIndex *IndexPtr = nullptr;
  double IndexSeconds = 0;
  if (Shards > 1 && !Request.Setup.ElideLocalAccesses) {
    auto IndexStart = Clock::now();
    Index = TraceIndex::build(T, Shards);
    IndexPtr = &Index;
    IndexSeconds = secondsSince(IndexStart);
  }

  AnalysisResult Replayed = analyzeTrace(T, IndexPtr);
  if (!Replayed.Ok)
    Replayed.Error = Path + ": " + Replayed.Error;
  Replayed.LoadSeconds = LoadSeconds;
  Replayed.IndexSeconds = IndexSeconds;
  return Replayed;
}

AnalysisResult
AnalysisSession::analyzeFileStreaming(const std::string &Path) const {
  // Bounded-window mode: the trace is never materialized. An explicit
  // multi-shard request builds its replay index in an extra bounded pass
  // over the same reader; sharded replicas then need random access, which
  // an mmap view provides for binary traces at zero copy. Text traces (no
  // random access without parsing) stream sequentially.
  AnalysisResult Result;
  auto Fail = [&](const std::string &Why) {
    Result.Ok = false;
    Result.Error = Why;
    return Result;
  };

  TraceFormat Format;
  std::string DetectError;
  if (!detectTraceFileFormat(Path, Format, DetectError))
    return Fail(DetectError);

  const size_t StreamWindow = Request.StreamWindow < 1 ? 1
                                                       : Request.StreamWindow;
  const unsigned ResolvedShards = resolveShardCount(Request.Setup.Shards, 0);
  double LoadSeconds = 0;

  TraceView View; // Must outlive the replayed span.
  bool Sequential = ResolvedShards <= 1 || Request.Setup.ElideLocalAccesses;
  if (!Sequential) {
    if (Format == TraceFormat::Binary) {
      auto Start = Clock::now();
      View = TraceView::open(Path);
      if (!View.ok())
        return Fail(View.error());
      LoadSeconds = secondsSince(Start);
      if (!View.mapped()) {
        // Buffered fallback materializes the trace; stay sequential to
        // honour the bounded-memory request.
        View = TraceView();
        Sequential = true;
        Result.Notes +=
            "streaming: mmap unavailable, replaying sequentially\n";
      }
    } else {
      Sequential = true;
      Result.Notes += "streaming: text trace has no random access, "
                      "replaying sequentially\n";
    }
  }

  if (!Sequential) {
    // Streamed index build: one bounded pass feeds the sharded engine.
    auto Start = Clock::now();
    StreamingTraceReader Reader(Path, StreamWindow);
    TraceIndex::Builder Builder(ResolvedShards);
    for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
         Chunk = Reader.next())
      Builder.addChunk(Chunk);
    if (!Reader.ok())
      return Fail(Reader.error());
    TraceIndex Index = Builder.take();
    const double IndexSeconds = secondsSince(Start);

    AnalysisResult Replayed;
    Replayed.Notes = std::move(Result.Notes);
    Replayed.TraceEvents = View.actions().size();
    replaySpan(Workload, Request, View.actions(), ResolvedShards, &Index,
               Replayed);
    Replayed.LoadSeconds = LoadSeconds;
    Replayed.IndexSeconds = IndexSeconds;
    return Replayed;
  }

  auto Start = Clock::now();
  StreamingTraceReader Reader(Path, StreamWindow);
  if (!Reader.ok())
    return Fail(Reader.error());
  AnalysisResult Replayed = analyzeStream(Reader);
  // Load is interleaved with analysis on the sequential streaming path.
  Replayed.ReplaySeconds = secondsSince(Start);
  Replayed.Notes = Result.Notes + Replayed.Notes;
  return Replayed;
}
