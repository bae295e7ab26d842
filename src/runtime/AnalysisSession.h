//===- runtime/AnalysisSession.h - Unified replay facade -------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One front door for every way this repository replays a trace through a
/// detector: generate + replay, an in-memory or mmap span (optionally
/// sharded), a bounded-window stream, or a file on disk.
///
///   AnalysisRequest  -- detector config (DetectorSetup, which already
///                       carries the shard policy), trial seed, streaming
///                       window, and report-collection switches, in one
///                       struct;
///   AnalysisSession  -- binds a request to the workload context (site ->
///                       method map, local-variable set) and exposes
///                       analyzeGenerated / analyzeTrace / analyzeStream /
///                       analyzeFile, which all produce
///   AnalysisResult   -- the union of every consumer's needs: per-distinct
///                       race counts, sample reports, detector stats,
///                       controller rates, timing split (load / index /
///                       analysis), resolved shard count, and an Ok/Error
///                       pair for untrusted inputs.
///
/// analyzeFile owns the read-path policy: binary traces analyse from an
/// mmap view (whose records the sequential replay checks in its own
/// scan), Stream mode keeps peak trace-resident memory at O(window) (an
/// explicit sharded replay indexes in an extra bounded pass), text traces
/// parse or stream line by line -- results are bit-identical across every
/// path for a given (Setup, Seed).
///
/// This header also hosts DetectorKind / DetectorSetup / makeDetector, so
/// the experiment harness and the tools share one detector configuration.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_ANALYSISSESSION_H
#define PACER_RUNTIME_ANALYSISSESSION_H

#include "detectors/Detector.h"
#include "detectors/FastTrackDetector.h"
#include "detectors/LiteRaceDetector.h"
#include "detectors/PacerDetector.h"
#include "runtime/RaceLog.h"
#include "runtime/SamplingController.h"
#include "sim/StreamingTraceReader.h"
#include "sim/WorkloadSpec.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace pacer {

class TraceIndex;

/// Which algorithm a trial runs.
enum class DetectorKind : uint8_t {
  Null,      ///< No analysis (timing baseline).
  Generic,   ///< O(n) vector clocks (Section 2.1).
  FastTrack, ///< Epoch-optimized (Section 2.2).
  Pacer,     ///< Sampling (Section 3); rate from SamplingRate.
  LiteRace,  ///< Code-sampling baseline (Section 5.3).
};

/// Returns "null", "generic", etc.
const char *detectorKindName(DetectorKind Kind);

/// Full configuration of a trial's detector.
struct DetectorSetup {
  DetectorKind Kind = DetectorKind::Pacer;
  /// PACER's specified sampling rate r (0..1); copied into Sampling.
  double SamplingRate = 1.0;
  /// Model the compiler pass's static escape analysis (Section 4): do not
  /// instrument accesses to provably thread-local variables at all. Off
  /// by default so detectors see every access; enabling is sound (locals
  /// never race) and removes their instrumentation cost.
  bool ElideLocalAccesses = false;
  /// Accordion thread-slot recycling (core/SlotRecycler.h) for whichever
  /// detector runs: OR'd into the per-detector config in makeDetector.
  /// Race reports are identical with it on or off; clocks and metadata
  /// stay O(live threads) instead of O(threads ever started).
  bool AccordionClocks = false;
  /// Coalesce same-thread acquire/release pair runs into
  /// Detector::syncBatch() calls in both replay engines (see
  /// Runtime::deliverSyncPairRun). Bit-identical on or off; the win
  /// compounds with Shards, since every replica replays the skeleton.
  /// Not a user-facing option: it stays settable so the equivalence tests
  /// and the end-to-end benchmark can replay the skeleton event by event.
  bool SyncBatching = true;
  PacerConfig Pacer;
  FastTrackConfig FastTrack;
  LiteRaceConfig LiteRace;
  SamplingConfig Sampling;
  /// Intra-trial sharded replay: partition data accesses across this many
  /// detector replicas by VarId modulo (see runtime/ShardedReplay.h). 1 is
  /// plain sequential replay, and so is 0 ("auto"): the index and the
  /// per-replica skeleton replay cost more than sharding saves end to end
  /// (DESIGN.md §6d), so only an explicit K > 1 shards. Results are
  /// bit-identical for every value.
  unsigned Shards = 1;
  /// Worker concurrency for sharded replay; 0 = one job per shard.
  unsigned ShardJobs = 0;
  /// Drive sharded replicas through a TraceIndex (the O(sync + owned
  /// accesses) engine) instead of full-trace re-scans; results are
  /// identical either way.
  bool ShardUseIndex = true;
};

/// Convenience constructors for common configurations.
DetectorSetup pacerSetup(double Rate);
DetectorSetup fastTrackSetup();
DetectorSetup genericSetup();
DetectorSetup literaceSetup(uint32_t BurstLength = 1000);
DetectorSetup nullSetup();

/// Instantiates the configured detector. \p Seed feeds stochastic
/// detectors (LiteRace's randomized counter resets).
std::unique_ptr<Detector> makeDetector(const DetectorSetup &Setup,
                                       RaceSink &Sink,
                                       const CompiledWorkload &Workload,
                                       uint64_t Seed);

/// One replay request: everything that parameterizes an analysis except
/// the input bytes themselves (which pick the analyze* entry point).
struct AnalysisRequest {
  /// Detector configuration, including the shard policy (Setup.Shards,
  /// Setup.ShardJobs, Setup.ShardUseIndex).
  DetectorSetup Setup;
  /// Trial seed: trace generation (analyzeGenerated), sampling-controller
  /// and LiteRace seeding everywhere.
  uint64_t Seed = 1;
  /// analyzeFile only: replay from a bounded window (O(window) peak
  /// trace-resident memory) instead of loading / mapping the whole trace.
  /// Sharded replay of binary traces still engages through an mmap view
  /// (the kernel pages records in and out; no trace-sized allocation);
  /// text traces and mmap-less hosts degrade to sequential streaming.
  bool Stream = false;
  /// Streaming window in actions (analyzeFile Stream mode and
  /// analyzeStream readers opened by analyzeFile).
  size_t StreamWindow = StreamingTraceReader::DefaultWindowActions;
  /// Collect up to RaceLog's cap of full race reports in
  /// AnalysisResult::SampleReports.
  bool CollectReports = true;
};

/// The request one experiment trial replays: \p Setup under trial seed
/// \p Seed, counts only (no sample reports, which no trial reads).
AnalysisRequest trialRequest(const DetectorSetup &Setup, uint64_t Seed);

/// Union result of every analyze* entry point. Fields a path does not
/// produce are value-initialized (e.g. LoadSeconds on analyzeStream).
struct AnalysisResult {
  /// False when the input could not be read / parsed; Error says why and
  /// every other field is best-effort (counts cover the prefix analysed).
  bool Ok = true;
  std::string Error;

  std::unordered_map<RaceKey, uint64_t> Races; ///< Distinct -> dynamic.
  uint64_t DynamicRaces = 0;
  DetectorStats Stats;
  double EffectiveAccessRate = 0.0; ///< PACER only.
  double EffectiveSyncRate = 0.0;   ///< PACER only.
  double LiteRaceEffectiveRate = 0.0;
  uint64_t Boundaries = 0;
  uint64_t TraceEvents = 0;
  double ReplaySeconds = 0.0;
  size_t FinalMetadataBytes = 0;
  /// High-water thread-slot count (replica 0 under sharded replay).
  /// Without recycling this is the number of threads ever started; with
  /// it, the live-thread high-water mark between compactions.
  size_t PeakSlotCount = 0;
  /// Accesses analysed on the hot (sampling / full-analysis) path vs.
  /// handled on the cold (non-sampling fast or discard) path -- the
  /// DetectorStats split, surfaced so Figure 7's overhead breakdown and
  /// racedetect --times can attribute time per phase. Hot + Cold equals
  /// the analysed access count.
  uint64_t HotAccesses = 0;
  uint64_t ColdAccesses = 0;
  /// Detector::probeCounters, summed across shard replicas. No detector
  /// fills them, so both read 0; kept for source compatibility.
  uint64_t ProbeVectorResolved = 0;
  uint64_t ProbeScalarFallback = 0;
  /// Up to 32 full reports (RaceLog's cap). Under sharded replay the set
  /// matches sequential replay but the cross-shard order does not; sort
  /// before printing for order-independent output.
  std::vector<RaceReport> SampleReports;
  /// The shard count the replay actually ran with (auto requests
  /// resolve to 1).
  unsigned ResolvedShards = 1;
  /// The clock-kernel ISA the dispatcher resolved for this analysis
  /// (kernels::activeIsa() at replay time): "avx512", "avx2", "sse2",
  /// "neon", or "scalar". Surfaced by racedetect --times and the bench
  /// JSON.
  const char *Isa = "scalar";

  /// analyzeFile timing split: trace load / view map, index build (0
  /// unless Shards > 1), and replay. ReplaySeconds == AnalysisSeconds
  /// for file analyses; it includes the record check of a binary file
  /// that the sequential replay checks itself.
  double LoadSeconds = 0.0;
  double IndexSeconds = 0.0;
  /// Human-readable decisions taken on the way (streaming fallbacks);
  /// one '\n'-terminated line each.
  std::string Notes;

  bool sawRace(RaceKey Key) const { return Races.count(Key) != 0; }
  uint64_t dynamicCount(RaceKey Key) const {
    auto It = Races.find(Key);
    return It == Races.end() ? 0 : It->second;
  }
};

/// Facade binding one AnalysisRequest to a workload context. The workload
/// supplies LiteRace's site-to-method map and the ElideLocalAccesses
/// variable classification; callers analysing bare trace files (no code
/// structure) can use flatSiteWorkload(). The session is stateless across
/// calls -- every analyze* runs an independent replay -- so one session
/// may analyse any number of traces, and const sessions are safe to share
/// across threads.
class AnalysisSession {
public:
  /// \p Workload must outlive the session.
  AnalysisSession(const CompiledWorkload &Workload, AnalysisRequest Request)
      : Workload(Workload), Request(std::move(Request)) {}

  const AnalysisRequest &request() const { return Request; }
  const CompiledWorkload &workload() const { return Workload; }

  /// Generates the workload's trace for Request.Seed and analyses it.
  AnalysisResult analyzeGenerated() const;

  /// Analyses an in-memory or memory-mapped trace span. \p Index, when
  /// non-null, must describe \p T; it is reused when its shard count
  /// matches the resolved Setup.Shards and ignored otherwise (and always
  /// ignored under ElideLocalAccesses, which replays a filtered trace).
  /// The sequential replay checks each record as it reaches it: on a bad
  /// one the result is Ok = false with "<why> in record <N>" (N counts
  /// replayed records), covering the prefix before it. Sharded replay and
  /// ElideLocalAccesses read records unchecked and need a span whose
  /// records were checked on load (TraceView::open, readTraceFile).
  AnalysisResult analyzeTrace(TraceSpan T,
                              const TraceIndex *Index = nullptr) const;

  /// Analyses a trace from \p Reader's bounded window: sequential,
  /// O(window) trace-resident memory, Setup.Shards ignored. Reader errors
  /// surface as Ok = false.
  AnalysisResult analyzeStream(StreamingTraceReader &Reader) const;

  /// Analyses a trace file, auto-detecting text vs binary. The default
  /// path loads text / maps binary; Request.Stream bounds trace-resident
  /// memory at O(window) (see AnalysisRequest::Stream). Malformed or
  /// truncated files -- including every corruption the binary-v2
  /// validators reject -- surface as Ok = false with a diagnostic, never
  /// as a crash, so callers may feed untrusted bytes. A binary file that
  /// replays sequentially and unfiltered is mapped with only its framing
  /// checked, and its records are checked by the replay itself (see
  /// runtime/Runtime.h); the diagnostic is the one TraceView::open gives.
  /// Its record check therefore counts in ReplaySeconds, not LoadSeconds.
  AnalysisResult analyzeFile(const std::string &Path) const;

private:
  AnalysisResult analyzeFileInMemory(const std::string &Path) const;
  AnalysisResult analyzeFileStreaming(const std::string &Path) const;

  const CompiledWorkload &Workload;
  AnalysisRequest Request;
};

/// A workload context for traces with no code structure (trace files from
/// disk, daemon submissions): no local variables, no planted races, and a
/// flat site-to-method map (every site its own method) for LiteRace.
/// Shared instance; thread-safe to use concurrently.
const CompiledWorkload &flatSiteWorkload();

} // namespace pacer

#endif // PACER_RUNTIME_ANALYSISSESSION_H
