//===- bench/micro_sharded.cpp - Indexed sharded-replay benchmark ---------==//
//
// Measures sharded replay against plain sequential replay: for a sampling
// (pacer r=3%) and a non-sampling (fasttrack) detector it times the
// sequential Runtime replay (Shards = 1, no index) and, for K in
// {2, 4, 8}, the index build, the full-scan engine (every replica
// re-scans the whole trace: O(K * trace) total work), and the indexed
// engine (each replica walks the sync skeleton plus its owned runs:
// O(K * sync + accesses)). The "vs sequential" column is sequential time
// over index build + indexed replay, the cost a sharded analysis of one
// trace pays; below 1 sharding loses.
//
// Replicas run serially (Jobs = 1) on purpose: the quantity under test is
// *total work*, which serial execution exposes directly as wall-clock and
// which stays meaningful on single-core CI runners. On K cores the indexed
// engine's advantage compounds -- the full-scan engine's critical path is
// a whole-trace scan regardless of K.
//
// Writes BENCH_sharded_replay.json; diffing it across commits tracks the
// perf trajectory. Exits non-zero if either sharded engine ever disagrees
// with sequential replay on the races found, so the smoke-benchmark CI job
// doubles as an equivalence check.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "runtime/AnalysisSession.h"
#include "runtime/TraceIndex.h"
#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"
#include "support/CommandLine.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

using namespace pacer;

namespace {

struct Row {
  const char *Detector;
  unsigned Shards;
  double IndexBuildMs = 0.0;
  double FullScanMs = 0.0;
  double IndexedMs = 0.0;
  /// The same detector's sequential replay (Shards = 1, no index).
  double SequentialMs = 0.0;
  uint64_t DynamicRaces = 0;
  /// What sharding one trace costs from start to finish.
  double indexPlusIndexedMs() const { return IndexBuildMs + IndexedMs; }
  /// Sequential time over index + indexed time: above 1 sharding wins.
  double vsSequential() const {
    return indexPlusIndexedMs() > 0.0 ? SequentialMs / indexPlusIndexedMs()
                                      : 0.0;
  }
};

/// Whether \p A found exactly the races \p B did; prints a diagnostic
/// otherwise.
bool sameRaces(const AnalysisResult &A, const AnalysisResult &B,
               const char *Engine, const char *Detector, unsigned K) {
  if (A.Races == B.Races && A.DynamicRaces == B.DynamicRaces)
    return true;
  std::fprintf(stderr,
               "ENGINE MISMATCH: %s K=%u %s %llu races (%zu distinct) vs "
               "sequential %llu (%zu distinct)\n",
               Detector, K, Engine,
               static_cast<unsigned long long>(A.DynamicRaces),
               A.Races.size(),
               static_cast<unsigned long long>(B.DynamicRaces),
               B.Races.size());
  return false;
}

/// Both engines run through AnalysisSession; only the index policy
/// differs. Serial (ShardJobs = 1) on purpose: measure total work, not
/// scheduling luck.
AnalysisRequest requestFor(const DetectorSetup &Setup, unsigned Shards,
                           bool UseIndex, uint64_t Seed) {
  AnalysisRequest Request;
  Request.Setup = Setup;
  Request.Setup.Shards = Shards;
  Request.Setup.ShardJobs = 1;
  Request.Setup.ShardUseIndex = UseIndex;
  Request.Seed = Seed;
  Request.CollectReports = false;
  return Request;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionRegistry R("micro_sharded [options]");
  R.addDouble("scale", 1.0, "workload scale factor")
      .addInt("seed", 12345, "trace seed")
      .addInt("reps", 7, "timed repetitions per point (median reported)")
      .addString("json-out", "BENCH_sharded_replay.json", "JSON output path");
  if (!R.parse(Argc, Argv))
    return R.helpRequested() ? 0 : 2;
  const double Scale = R.getDouble("scale");
  const uint64_t Seed = static_cast<uint64_t>(R.getInt("seed"));
  const auto Reps = static_cast<uint32_t>(R.getInt("reps"));
  const std::string OutPath = R.getString("json-out");

  CompiledWorkload Workload(scaleWorkload(mediumTestWorkload(), Scale));
  Trace T = generateTrace(Workload, Seed);
  const uint64_t Accesses = countTraceAccesses(T);
  std::printf("trace: %zu events, %llu accesses (scale %g)\n", T.size(),
              static_cast<unsigned long long>(Accesses), Scale);

  DetectorSetup Pacer = pacerSetup(0.03);
  // Small simulated nursery so the trace spans many sampling periods and
  // the bulk controller advance is exercised, as in the detection studies.
  Pacer.Sampling.PeriodBytes = 12 * 1024;
  const struct {
    const char *Name;
    DetectorSetup Setup;
  } Detectors[] = {
      {"pacer_r3", Pacer},
      {"fasttrack", fastTrackSetup()},
  };
  // K = 1 is the sequential replay itself: both engines hand it to the
  // Runtime, so it is the baseline row, not a sharded point.
  const unsigned ShardCounts[] = {2, 4, 8};

  Timer Wall;
  std::vector<Row> Rows;
  bool Mismatch = false;
  for (const auto &D : Detectors) {
    // The baseline every sharded point is measured against.
    AnalysisSession SequentialSession(Workload,
                                      requestFor(D.Setup, 1, false, Seed));
    std::vector<double> SeqMs;
    AnalysisResult Sequential;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      Timer Run;
      Sequential = SequentialSession.analyzeTrace(T);
      SeqMs.push_back(Run.seconds() * 1e3);
    }
    const double SequentialMs = median(SeqMs);
    std::printf("%-10s sequential %8.2f ms  races %llu\n", D.Name,
                SequentialMs,
                static_cast<unsigned long long>(Sequential.DynamicRaces));

    for (unsigned K : ShardCounts) {
      Row Out{D.Name, K};
      Out.SequentialMs = SequentialMs;

      AnalysisSession FullSession(Workload,
                                  requestFor(D.Setup, K, false, Seed));
      AnalysisSession IndexedSession(Workload,
                                     requestFor(D.Setup, K, true, Seed));
      std::vector<double> BuildMs, FullMs, IndexedMs;
      TraceIndex Index = TraceIndex::build(T, K);
      for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
        Timer Build;
        TraceIndex Rebuilt = TraceIndex::build(T, K);
        BuildMs.push_back(Build.seconds() * 1e3);

        Timer FullScan;
        AnalysisResult FullResult = FullSession.analyzeTrace(T);
        FullMs.push_back(FullScan.seconds() * 1e3);

        Timer Indexed;
        AnalysisResult IndexedResult = IndexedSession.analyzeTrace(T, &Index);
        IndexedMs.push_back(Indexed.seconds() * 1e3);

        Out.DynamicRaces = IndexedResult.DynamicRaces;
        Mismatch |= !sameRaces(FullResult, Sequential, "full-scan", D.Name, K);
        Mismatch |= !sameRaces(IndexedResult, Sequential, "indexed", D.Name, K);
      }
      Out.IndexBuildMs = median(BuildMs);
      Out.FullScanMs = median(FullMs);
      Out.IndexedMs = median(IndexedMs);
      Rows.push_back(Out);
      std::printf("%-10s K=%u  build %7.2f ms  full-scan %8.2f ms  "
                  "indexed %8.2f ms  build+indexed %8.2f ms  "
                  "vs sequential %5.2fx  races %llu\n",
                  Out.Detector, Out.Shards, Out.IndexBuildMs, Out.FullScanMs,
                  Out.IndexedMs, Out.indexPlusIndexedMs(), Out.vsSequential(),
                  static_cast<unsigned long long>(Out.DynamicRaces));
    }
  }

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"workload\": \"%s\",\n  \"events\": %zu,\n"
               "  \"accesses\": %llu,\n  \"reps\": %u,\n  \"jobs\": 1,\n"
               "  \"isa\": \"%s\",\n  \"sequential\": [\n",
               Workload.spec().Name.c_str(), T.size(),
               static_cast<unsigned long long>(Accesses), Reps,
               kernels::activeIsa());
  for (size_t I = 0; I < Rows.size(); I += std::size(ShardCounts))
    std::fprintf(Out,
                 "    {\"detector\": \"%s\", \"sequential_ms\": %.3f}%s\n",
                 Rows[I].Detector, Rows[I].SequentialMs,
                 I + std::size(ShardCounts) >= Rows.size() ? "" : ",");
  std::fprintf(Out, "  ],\n  \"points\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &Row = Rows[I];
    std::fprintf(Out,
                 "    {\"detector\": \"%s\", \"shards\": %u, "
                 "\"index_build_ms\": %.3f, \"full_scan_ms\": %.3f, "
                 "\"indexed_ms\": %.3f, \"index_plus_indexed_ms\": %.3f, "
                 "\"sequential_ms\": %.3f, \"vs_sequential\": %.3f, "
                 "\"dynamic_races\": %llu}%s\n",
                 Row.Detector, Row.Shards, Row.IndexBuildMs, Row.FullScanMs,
                 Row.IndexedMs, Row.indexPlusIndexedMs(), Row.SequentialMs,
                 Row.vsSequential(),
                 static_cast<unsigned long long>(Row.DynamicRaces),
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::printf("wrote %s\n[timing] wall-clock %.2fs\n", OutPath.c_str(),
              Wall.seconds());
  return Mismatch ? 1 : 0;
}
