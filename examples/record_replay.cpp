//===- examples/record_replay.cpp - Offline analysis workflow -------------==//
//
// The record/replay workflow the paper contrasts PACER against: LiteRace
// "uses offline race detection by recording synchronization, read, and
// write operations to a log file" (Section 2.3). This example records an
// execution of the pseudojbb model to a trace file, then re-analyses the
// SAME execution offline with three detectors -- something impossible in
// live deployments (you cannot rewind production), which is exactly why
// PACER's online, deployment-cheap detection matters.
//
// Usage: record_replay [trace-file]   (default: /tmp/pacer_recorded.btrace)
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/Workloads.h"

#include <cstdio>

using namespace pacer;

int main(int Argc, char **Argv) {
  std::printf("Record once, analyse offline\n"
              "============================\n\n");

  std::string Path =
      Argc > 1 ? Argv[1] : std::string("/tmp/pacer_recorded.btrace");

  // --- Record: one execution of the workload, logged to disk in the
  // binary v2 format (12 bytes per action; readTraceFile and the
  // streaming reader auto-detect the format either way). ---
  WorkloadSpec Spec = scaleWorkload(pseudojbbModel(), 0.2);
  CompiledWorkload Workload(Spec);
  Trace Live = generateTrace(Workload, 42);
  if (!writeTraceFile(Path, Live, TraceFormat::Binary)) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return 1;
  }
  TraceProfile Profile = profileTrace(Live);
  std::printf("Recorded %llu actions (%llu sync ops) to %s\n\n",
              static_cast<unsigned long long>(Profile.Total),
              static_cast<unsigned long long>(Profile.SyncOps),
              Path.c_str());

  // --- Replay: load the log and run detectors after the fact. ---
  TraceParseResult Parsed = readTraceFile(Path);
  if (!Parsed.Ok) {
    std::fprintf(stderr, "error: %s\n", Parsed.Error.c_str());
    return 1;
  }

  struct Entry {
    const char *Label;
    DetectorSetup Setup;
  };
  for (const Entry &E :
       {Entry{"FastTrack (full)", fastTrackSetup()},
        Entry{"PACER r=100%", pacerSetup(1.0)},
        Entry{"GENERIC", genericSetup()}}) {
    AnalysisResult Result = AnalysisSession(Workload, trialRequest(E.Setup, 42))
                                .analyzeTrace(Parsed.T);
    std::printf("%-18s %zu distinct race(s), %llu dynamic report(s)\n",
                E.Label, Result.Races.size(),
                static_cast<unsigned long long>(Result.DynamicRaces));
  }

  // --- Stream: the same analysis without ever materializing the trace.
  // A bounded window (here 4096 actions, ~48 KiB) flows through the
  // detector; the result is bit-identical to the in-memory replay. ---
  StreamingTraceReader Reader(Path, 4096);
  AnalysisResult Streamed =
      AnalysisSession(Workload, trialRequest(fastTrackSetup(), 42))
          .analyzeStream(Reader);
  if (!Streamed.Ok) {
    std::fprintf(stderr, "error: %s\n", Streamed.Error.c_str());
    return 1;
  }
  std::printf("%-18s %zu distinct race(s), %llu dynamic report(s)"
              "  (window: 4096 actions)\n",
              "FastTrack streamed", Streamed.Races.size(),
              static_cast<unsigned long long>(Streamed.DynamicRaces));

  std::printf("\nAll four runs agree on the recorded execution. The catch: "
              "recording costs I/O per\naccess and the log must exist "
              "before anything can be analysed -- PACER instead\nanalyses "
              "online at a tunable fraction of the cost, which is what "
              "makes it\ndeployable where recording is not.\n");
  return 0;
}
