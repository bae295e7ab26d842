//===- bench/micro_trace_io.cpp - Trace I/O path benchmark ----------------==//
//
// Measures what the binary (v2) trace format and its read paths buy over
// the text format: for one generated medium-workload trace, times the
// load and a fasttrack replay through each of
//
//   text       readTraceFile on the v1 text file (line-by-line parse)
//   binary     readTraceFile on the v2 binary file (bulk slab reads)
//   mmap       TraceView::open (zero-copy; load = header + record check)
//   mmap-once  TraceView::openUnchecked, then the replay checks each
//              record as it reaches it -- what AnalysisSession::analyzeFile
//              does for a sequential replay (load = header only)
//   stream     StreamingTraceReader with a bounded window
//
// and reports each path's trace-resident bytes -- the memory the loaded
// trace itself pins, which is what distinguishes the paths (process peak
// RSS is monotonic and cannot be attributed per mode in one process):
// N * 12 for the materializing loaders, 0 for mmap (the kernel pages
// records in and out), window * 12 for streaming.
//
// Writes BENCH_trace_io.json; diffing it across commits tracks the perf
// trajectory. Exits non-zero if any path's dynamic race count disagrees
// with the text baseline, so the smoke-benchmark CI job doubles as a
// read-path equivalence check.
//
//===----------------------------------------------------------------------===//

#include "runtime/AnalysisSession.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceIO.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"
#include "support/CommandLine.h"
#include "support/Stats.h"
#include "support/Timer.h"

#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

using namespace pacer;

namespace {

struct Row {
  const char *Mode;
  double LoadMs = 0.0;
  double ReplayMs = 0.0;
  size_t TraceResidentBytes = 0;
  uint64_t DynamicRaces = 0;
};

long peakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) == 0)
    return Usage.ru_maxrss;
#endif
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionRegistry R("micro_trace_io [options]");
  R.addDouble("scale", 1.0, "workload scale factor")
      .addInt("seed", 12345, "trace seed")
      .addInt("reps", 5, "timed repetitions per point (median reported)")
      // Smaller than the default reader window so the bench's medium
      // trace genuinely streams through several windows.
      .addInt("stream-window", 8192, "streaming window size in actions")
      .addString("json-out", "BENCH_trace_io.json", "JSON output path");
  if (!R.parse(Argc, Argv))
    return R.helpRequested() ? 0 : 2;
  const double Scale = R.getDouble("scale");
  const uint64_t Seed = static_cast<uint64_t>(R.getInt("seed"));
  const auto Reps = static_cast<uint32_t>(R.getInt("reps"));
  const auto Window = static_cast<size_t>(R.getInt("stream-window"));
  const std::string OutPath = R.getString("json-out");

  CompiledWorkload Workload(scaleWorkload(mediumTestWorkload(), Scale));
  Trace T = generateTrace(Workload, Seed);
  std::printf("trace: %zu events (scale %g), window %zu actions\n", T.size(),
              Scale, Window);

  const std::string TextPath = OutPath + ".tmp.trace";
  const std::string BinPath = OutPath + ".tmp.btrace";
  if (!writeTraceFile(TextPath, T, TraceFormat::Text) ||
      !writeTraceFile(BinPath, T, TraceFormat::Binary)) {
    std::fprintf(stderr, "cannot write temp traces next to %s\n",
                 OutPath.c_str());
    return 1;
  }

  DetectorSetup Setup = fastTrackSetup();
  const size_t TraceBytes = T.size() * sizeof(Action);

  Timer Wall;
  std::vector<Row> Rows;

  // Replays a loaded span; returns the trial's dynamic race count.
  auto TimeReplay = [&](TraceSpan Span, std::vector<double> &Ms) {
    Timer Replay;
    AnalysisResult Result =
        AnalysisSession(Workload, trialRequest(Setup, Seed)).analyzeTrace(Span);
    Ms.push_back(Replay.seconds() * 1e3);
    return Result.DynamicRaces;
  };

  {
    Row Out{"text"};
    Out.TraceResidentBytes = TraceBytes;
    std::vector<double> LoadMs, ReplayMs;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      Timer Load;
      TraceParseResult Parsed = readTraceFile(TextPath);
      LoadMs.push_back(Load.seconds() * 1e3);
      if (!Parsed.Ok) {
        std::fprintf(stderr, "text load failed: %s\n", Parsed.Error.c_str());
        return 1;
      }
      Out.DynamicRaces = TimeReplay(Parsed.T, ReplayMs);
    }
    Out.LoadMs = median(LoadMs);
    Out.ReplayMs = median(ReplayMs);
    Rows.push_back(Out);
  }

  {
    Row Out{"binary"};
    Out.TraceResidentBytes = TraceBytes;
    std::vector<double> LoadMs, ReplayMs;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      Timer Load;
      TraceParseResult Parsed = readTraceFile(BinPath);
      LoadMs.push_back(Load.seconds() * 1e3);
      if (!Parsed.Ok) {
        std::fprintf(stderr, "binary load failed: %s\n",
                     Parsed.Error.c_str());
        return 1;
      }
      Out.DynamicRaces = TimeReplay(Parsed.T, ReplayMs);
    }
    Out.LoadMs = median(LoadMs);
    Out.ReplayMs = median(ReplayMs);
    Rows.push_back(Out);
  }

  {
    Row Out{"mmap"};
    Out.TraceResidentBytes = 0; // The kernel pages records in and out.
    std::vector<double> LoadMs, ReplayMs;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      Timer Load;
      TraceView View = TraceView::open(BinPath);
      LoadMs.push_back(Load.seconds() * 1e3);
      if (!View.ok()) {
        std::fprintf(stderr, "mmap load failed: %s\n", View.error().c_str());
        return 1;
      }
      if (!View.mapped())
        Out.TraceResidentBytes = TraceBytes; // Buffered fallback engaged.
      Out.DynamicRaces = TimeReplay(View.actions(), ReplayMs);
    }
    Out.LoadMs = median(LoadMs);
    Out.ReplayMs = median(ReplayMs);
    Rows.push_back(Out);
  }

  {
    Row Out{"mmap-once"};
    Out.TraceResidentBytes = 0;
    AnalysisRequest Request;
    Request.Setup = Setup;
    Request.Seed = Seed;
    const AnalysisSession Session(Workload, Request);
    std::vector<double> LoadMs, ReplayMs;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      Timer Load;
      TraceView View = TraceView::openUnchecked(BinPath);
      LoadMs.push_back(Load.seconds() * 1e3);
      if (!View.ok()) {
        std::fprintf(stderr, "mmap-once load failed: %s\n",
                     View.error().c_str());
        return 1;
      }
      if (!View.mapped())
        Out.TraceResidentBytes = TraceBytes;
      Timer Replay;
      AnalysisResult Result = Session.analyzeTrace(View.actions());
      ReplayMs.push_back(Replay.seconds() * 1e3);
      if (!Result.Ok) {
        std::fprintf(stderr, "mmap-once replay failed: %s\n",
                     Result.Error.c_str());
        return 1;
      }
      Out.DynamicRaces = Result.DynamicRaces;
    }
    Out.LoadMs = median(LoadMs);
    Out.ReplayMs = median(ReplayMs);
    Rows.push_back(Out);
  }

  {
    Row Out{"stream"};
    Out.TraceResidentBytes = Window * sizeof(Action);
    std::vector<double> LoadMs, ReplayMs;
    for (uint32_t Rep = 0; Rep < Reps; ++Rep) {
      // Streaming interleaves I/O with analysis; a pure drain pass stands
      // in for "load" so the columns stay comparable.
      Timer Load;
      {
        StreamingTraceReader Drain(BinPath, Window);
        while (!Drain.next().empty())
          ;
        if (!Drain.ok()) {
          std::fprintf(stderr, "stream drain failed: %s\n",
                       Drain.error().c_str());
          return 1;
        }
      }
      LoadMs.push_back(Load.seconds() * 1e3);

      StreamingTraceReader Reader(BinPath, Window);
      Timer Replay;
      AnalysisResult Result =
          AnalysisSession(Workload, trialRequest(Setup, Seed))
              .analyzeStream(Reader);
      ReplayMs.push_back(Replay.seconds() * 1e3);
      if (!Result.Ok) {
        std::fprintf(stderr, "stream replay failed: %s\n",
                     Result.Error.c_str());
        return 1;
      }
      Out.DynamicRaces = Result.DynamicRaces;
    }
    Out.LoadMs = median(LoadMs);
    Out.ReplayMs = median(ReplayMs);
    Rows.push_back(Out);
  }

  bool Mismatch = false;
  const double TextLoadMs = Rows.front().LoadMs;
  for (const Row &Out : Rows) {
    if (Out.DynamicRaces != Rows.front().DynamicRaces) {
      std::fprintf(stderr,
                   "READ-PATH MISMATCH: %s found %llu dynamic races vs "
                   "text %llu\n",
                   Out.Mode,
                   static_cast<unsigned long long>(Out.DynamicRaces),
                   static_cast<unsigned long long>(
                       Rows.front().DynamicRaces));
      Mismatch = true;
    }
    std::printf("%-9s load %8.3f ms (%5.2fx vs text)  replay %8.2f ms  "
                "trace-resident %10zu B  races %llu\n",
                Out.Mode, Out.LoadMs,
                Out.LoadMs > 0.0 ? TextLoadMs / Out.LoadMs : 0.0,
                Out.ReplayMs, Out.TraceResidentBytes,
                static_cast<unsigned long long>(Out.DynamicRaces));
  }

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"workload\": \"%s\",\n  \"events\": %zu,\n"
               "  \"reps\": %u,\n  \"stream_window_actions\": %zu,\n"
               "  \"process_peak_rss_kb\": %ld,\n  \"points\": [\n",
               Workload.spec().Name.c_str(), T.size(), Reps, Window,
               peakRssKb());
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &Row = Rows[I];
    std::fprintf(Out,
                 "    {\"mode\": \"%s\", \"load_ms\": %.3f, "
                 "\"load_speedup_vs_text\": %.3f, \"replay_ms\": %.3f, "
                 "\"trace_resident_bytes\": %zu, \"dynamic_races\": %llu}%s\n",
                 Row.Mode, Row.LoadMs,
                 Row.LoadMs > 0.0 ? TextLoadMs / Row.LoadMs : 0.0,
                 Row.ReplayMs, Row.TraceResidentBytes,
                 static_cast<unsigned long long>(Row.DynamicRaces),
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Out, "  ]\n}\n");
  std::fclose(Out);
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
  std::printf("wrote %s\n[timing] wall-clock %.2fs\n", OutPath.c_str(),
              Wall.seconds());
  return Mismatch ? 1 : 0;
}
