//===- perfbench/src/Common.cpp -------------------------------------------==//

#include "Common.h"
#include "Measure.h"

#include "sim/TraceGenerator.h"
#include "sim/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

using namespace pacer;
using namespace perfbench;

namespace fs = std::filesystem;

TraceFile perfbench::writeWorkloadTrace(const std::string &Dir,
                                        const char *Model, double Scale,
                                        TraceFormat Format, uint64_t Seed,
                                        bool Tiny) {
  WorkloadSpec Spec = Tiny ? tinyTestWorkload()
                           : scaleWorkload(paperWorkloadByName(Model), Scale);
  const CompiledWorkload Workload(Spec);
  const Trace T = generateTrace(Workload, Seed);

  TraceFile F;
  char Label[64];
  std::snprintf(Label, sizeof Label, "%s@%g", Tiny ? "tiny" : Model,
                Tiny ? 1.0 : Scale);
  F.Label = Label;
  F.Path = Dir + "/" + F.Label + "-" + std::to_string(Seed) +
           (Format == TraceFormat::Binary ? ".bin" : ".txt");
  F.Format = Format;
  F.Seed = Seed;
  F.Actions = T.size();
  if (!writeTraceFile(F.Path, T, Format)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", F.Path.c_str());
    std::exit(1);
  }
  F.Bytes = fs::file_size(F.Path);
  return F;
}

std::string perfbench::describeTrace(const TraceFile &F) {
  return "trace: " + F.Label + " " + traceFormatName(F.Format) + " " +
         std::to_string(F.Actions) + " actions " + std::to_string(F.Bytes) +
         " bytes seed " + std::to_string(F.Seed);
}

double perfbench::timedSetups(
    const std::string &WorkDir,
    const std::function<void(const std::string &Dir)> &SetUp,
    const std::function<void()> &TearDown) {
  std::vector<double> Seconds;
  std::string Previous;
  for (int I = 0; I < SetupRepeats; ++I) {
    if (I > 0 && TearDown)
      TearDown();
    if (!Previous.empty())
      fs::remove_all(Previous);
    const std::string Dir = WorkDir + "/setup" + std::to_string(I);
    fs::create_directories(Dir);
    const Clock::time_point Start = Clock::now();
    SetUp(Dir);
    Seconds.push_back(msSince(Start) / 1e3);
    Previous = Dir;
  }
  return median(Seconds);
}

LoadedTrace::LoadedTrace(const std::string &Path) {
  TraceFormat Format;
  if (!detectTraceFileFormat(Path, Format, Error))
    return;
  if (Format == TraceFormat::Binary) {
    View = TraceView::open(Path);
    if (!View.ok())
      Error = View.error();
    Span = View.actions();
    return;
  }
  TraceParseResult Result = readTraceFile(Path);
  if (!Result.Ok)
    Error = Result.Error;
  Parsed = std::move(Result.T);
  Span = Parsed;
}

void perfbench::reportEndToEnd(const Timeline &Phase, double PeakRssMb,
                               double SetupS, const char *Noun,
                               Outcome &Out) {
  const Timeline::Summary Sum = Phase.summarize();
  const double FailedFrac = ratio(static_cast<double>(Out.Failed),
                                  static_cast<double>(Out.Attempted));
  Out.Metrics["throughput_mact_s"] = Sum.ThroughputMactS;
  Out.Metrics["trace_ms.p50"] = Sum.P50Ms;
  Out.Metrics["trace_ms.p90"] = Sum.P90Ms;
  Out.Metrics["cpu_ms_per_trace"] = Sum.CpuMsPerTrace;
  Out.Metrics["peak_rss_mb"] = PeakRssMb;
  Out.Metrics["setup_s"] = SetupS;
  Out.Metrics["ok_frac"] = 1.0 - FailedFrac;

  const size_t N = Phase.Samples.size();
  Out.Notes.push_back("samples: " + std::to_string(N) + " " + Noun + ", " +
                      std::to_string(N / 10) + " beyond p90" +
                      (N < 100 ? " (fewer than 10)" : "") + "; failed_frac " +
                      std::to_string(FailedFrac));
  std::vector<double> All;
  for (const Timeline::Sample &S : Phase.Samples)
    All.push_back(S.LatencyMs);
  char Deciles[160];
  std::snprintf(Deciles, sizeof Deciles,
                "trace_ms p10 %.2f p25 %.2f p50 %.2f p75 %.2f p90 %.2f "
                "max %.2f (pooled)",
                quantile(All, 0.1), quantile(All, 0.25), quantile(All, 0.5),
                quantile(All, 0.75), quantile(All, 0.9), quantile(All, 1.0));
  Out.Notes.push_back(Deciles);
}

void perfbench::writeSpans(const SpanLog &Spans, const Options &Opts,
                           Outcome &Out) {
  if (Opts.SpanFile.empty())
    return;
  const std::string Header = "{\"workload\": \"" + Opts.Workload +
                             "\", \"seed\": " + std::to_string(Opts.Seed) +
                             "}";
  if (!Spans.write(Opts.SpanFile, Header))
    Out.Notes.push_back("warning: could not write " + Opts.SpanFile);
}
