//===- perfbench/src/main.cpp - pacerbench, the end-to-end benchmark ------==//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// pacerbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///            [--wrong-reference] [--work-dir DIR]
/// pacerbench --selftest
/// pacerbench --list-metrics
///
/// Runs one workload for S seconds and prints, as the last line of
/// standard output, {"correct", "attempted", "failed", "metrics"}: the
/// end-to-end metrics untraced (--trace 0), the per-layer metrics from a
/// traced run (--trace 1). Lines before it give host and build facts, the
/// traces, sample counts and every failed check. Exits 1 when a check
/// fails, 2 on bad usage or an unoptimized build. See perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Measure.h"

#include "core/ClockKernels.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <unistd.h>

using namespace perfbench;

namespace {

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool OptimizedBuild = true;
#else
constexpr bool OptimizedBuild = false;
#endif

int usage(const char *Why) {
  std::fprintf(stderr,
               "pacerbench: %s\n"
               "usage: pacerbench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--wrong-reference] [--work-dir DIR]\n"
               "       pacerbench --selftest | --list-metrics\n"
               "workloads: pacer-r1 pacer-r100 batch-default fleet-ingest\n",
               Why);
  return 2;
}

std::string factsLine(const Options &Opts) {
  char Line[512];
  std::snprintf(Line, sizeof Line,
                "host: isa=%s nproc=%u hardware_jobs=%u compiler=\"%s\" "
                "build=%s workload=%s seed=%llu seconds=%g trace=%d",
                pacer::kernels::activeIsa(),
                static_cast<unsigned>(sysconf(_SC_NPROCESSORS_ONLN)),
                pacer::hardwareJobs(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, Opts.Workload.c_str(),
                static_cast<unsigned long long>(Opts.Seed), Opts.Seconds,
                Opts.Trace ? 1 : 0);
  return Line;
}

Outcome runWorkload(const Options &Opts) {
  std::filesystem::create_directories(Opts.WorkDir);
  Outcome Out = Opts.Workload == "fleet-ingest" ? runFleet(Opts)
                                                : runOffline(Opts);
  std::error_code Ignored;
  std::filesystem::remove_all(Opts.WorkDir, Ignored);
  // Every emitted metric must be a finite number from the right table.
  const auto &Defs = Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricDef &Def : Defs) {
    auto It = Out.Metrics.find(Def.Name);
    if (It == Out.Metrics.end())
      Out.fail(std::string("metric not measured: ") + Def.Name);
    else if (!std::isfinite(It->second))
      Out.fail(std::string("metric not finite: ") + Def.Name);
  }
  return Out;
}

void printOutcome(const Options &Opts, const Outcome &Out) {
  std::printf("%s\n", factsLine(Opts).c_str());
  for (const std::string &Note : Out.Notes)
    std::printf("%s\n", Note.c_str());
  const auto &Defs = Opts.Trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricDef &Def : Defs) {
    auto It = Out.Metrics.find(Def.Name);
    std::printf("metric %-34s %.6g %s\n", Def.Name,
                It == Out.Metrics.end() ? 0.0 : It->second, Def.Unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Out.Correct ? "true" : "false",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed));
  bool First = true;
  for (const MetricDef &Def : Defs) {
    auto It = Out.Metrics.find(Def.Name);
    double Value = It == Out.Metrics.end() ? 0.0 : It->second;
    if (!std::isfinite(Value))
      Value = 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", Def.Name, Value, Def.Unit);
    First = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int listMetrics() {
  auto List = [](const std::vector<MetricDef> &Defs) {
    std::string S = "[";
    for (size_t I = 0; I < Defs.size(); ++I)
      S += std::string(I ? ", " : "") + "[\"" + Defs[I].Name + "\", \"" +
           Defs[I].Unit + "\"]";
    return S + "]";
  };
  std::string Workloads = "[";
  for (size_t I = 0; I < workloadNames().size(); ++I)
    Workloads += std::string(I ? ", " : "") + "\"" + workloadNames()[I] + "\"";
  std::printf("{\"end_to_end\": %s, \"per_layer\": %s, \"workloads\": %s]}\n",
              List(endToEndMetrics()).c_str(), List(perLayerMetrics()).c_str(),
              Workloads.c_str());
  return 0;
}

/// Runs every workload once on tiny traces, untraced and traced, checks
/// that each emits exactly its metric table and passes its gates, then
/// feeds wrong references and checks that each gate, and the check that
/// repeated analyses are bit-identical, fails on its own.
int selfTest(const std::string &WorkRoot) {
  int Failures = 0;
  auto Expect = [&](bool Ok, const std::string &What) {
    std::printf("selftest: %-58s %s\n", What.c_str(), Ok ? "ok" : "FAILED");
    Failures += Ok ? 0 : 1;
  };
  auto Run = [&](const std::string &Workload, bool Trace,
                 Options::Corruption Wrong, bool Tiny = true,
                 uint64_t Seed = 1) {
    Options Opts;
    Opts.Workload = Workload;
    Opts.Seconds = 0.3;
    Opts.Trace = Trace;
    Opts.Tiny = Tiny;
    Opts.Seed = Seed;
    Opts.WrongReference = Wrong;
    Opts.WorkDir = WorkRoot + "/selftest-" + Workload;
    return runWorkload(Opts);
  };
  for (const std::string &Workload : workloadNames()) {
    for (bool Trace : {false, true}) {
      const Outcome Out = Run(Workload, Trace, Options::Corruption::None);
      const std::string Tag = Workload + (Trace ? " traced" : " untraced");
      std::set<std::string> Want, Have;
      for (const MetricDef &Def :
           Trace ? perLayerMetrics() : endToEndMetrics())
        Want.insert(Def.Name);
      for (const auto &Entry : Out.Metrics)
        Have.insert(Entry.first);
      Expect(Out.Correct && Out.Failed == 0 && Out.Attempted > 0,
             Tag + ": gates pass");
      Expect(Want == Have, Tag + ": emits every metric, and only those");
      if (!Out.Correct)
        for (const std::string &Note : Out.Notes)
          std::printf("  %s\n", Note.c_str());
    }
  }
  // Each wrong reference must be caught by the check it targets, named by
  // the failure it prints, not by a later one. PACER at r = 1% finds no
  // race on tiny traces, and none on about half the seeds of the xalan
  // trace, so no reference can fail pacer-r1's subset gate there. That case
  // runs on the workload's own trace with a seed whose analysis reports a
  // race.
  constexpr uint64_t RacySeed = 3;
  const struct {
    const char *Workload;
    Options::Corruption Wrong;
    const char *Check;
    const char *Failure;
    bool Tiny;
  } Wrongs[] = {
      {"pacer-r1", Options::Corruption::Gate, "gate",
       "not in FastTrack's set", false},
      {"pacer-r100", Options::Corruption::Gate, "gate",
       "differ from FastTrack's", true},
      {"batch-default", Options::Corruption::Gate, "gate",
       "differ from the Shards=1 replay", true},
      {"fleet-ingest", Options::Corruption::Gate, "gate",
       "aggregatorCopy() differs", true},
      {"pacer-r100", Options::Corruption::Identity, "bit-identity check",
       "not bit-identical", true},
  };
  for (const auto &W : Wrongs) {
    const Outcome Out =
        Run(W.Workload, false, W.Wrong, W.Tiny, W.Tiny ? 1 : RacySeed);
    bool Named = false;
    for (const std::string &Note : Out.Notes)
      Named |= Note.rfind("FAIL: ", 0) == 0 &&
               Note.find(W.Failure) != std::string::npos;
    Expect(!Out.Correct && Out.Failed > 0 && Named,
           std::string(W.Workload) + ": wrong reference fails the " +
               W.Check);
    if (!Named)
      for (const std::string &Note : Out.Notes)
        std::printf("  %s\n", Note.c_str());
  }
  std::error_code Ignored;
  std::filesystem::remove_all(WorkRoot, Ignored);
  std::printf("selftest: %s\n", Failures ? "FAILED" : "passed");
  return Failures ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (!OptimizedBuild) {
    std::fprintf(stderr, "pacerbench: refusing to run an unoptimized build "
                         "(needs -O and NDEBUG: Release or RelWithDebInfo)\n");
    return 2;
  }
  Options Opts;
  bool SelfTest = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (Arg == "--list-metrics")
      return listMetrics();
    if (Arg == "--selftest") {
      SelfTest = true;
    } else if (Arg == "--wrong-reference") {
      Opts.WrongReference = Options::Corruption::Gate;
    } else if (Arg == "--workload" || Arg == "--seed" || Arg == "--seconds" ||
               Arg == "--trace" || Arg == "--work-dir") {
      const char *V = Value();
      if (!V)
        return usage(("missing value for " + Arg).c_str());
      char *End = nullptr;
      if (Arg == "--workload")
        Opts.Workload = V;
      else if (Arg == "--work-dir")
        Opts.WorkDir = V;
      else if (Arg == "--seed")
        Opts.Seed = std::strtoull(V, &End, 10);
      else if (Arg == "--seconds")
        Opts.Seconds = std::strtod(V, &End);
      else
        Opts.Trace = std::strtol(V, &End, 10) != 0;
      if (End && *End != '\0')
        return usage(("bad value for " + Arg).c_str());
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }

  // Scratch space stays inside the working directory (the checkout).
  const std::string Root = ".bench_build";
  const std::string PidTag = std::to_string(getpid());
  if (SelfTest)
    return selfTest(Root + "/selftest-" + PidTag);

  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Opts.Workload) == Names.end())
    return usage(("unknown workload '" + Opts.Workload + "'").c_str());
  if (!(Opts.Seconds > 0) || Opts.Seconds > 120)
    return usage("--seconds must be in (0, 120]");
  if (Opts.WorkDir.empty())
    Opts.WorkDir = Root + "/run-" + PidTag;
  if (Opts.Trace) {
    std::filesystem::create_directories(Root + "/spans");
    Opts.SpanFile = Root + "/spans/" + Opts.Workload + "-seed" +
                    std::to_string(Opts.Seed) + ".json";
  }

  const HostTicks Before = hostTicks();
  Outcome Out = runWorkload(Opts);
  const HostTicks After = hostTicks();
  // Time the hypervisor takes away slows multi-threaded workloads most;
  // it tells outside load apart from a change in the program.
  char Steal[96];
  std::snprintf(Steal, sizeof Steal, "host: steal %.1f%% of all CPU time "
                "during the run",
                100.0 * ratio(static_cast<double>(After.Steal - Before.Steal),
                              static_cast<double>(After.Total - Before.Total)));
  Out.Notes.insert(Out.Notes.begin(), Steal);
  printOutcome(Opts, Out);
  return Out.Correct && Out.Failed == 0 ? 0 : 1;
}
