//===- bench/BenchCommon.h - Shared bench-binary plumbing ------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Common flag handling and the detection-study driver shared by the
/// table/figure reproduction binaries. Every binary accepts:
///
///   --workload=NAME   one of eclipse|hsqldb|xalan|pseudojbb (default all)
///   --scale=F         multiply per-worker operation counts (default per
///                     binary; 1.0 approximates the calibrated size)
///   --trials=N        override the per-point trial count
///   --seed=S          base seed (default 12345)
///   --full-trials=N   fully sampled calibration trials (default 30)
///   --jobs=N          worker threads for trial-level parallelism
///   --shards=K        variable shards per trial (intra-trial parallel
///                     replay; results are bit-identical across K);
///                     --shards=auto replays sequentially, like 1
///
/// The shared flags live in an OptionRegistry (benchOptionRegistry);
/// binaries with extra flags declare them on that registry before parsing,
/// so every bench driver gets generated --help and unknown-flag rejection.
/// Binaries print the reproduced rows plus the paper's published values
/// for side-by-side comparison; see EXPERIMENTS.md.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_BENCH_BENCHCOMMON_H
#define PACER_BENCH_BENCHCOMMON_H

#include "harness/DetectionExperiment.h"
#include "runtime/AnalysisSession.h"
#include "runtime/TraceIndex.h"
#include "sim/Workloads.h"
#include "support/CommandLine.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace pacer::bench {

/// Options shared by all bench binaries.
struct BenchOptions {
  std::vector<WorkloadSpec> Workloads;
  double Scale = 1.0;
  int64_t Trials = -1; ///< -1 = per-binary default / formula.
  uint64_t Seed = 12345;
  uint32_t FullTrials = 30;
  /// Trial-level parallelism (--jobs / PACER_JOBS). Results are
  /// bit-identical across jobs values; 1 is the serial loop.
  unsigned Jobs = 1;
  /// Variable shards per trial replay (--shards). Each trial's accesses
  /// are partitioned across K detector replicas analysed concurrently;
  /// results are bit-identical across shard counts, 1 is sequential and
  /// 0 ("auto") replays sequentially too (sharding does not pay for its
  /// index end to end; see DESIGN.md §6d).
  unsigned Shards = 1;
};

/// Returns a registry pre-declared with the flags every bench binary
/// shares. Binaries with extra flags chain their own add*() calls on the
/// result before handing it to parseBenchOptionsFrom.
inline OptionRegistry benchOptionRegistry(const std::string &Usage,
                                          double DefaultScale) {
  OptionRegistry R(Usage);
  R.addString("workload", "",
              "one of eclipse|hsqldb|xalan|pseudojbb|forkjoin; empty = "
              "the four paper workloads")
      .addDouble("scale", DefaultScale,
                 "multiply per-worker operation counts")
      .addInt("trials", -1, "override the per-point trial count; -1 = "
                            "paper formula")
      .addInt("seed", 12345, "base seed")
      .addInt("full-trials", 30, "fully sampled calibration trials")
      .addInt("jobs", static_cast<int64_t>(defaultJobs()),
              "worker threads for trial-level parallelism")
      .addString("shards", "1",
                 "variable shards per trial replay (intra-trial "
                 "parallelism): a count; 'auto' = 1 (sequential)");
  return R;
}

/// Extracts the shared options from a registry that has parsed argv.
inline BenchOptions benchOptionsFrom(const OptionRegistry &R) {
  BenchOptions Options;
  Options.Scale = R.getDouble("scale");
  Options.Trials = R.getInt("trials");
  Options.Seed = static_cast<uint64_t>(R.getInt("seed"));
  Options.FullTrials = static_cast<uint32_t>(R.getInt("full-trials"));
  int64_t Jobs = R.getInt("jobs");
  Options.Jobs = Jobs < 1 ? 1u : static_cast<unsigned>(Jobs);
  Options.Shards = parseShardCount(R.getString("shards"));
  std::string Name = R.getString("workload");
  std::vector<WorkloadSpec> All = paperWorkloads();
  for (WorkloadSpec &Spec : All)
    if (Name.empty() || Spec.Name == Name)
      Options.Workloads.push_back(scaleWorkload(Spec, Options.Scale));
  // The fork/join stress family is opt-in by name: it is not a paper
  // benchmark, so the empty default sweeps only the paper four.
  if (Options.Workloads.empty() && Name == "forkjoin")
    Options.Workloads.push_back(scaleWorkload(forkJoinModel(), Options.Scale));
  if (Options.Workloads.empty()) {
    std::fprintf(stderr,
                 "unknown --workload=%s (want eclipse, hsqldb, xalan, "
                 "pseudojbb, or forkjoin)\n",
                 Name.c_str());
    std::exit(1);
  }
  return Options;
}

/// Parses argv against \p R, exiting on --help (status 0) or an unknown
/// flag (status 2), then extracts the shared options.
inline BenchOptions parseBenchOptionsFrom(OptionRegistry &R, int Argc,
                                          const char *const *Argv) {
  if (!R.parse(Argc, Argv))
    std::exit(R.helpRequested() ? 0 : 2);
  return benchOptionsFrom(R);
}

/// Convenience for binaries with no extra flags.
inline BenchOptions parseBenchOptions(int Argc, const char *const *Argv,
                                      double DefaultScale) {
  OptionRegistry R = benchOptionRegistry(
      std::string(Argc > 0 ? Argv[0] : "bench") + " [options]",
      DefaultScale);
  return parseBenchOptionsFrom(R, Argc, Argv);
}

/// Prints a banner naming the experiment and the paper artifact it
/// regenerates.
inline void printBanner(const char *Artifact, const char *Claim) {
  std::printf("=== %s ===\n%s\n\n", Artifact, Claim);
}

/// Prints the experiment-level wall-clock line every bench driver emits,
/// so speedups from --jobs are measurable run to run.
inline void printWallClock(const Timer &T, const BenchOptions &Options) {
  std::printf("[timing] wall-clock %.2fs (jobs=%u)\n", T.seconds(),
              Options.Jobs);
}

/// One Figures 8-9 slowdown cell. No analysis can run faster than the
/// no-analysis baseline, so a slowdown below 1.00x is a measurement fault:
/// the cell gets a '!' and \p BelowBaseline is set, so the caller can
/// print printSlowdownFaultNote() under the table and exit 1.
inline std::string slowdownCell(double Slowdown, bool &BelowBaseline) {
  const bool Below = Slowdown < 1.0;
  BelowBaseline |= Below;
  return formatDouble(Slowdown, 2) + (Below ? "x!" : "x");
}

inline void printSlowdownFaultNote(bool BelowBaseline) {
  if (BelowBaseline)
    std::printf("! below the no-analysis baseline: a measurement fault, "
                "not a speedup (exit 1)\n");
}

/// One workload's detection study: ground truth plus one DetectionPoint
/// per requested rate.
struct DetectionStudy {
  WorkloadSpec Spec;
  GroundTruth Truth;
  std::vector<DetectionPoint> Points;
};

/// Runs the Figures 3-5 pipeline for one workload. \p TrialsOverride < 0
/// applies the paper's numTrials formula (simulator-scaled).
inline DetectionStudy runDetectionStudy(const WorkloadSpec &Spec,
                                        const std::vector<double> &Rates,
                                        const BenchOptions &Options) {
  DetectionStudy Study;
  Study.Spec = Spec;
  CompiledWorkload Workload(Spec);
  Study.Truth = computeGroundTruth(Workload, Options.FullTrials,
                                   Options.Seed, Options.Jobs);
  for (double Rate : Rates) {
    uint32_t Trials = Options.Trials > 0
                          ? static_cast<uint32_t>(Options.Trials)
                          : numTrialsForRate(Rate, /*Scale=*/0.5,
                                             /*MinTrials=*/10,
                                             /*MaxTrials=*/60);
    DetectorSetup Setup = pacerSetup(Rate);
    // Small simulated nurseries give each trial enough period-entry
    // decisions for the bias correction to work at simulator trace sizes
    // (the paper's executions see hundreds of 32 MB periods).
    Setup.Sampling.PeriodBytes = 12 * 1024;
    Study.Points.push_back(measureDetection(
        Workload, Study.Truth, Setup, Trials,
        Options.Seed + static_cast<uint64_t>(Rate * 100000.0),
        Options.Jobs));
  }
  return Study;
}

/// The sampling rates the paper's accuracy figures sweep.
inline std::vector<double> accuracyRates() {
  return {0.01, 0.03, 0.05, 0.10, 0.25, 0.50, 1.00};
}

} // namespace pacer::bench

#endif // PACER_BENCH_BENCHCOMMON_H
