//===- perfbench/src/Bench.h - Shared types of pacerbench ------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by pacerbench's workloads: the run options, the
/// metric vocabulary (names, units and the run kind that emits them), and
/// the outcome every workload returns. The metric tables here are the one
/// list pacerbench emits, the self-test checks and BENCHMARK.json mirrors.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 30;
  bool Trace = false;
  /// Self-test scale: every trace comes from tinyTestWorkload().
  bool Tiny = false;
  /// A reference corrupted on purpose, so that a check must fail.
  enum class Corruption {
    None,
    Gate,     ///< The workload's gate reference (--wrong-reference).
    Identity, ///< The first analysis, which offline repeats must match.
  };
  Corruption WrongReference = Corruption::None;
  /// Scratch directory (relative to the working directory) for traces,
  /// spool and sockets; removed at exit.
  std::string WorkDir;
  /// Where the traced run writes its spans.
  std::string SpanFile;
};

/// The sampling seed every analysis runs with. --seed generates the
/// inputs only; the program's configuration, its sampling seed included,
/// is the same in every run (racedetect's default --seed).
inline constexpr uint64_t AnalysisSeed = 1;

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Reported by every untraced run (--trace 0).
inline const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"throughput_mact_s", "Mact/s"}, {"trace_ms.p50", "ms"},
      {"trace_ms.p90", "ms"},          {"cpu_ms_per_trace", "ms"},
      {"peak_rss_mb", "MB"},           {"setup_s", "s"},
      {"ok_frac", "frac"},
  };
  return Defs;
}

/// Reported by every traced run (--trace 1); a layer a workload does not
/// exercise reads 0.
inline const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"sim.load_ms", "ms"},
      {"sim.load_mb_s", "MB/s"},
      {"runtime.dispatch_ms", "ms"},
      {"runtime.access_batches", "count"},
      {"runtime.accesses_per_batch", "count"},
      {"runtime.sync_batches", "count"},
      {"runtime.sync_pairs_per_batch", "count"},
      {"runtime.boundaries", "count"},
      {"runtime.sampling_periods", "count"},
      {"runtime.effective_rate", "frac"},
      {"runtime.index_ms", "ms"},
      {"runtime.shards", "count"},
      {"runtime.shard_busy_ms.max", "ms"},
      {"runtime.shard_busy_ms.mean", "ms"},
      {"runtime.skeleton_ms.per_replica", "ms"},
      {"detectors.cold_ms", "ms"},
      {"detectors.cold_accesses", "count"},
      {"detectors.cold_ns_per_access", "ns"},
      {"detectors.hot_ms", "ms"},
      {"detectors.hot_accesses", "count"},
      {"detectors.hot_ns_per_access", "ns"},
      {"detectors.probe_vector_frac", "frac"},
      {"detectors.sync_ms", "ms"},
      {"detectors.sync_events", "count"},
      {"detectors.boundary_ms", "ms"},
      {"detectors.lifecycle_ms", "ms"},
      {"detectors.peak_slots", "count"},
      {"core.slow_joins", "count"},
      {"core.fast_joins", "count"},
      {"core.deep_copies", "count"},
      {"core.shallow_copies", "count"},
      {"core.clock_clones", "count"},
      {"core.read_slow", "count"},
      {"core.read_fast", "count"},
      {"core.write_slow", "count"},
      {"core.write_fast", "count"},
      {"core.metadata_mb.peak", "MB"},
      {"core.metadata_mb.final", "MB"},
      {"ingest.spool_ms.mean", "ms"},
      {"ingest.analyze_ms.mean", "ms"},
      {"ingest.commit_ms.mean", "ms"},
      {"ingest.wait_ms.mean", "ms"},
      {"pacer.replay_ms.r0", "ms"},
      {"pacer.replay_ms.r1pct", "ms"},
      {"pacer.replay_ms.r100", "ms"},
      {"pacer.excess_1pct", "frac"},
      {"baseline.slowdown_min", "x"},
      {"baseline.slowdowns_below_1", "count"},
      {"trace.throughput_mact_s", "Mact/s"},
      {"trace.overhead_mact_s", "Mact/s"},
      {"span.analysis.self_ms", "ms"},
      {"span.load.self_ms", "ms"},
      {"span.index.self_ms", "ms"},
      {"span.replay.self_ms", "ms"},
      {"span.submit.self_ms", "ms"},
  };
  return Defs;
}

inline const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "pacer-r1", "pacer-r100", "batch-default", "fleet-ingest"};
  return Names;
}

/// What one run of one workload measured and checked.
struct Outcome {
  /// False when a check failed; Notes say which.
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Metric name -> value; units come from the tables above.
  std::map<std::string, double> Metrics;
  /// Human-readable lines printed before the JSON result: host and build
  /// facts, sample counts, gate failures, baseline flags.
  std::vector<std::string> Notes;

  void fail(const std::string &Why) {
    Correct = false;
    Notes.push_back("FAIL: " + Why);
  }
};

/// The offline workloads (pacer-r1, pacer-r100, batch-default).
Outcome runOffline(const Options &Opts);

/// The fleet-ingest workload.
Outcome runFleet(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
