//===- harness/OverheadExperiment.h - Timing comparisons -------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures detector analysis cost (Figures 7-9): every configuration
/// replays the *identical* traces (the same trial seeds), and each trial's
/// replay is wall-clock timed; the per-configuration cost is the median
/// over trials, as in the paper ("each sub-bar is the median of 10
/// trials"). Slowdowns are normalized to the no-analysis baseline, which
/// plays the role of unmodified Jikes RVM.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_HARNESS_OVERHEADEXPERIMENT_H
#define PACER_HARNESS_OVERHEADEXPERIMENT_H

#include "runtime/AnalysisSession.h"

#include <string>
#include <vector>

namespace pacer {

/// A labelled configuration to time.
struct OverheadConfig {
  std::string Label;
  DetectorSetup Setup;
};

/// Timing result for one configuration.
struct OverheadResult {
  std::string Label;
  double MedianSeconds = 0.0;
  /// MedianSeconds over the first (baseline) configuration's.
  double Slowdown = 1.0;
  /// Events per second of replay, for absolute context.
  double EventsPerSecond = 0.0;
  /// Accesses analysed within a sampling period (full detection cost) vs
  /// outside one (non-sampling fast path), summed across trials. The split
  /// attributes fig7 overhead growth to sampled work: proportional
  /// detectors keep HotAccesses near rate * total while cold accesses
  /// dominate at low rates.
  uint64_t HotAccesses = 0;
  uint64_t ColdAccesses = 0;
};

/// Times every configuration on the same \p Trials traces. The first
/// configuration is the normalization baseline. \p Jobs parallelizes
/// across trials (each trial generates its trace once and times every
/// configuration on it); keep Jobs = 1 when absolute wall-clock numbers
/// matter, since concurrent trials contend for cores and inflate every
/// configuration's time together. Setup.Shards == 0 ("auto") replays
/// sequentially, like 1; when all configurations shard identically over
/// the raw trace, one TraceIndex per trial is built outside the timed
/// regions and shared.
std::vector<OverheadResult>
measureOverheads(const CompiledWorkload &Workload,
                 const std::vector<OverheadConfig> &Configs, uint32_t Trials,
                 uint64_t BaseSeed, unsigned Jobs = 1);

/// The paper's Figure 7 configuration ladder: baseline, "OM + sync ops"
/// (synchronization-only PACER at r=0), PACER r=0 (full instrumentation,
/// never samples), and PACER at each rate in \p Rates.
std::vector<OverheadConfig>
figure7Configs(const std::vector<double> &Rates);

} // namespace pacer

#endif // PACER_HARNESS_OVERHEADEXPERIMENT_H
