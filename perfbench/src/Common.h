//===- perfbench/src/Common.h - Set-up helpers shared by workloads -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Bench.h"
#include "Measure.h"

#include "sim/TraceIO.h"
#include "sim/TraceView.h"

#include <functional>
#include <string>

namespace perfbench {

/// One generated trace file.
struct TraceFile {
  std::string Path;
  std::string Label; ///< Model name and scale, e.g. "xalan@20".
  pacer::TraceFormat Format = pacer::TraceFormat::Binary;
  uint64_t Seed = 0;
  uint64_t Actions = 0;
  uint64_t Bytes = 0;
};

/// Generates \p Model at \p Scale with \p Seed (tinyTestWorkload() instead
/// when \p Tiny) and writes it under \p Dir. Aborts the run on I/O error.
TraceFile writeWorkloadTrace(const std::string &Dir, const char *Model,
                             double Scale, pacer::TraceFormat Format,
                             uint64_t Seed, bool Tiny);

/// "trace: <label> <format> <actions> actions <bytes> bytes seed <n>".
std::string describeTrace(const TraceFile &F);

/// Runs \p SetUp SetupRepeats times, each in a fresh directory under
/// \p WorkDir, and returns the median wall time in seconds. Only the last
/// set-up's directory survives; \p TearDown (untimed) runs before each
/// repeat to release what the previous set-up holds.
inline constexpr int SetupRepeats = 5;
double timedSetups(const std::string &WorkDir,
                   const std::function<void(const std::string &Dir)> &SetUp,
                   const std::function<void()> &TearDown = {});

/// A trace file held in memory the way analyzeFile holds it: mapped when
/// binary, parsed when text.
class LoadedTrace {
public:
  explicit LoadedTrace(const std::string &Path);
  LoadedTrace(const LoadedTrace &) = delete;
  LoadedTrace &operator=(const LoadedTrace &) = delete;
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }
  pacer::TraceSpan actions() const { return Span; }

private:
  pacer::TraceView View;
  pacer::Trace Parsed;
  pacer::TraceSpan Span;
  std::string Error;
};

/// Sets the end-to-end metrics of \p Out from the timed phase \p Phase,
/// its peak RSS and the set-up time, and notes the sample count and the
/// latency deciles. Out.Attempted and Out.Failed must be final; \p Noun
/// names one sample ("traces", "submissions").
void reportEndToEnd(const Timeline &Phase, double PeakRssMb, double SetupS,
                    const char *Noun, Outcome &Out);

/// Writes \p Spans to Opts.SpanFile (when set); a failure becomes a note.
void writeSpans(const SpanLog &Spans, const Options &Opts, Outcome &Out);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
