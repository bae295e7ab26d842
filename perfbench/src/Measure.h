//===- perfbench/src/Measure.h - Clocks, process gauges, spans -*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measurement helpers for pacerbench: wall and process-CPU
/// clocks, the peak-RSS gauge of the timed phase, order statistics, and
/// the in-memory span log of the traced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}
inline double msSince(Clock::time_point Start) {
  return msBetween(Start, Clock::now());
}

/// User + system CPU time of the whole process, in milliseconds.
double processCpuMs();

/// Returns freed heap to the kernel and restarts the kernel's peak-RSS
/// (VmHWM) tally from the current RSS, so peakRssMb() covers only what
/// runs afterwards. Returns false where the kernel offers no reset; the
/// peak then covers the whole process life.
bool resetPeakRss();

/// Peak resident set size since the last reset, in MiB.
double peakRssMb();

/// CPU time of the whole host since boot and the part of it the hypervisor
/// gave to other guests (steal), in clock ticks, from /proc/stat; zeros
/// where it cannot be read.
struct HostTicks {
  uint64_t Total = 0, Steal = 0;
};
HostTicks hostTicks();

/// \p Num / \p Den, or 0 when \p Den is not positive.
inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Linear-interpolation quantile (numpy's default) of \p Values, Q in
/// [0, 1]; 0 for an empty vector.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}

/// The samples of one timed phase and the end-to-end timings drawn from
/// them: throughput and CPU per trace over the whole phase, p50 and p90
/// over all samples. Outside load on a shared host comes in episodes that
/// can outlast a run, so per-window medians turn the share of slow time
/// into a step; these totals move with it smoothly instead.
struct Timeline {
  struct Sample {
    double LatencyMs = 0;
    uint64_t Actions = 0; ///< 0 for a failed operation.
  };
  std::vector<Sample> Samples;
  double WallMs = 0;
  double CpuMs = 0; ///< Process user + system CPU over the phase.

  struct Summary {
    double ThroughputMactS = 0, P50Ms = 0, P90Ms = 0, CpuMsPerTrace = 0;
  };
  Summary summarize() const;
};

/// Spans recorded at layer boundaries in the traced run. Each span has a
/// name, start and end, the index of the span that caused it (-1 for a
/// root) and the identifier of the trace or submission it belongs to.
/// Spans stay in memory until write(). Thread-safe.
class SpanLog {
public:
  struct Span {
    std::string Name;
    uint64_t TraceId = 0;
    int64_t Parent = -1;
    double StartUs = 0;
    double EndUs = 0;
  };

  SpanLog() : Origin(Clock::now()) {}

  /// Opens a span and returns its index.
  int64_t begin(const char *Name, uint64_t TraceId, int64_t Parent = -1);
  void end(int64_t Index);

  /// Opens a span on construction and closes it on destruction.
  class Scope {
  public:
    Scope(SpanLog &Log, const char *Name, uint64_t TraceId,
          int64_t Parent = -1)
        : Log(Log), Index(Log.begin(Name, TraceId, Parent)) {}
    ~Scope() { Log.end(Index); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int64_t index() const { return Index; }

  private:
    SpanLog &Log;
    int64_t Index;
  };

  /// Mean self time per span name, in ms: a span's duration minus the
  /// part of it its child spans cover.
  std::map<std::string, double> meanSelfMs() const;

  size_t size() const;

  /// Writes every span as one JSON document; false on I/O error.
  bool write(const std::string &Path, const std::string &Header) const;

private:
  Clock::time_point Origin;
  mutable std::mutex Mutex;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_H
