//===- perfbench/src/Measure.cpp ------------------------------------------==//

#include "Measure.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::processCpuMs() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  auto Ms = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_usec) / 1e3;
  };
  return Ms(Usage.ru_utime) + Ms(Usage.ru_stime);
}

bool perfbench::resetPeakRss() {
  malloc_trim(0);
  // Writing 5 to the process's own clear_refs resets VmHWM (Linux >= 4.0).
  FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  const bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}

HostTicks perfbench::hostTicks() {
  HostTicks T;
  std::ifstream Stat("/proc/stat");
  std::string Cpu;
  Stat >> Cpu;
  // user nice system idle iowait irq softirq steal
  for (int I = 0; I < 8 && Stat; ++I) {
    uint64_t V = 0;
    if (!(Stat >> V))
      return {};
    T.Total += V;
    if (I == 7)
      T.Steal = V;
  }
  return T;
}

double perfbench::peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * static_cast<double>(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Pos - static_cast<double>(Lo)) * (Values[Hi] - Values[Lo]);
}

Timeline::Summary Timeline::summarize() const {
  Summary Out;
  if (Samples.empty() || WallMs <= 0)
    return Out;
  std::vector<double> Latencies;
  double Actions = 0;
  for (const Sample &S : Samples) {
    Latencies.push_back(S.LatencyMs);
    Actions += static_cast<double>(S.Actions);
  }
  Out.ThroughputMactS = Actions / 1e6 / (WallMs / 1e3);
  Out.P50Ms = quantile(Latencies, 0.5);
  Out.P90Ms = quantile(Latencies, 0.9);
  Out.CpuMsPerTrace = CpuMs / static_cast<double>(Samples.size());
  return Out;
}

int64_t SpanLog::begin(const char *Name, uint64_t TraceId, int64_t Parent) {
  const double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Origin).count();
  std::lock_guard<std::mutex> G(Mutex);
  Spans.push_back({Name, TraceId, Parent, Now, Now});
  return static_cast<int64_t>(Spans.size() - 1);
}

void SpanLog::end(int64_t Index) {
  const double Now =
      std::chrono::duration<double, std::micro>(Clock::now() - Origin).count();
  std::lock_guard<std::mutex> G(Mutex);
  Spans[static_cast<size_t>(Index)].EndUs = Now;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> G(Mutex);
  return Spans.size();
}

std::map<std::string, double> SpanLog::meanSelfMs() const {
  std::lock_guard<std::mutex> G(Mutex);
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[static_cast<size_t>(S.Parent)].push_back({S.StartUs, S.EndUs});

  std::map<std::string, std::pair<double, uint64_t>> Sums;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Union of the children's intervals, clipped to the parent.
    auto &Kids = Children[I];
    std::sort(Kids.begin(), Kids.end());
    double Covered = 0, RunStart = 0, RunEnd = -1;
    for (auto [Start, End] : Kids) {
      Start = std::max(Start, S.StartUs);
      End = std::min(End, S.EndUs);
      if (End <= Start)
        continue;
      if (Start > RunEnd) {
        if (RunEnd > RunStart)
          Covered += RunEnd - RunStart;
        RunStart = Start;
        RunEnd = End;
      } else {
        RunEnd = std::max(RunEnd, End);
      }
    }
    if (RunEnd > RunStart)
      Covered += RunEnd - RunStart;
    auto &Sum = Sums[S.Name];
    Sum.first += (S.EndUs - S.StartUs - Covered) / 1e3;
    ++Sum.second;
  }
  std::map<std::string, double> Means;
  for (const auto &[Name, Sum] : Sums)
    Means[Name] = Sum.first / static_cast<double>(Sum.second);
  return Means;
}

bool SpanLog::write(const std::string &Path, const std::string &Header) const {
  std::lock_guard<std::mutex> G(Mutex);
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"run\": %s,\n \"spans\": [\n", Header.c_str());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"trace\": %llu, \"parent\": %lld, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 S.Name.c_str(), static_cast<unsigned long long>(S.TraceId),
                 static_cast<long long>(S.Parent), S.StartUs, S.EndUs,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fputs(" ]}\n", F);
  return std::fclose(F) == 0;
}
