//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared across the test suite: a race sink that collects full
/// reports, a fluent builder for hand-written traces, a dispatcher that
/// replays traces straight into a detector (no sampling controller), a
/// per-access reference decorator for the batch-path oracle tests, and a
/// legality validator for generated traces.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_TESTS_TESTUTIL_H
#define PACER_TESTS_TESTUTIL_H

#include "core/RaceReport.h"
#include "detectors/Detector.h"
#include "runtime/Runtime.h"
#include "sim/Action.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace pacer::test {

/// Sink that stores every report.
class CollectingSink final : public RaceSink {
public:
  std::vector<RaceReport> Reports;

  void onRace(const RaceReport &Report) override {
    Reports.push_back(Report);
  }

  /// Normalized distinct keys of all reports.
  std::set<RaceKey> keys() const {
    std::set<RaceKey> Keys;
    for (const RaceReport &Report : Reports) {
      SiteId A = Report.FirstSite, B = Report.SecondSite;
      Keys.insert({std::min(A, B), std::max(A, B)});
    }
    return Keys;
  }

  bool empty() const { return Reports.empty(); }
  size_t size() const { return Reports.size(); }
};

/// Fluent hand-trace builder. Sites default to 100 + var id so race keys
/// are predictable in scenario tests.
class TraceBuilder {
public:
  TraceBuilder &read(ThreadId Tid, VarId Var, SiteId Site = InvalidId) {
    T.push_back({ActionKind::Read, Tid, Var, defaultSite(Var, Site)});
    return *this;
  }
  TraceBuilder &write(ThreadId Tid, VarId Var, SiteId Site = InvalidId) {
    T.push_back({ActionKind::Write, Tid, Var, defaultSite(Var, Site)});
    return *this;
  }
  TraceBuilder &acq(ThreadId Tid, LockId Lock) {
    T.push_back({ActionKind::Acquire, Tid, Lock, InvalidId});
    return *this;
  }
  TraceBuilder &rel(ThreadId Tid, LockId Lock) {
    T.push_back({ActionKind::Release, Tid, Lock, InvalidId});
    return *this;
  }
  TraceBuilder &fork(ThreadId Parent, ThreadId Child) {
    T.push_back({ActionKind::Fork, Parent, Child, InvalidId});
    return *this;
  }
  TraceBuilder &join(ThreadId Parent, ThreadId Child) {
    T.push_back({ActionKind::Join, Parent, Child, InvalidId});
    return *this;
  }
  TraceBuilder &volRead(ThreadId Tid, VolatileId Vol) {
    T.push_back({ActionKind::VolatileRead, Tid, Vol, InvalidId});
    return *this;
  }
  TraceBuilder &volWrite(ThreadId Tid, VolatileId Vol) {
    T.push_back({ActionKind::VolatileWrite, Tid, Vol, InvalidId});
    return *this;
  }
  TraceBuilder &exit(ThreadId Tid) {
    T.push_back({ActionKind::ThreadExit, Tid, InvalidId, InvalidId});
    return *this;
  }

  Trace take() { return std::move(T); }

private:
  static SiteId defaultSite(VarId Var, SiteId Site) {
    return Site == InvalidId ? 100 + Var : Site;
  }
  Trace T;
};

/// Replays \p T into \p D with no sampling controller.
inline void replayInto(Detector &D, const Trace &T) {
  Runtime RT(D);
  RT.replay(T);
}

/// Forwards every hook to an inner detector except accessBatch, which
/// stays Detector::accessBatch's loop of per-access read()/write() calls.
/// Replaying through it gives the per-access reference that a detector's
/// own batch path must match exactly: same reports, same stats, same
/// metadata. Reports go to whatever sink the inner detector was built
/// with; stats() mirrors the inner detector's after every hook.
class PerAccessReference final : public Detector {
public:
  PerAccessReference(RaceSink &Sink, std::unique_ptr<Detector> Inner)
      : Detector(Sink), Inner(std::move(Inner)) {}

  const char *name() const override { return Inner->name(); }
  void fork(ThreadId Parent, ThreadId Child) override {
    forward([&](Detector &D) { D.fork(Parent, Child); });
  }
  void join(ThreadId Parent, ThreadId Child) override {
    forward([&](Detector &D) { D.join(Parent, Child); });
  }
  void acquire(ThreadId Tid, LockId Lock) override {
    forward([&](Detector &D) { D.acquire(Tid, Lock); });
  }
  void release(ThreadId Tid, LockId Lock) override {
    forward([&](Detector &D) { D.release(Tid, Lock); });
  }
  void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) override {
    forward([&](Detector &D) { D.syncBatch(Tid, Lock, Pairs); });
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    forward([&](Detector &D) { D.volatileRead(Tid, Vol); });
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    forward([&](Detector &D) { D.volatileWrite(Tid, Vol); });
  }
  void read(ThreadId Tid, VarId Var, SiteId Site) override {
    forward([&](Detector &D) { D.read(Tid, Var, Site); });
  }
  void write(ThreadId Tid, VarId Var, SiteId Site) override {
    forward([&](Detector &D) { D.write(Tid, Var, Site); });
  }
  bool accessAnalysisIsShardLocal() const override {
    return Inner->accessAnalysisIsShardLocal();
  }
  void threadBegin(ThreadId Tid) override {
    forward([&](Detector &D) { D.threadBegin(Tid); });
  }
  void threadExit(ThreadId Tid) override {
    forward([&](Detector &D) { D.threadExit(Tid); });
  }
  size_t recycleDeadSlots() override {
    size_t Reclaimed = 0;
    forward([&](Detector &D) { Reclaimed = D.recycleDeadSlots(); });
    return Reclaimed;
  }
  size_t slotCount() const override { return Inner->slotCount(); }
  size_t peakSlotCount() const override { return Inner->peakSlotCount(); }
  void beginSamplingPeriod() override {
    forward([](Detector &D) { D.beginSamplingPeriod(); });
  }
  void endSamplingPeriod() override {
    forward([](Detector &D) { D.endSamplingPeriod(); });
  }
  bool isSampling() const override { return Inner->isSampling(); }
  size_t liveMetadataBytes() const override {
    return Inner->liveMetadataBytes();
  }
  size_t accessMetadataBytes() const override {
    return Inner->accessMetadataBytes();
  }

private:
  template <typename Fn> void forward(Fn &&Call) {
    Call(*Inner);
    Stats = Inner->stats();
  }

  std::unique_ptr<Detector> Inner;
};

/// Checks synchronization legality of a generated trace. Returns an empty
/// string if legal, else a description of the first violation.
inline std::string validateTrace(const Trace &T, uint32_t TotalThreads) {
  std::vector<int> ThreadState(TotalThreads, 0); // 0=unborn 1=live 2=done
  ThreadState[0] = 1;
  std::vector<ThreadId> LockOwner;
  auto Owner = [&LockOwner](LockId Lock) -> ThreadId & {
    if (Lock >= LockOwner.size())
      LockOwner.resize(Lock + 1, InvalidId);
    return LockOwner[Lock];
  };

  for (size_t I = 0; I != T.size(); ++I) {
    const Action &A = T[I];
    if (A.Tid >= TotalThreads)
      return "thread id out of range at " + std::to_string(I);
    if (ThreadState[A.Tid] != 1)
      return "action by non-live thread at " + std::to_string(I);
    switch (A.Kind) {
    case ActionKind::Acquire:
      if (Owner(A.Target) != InvalidId)
        return "acquire of held lock at " + std::to_string(I);
      Owner(A.Target) = A.Tid;
      break;
    case ActionKind::Release:
      if (Owner(A.Target) != A.Tid)
        return "release of unheld lock at " + std::to_string(I);
      Owner(A.Target) = InvalidId;
      break;
    case ActionKind::Fork:
      if (A.Target >= TotalThreads || ThreadState[A.Target] != 0)
        return "bad fork at " + std::to_string(I);
      ThreadState[A.Target] = 1;
      break;
    case ActionKind::Join:
      if (A.Target >= TotalThreads || ThreadState[A.Target] != 2)
        return "join of unfinished thread at " + std::to_string(I);
      break;
    case ActionKind::ThreadExit:
      ThreadState[A.Tid] = 2;
      break;
    default:
      // AwaitVolatile may legally execute before its threshold: a spin
      // expires when nothing else can run.
      break;
    }
  }
  for (ThreadId Owner : LockOwner)
    if (Owner != InvalidId)
      return "lock still held at end of trace";
  for (uint32_t Tid = 0; Tid < TotalThreads; ++Tid)
    if (ThreadState[Tid] != 2)
      return "thread never finished: " + std::to_string(Tid);
  return "";
}

/// Maximum number of simultaneously live threads over the trace.
inline uint32_t maxLiveThreads(const Trace &T, uint32_t TotalThreads) {
  uint32_t Live = 1; // Main.
  uint32_t Max = 1;
  for (const Action &A : T) {
    if (A.Kind == ActionKind::Fork) {
      ++Live;
      Max = std::max(Max, Live);
    } else if (A.Kind == ActionKind::ThreadExit) {
      --Live;
    }
  }
  (void)TotalThreads;
  return Max;
}

} // namespace pacer::test

#endif // PACER_TESTS_TESTUTIL_H
