//===- runtime/Runtime.h - Trace replay through a detector -----*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays an execution trace through a detector, standing in for the
/// compiler-inserted instrumentation of the paper's Jikes RVM
/// implementation. The replay path is two-level: the trace is segmented
/// into *epochs* -- maximal runs of data accesses with no synchronization
/// action, thread-lifecycle event, or sampling-period boundary inside --
/// and each epoch is delivered to the detector as one
/// Detector::accessBatch() call. Synchronization actions dispatch to the
/// matching per-action hook as before, and an optional sampling controller
/// delivers sbegin/send transitions at simulated GC boundaries; the
/// segmenter flushes the pending batch before any action whose accounting
/// would fire a boundary, so the detector observes exactly the per-action
/// event order. Experiments that need to interleave their own probing (the
/// Figure 10 space experiment) drive step() directly.
///
/// The replay also checks the trace: every record passes
/// checkActionRecord (sim/TraceIO.h) before any hook sees it or its
/// thread, and replay() stops in front of the first record that fails.
/// The check lives inside the replay's own scan -- an access run ORs its
/// ids and compares once, other actions are checked one by one -- so a
/// mapped trace opened with TraceView::openUnchecked is read from memory
/// once. A separate checking pass before the replay reads every record
/// twice and costs more than the replay's check does.
///
/// The runtime also tracks first sight of each thread and delivers
/// Detector::threadBegin() before a thread's first action, so per-thread
/// detector state materializes at a point that is a pure function of the
/// trace -- the anchor that keeps sharded replicas (replay with a
/// non-trivial AccessShard) bit-identical to sequential replay.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_RUNTIME_RUNTIME_H
#define PACER_RUNTIME_RUNTIME_H

#include "detectors/Detector.h"
#include "runtime/SamplingController.h"
#include "sim/Action.h"
#include "sim/TraceIO.h"

#include <vector>

namespace pacer {

/// Instrumentation dispatcher.
class Runtime {
public:
  /// \p Controller may be null for detectors that do not sample (Generic,
  /// FastTrack, LiteRace, Null). \p SyncBatching coalesces maximal runs of
  /// same-thread acquire/release pairs on one lock into
  /// Detector::syncBatch() calls (observationally identical to per-event
  /// delivery; period boundaries still toggle at exact event positions).
  Runtime(Detector &D, SamplingController *Controller = nullptr,
          bool SyncBatching = true)
      : D(D), Controller(Controller), SyncBatching(SyncBatching) {}

  /// Makes the controller's initial sampling decision. Idempotent; called
  /// automatically by replay().
  void start() {
    if (Controller && !Started)
      Controller->start(D);
    Started = true;
  }

  /// Processes one action: thread first-sight, sampling control, then
  /// dispatch. Returns true if a simulated GC boundary fired at this
  /// action. Unlike replay(), step() does not check \p A: its callers
  /// build their actions themselves.
  bool step(const Action &A) {
    if (firstSight(A.Tid))
      D.threadBegin(A.Tid);
    bool Boundary =
        Controller ? Controller->beforeAction(A.Kind, D) : false;
    dispatch(A);
    return Boundary;
  }

  /// Replays a whole trace through batched epoch dispatch. The detector
  /// observes the same hook sequence as a step() loop, with runs of
  /// consecutive data accesses folded into accessBatch() calls. Returns
  /// the first record that fails checkActionRecord, if any: the replay
  /// stopped in front of it, and no hook saw it or anything after it.
  /// Callers whose trace was checked on load may ignore the result.
  BadRecord replay(TraceSpan T) { return replay(T, AccessShard::all()); }

  /// Shard-filtered replay: every synchronization and lifecycle action is
  /// processed, but only data accesses owned by \p Shard are analysed.
  BadRecord replay(TraceSpan T, const AccessShard &Shard) {
    start();
    return replayChunk(T, Shard);
  }

  /// Incremental replay: processes one contiguous chunk of the trace,
  /// leaving the runtime ready for the next chunk. Feeding a trace in any
  /// chunking is observationally identical to one replay() call: access
  /// batches never carry detector-visible state across their edges (every
  /// accessBatch override is equivalent to its per-access loop) and the
  /// controller's bulk advance is splittable at any point, so a chunk
  /// edge merely splits a batch. This is what lets a StreamingTraceReader
  /// drive replay from a bounded window.
  ///
  /// Access runs are processed at run granularity, not per access: the
  /// scan locates each maximal run of data accesses (recording thread
  /// first sights on the way), and deliverRun() segments it with the
  /// controller's closed-form boundary arithmetic. Every accessBatch the
  /// detector sees is phase-pure -- period toggles happen only between
  /// sub-spans -- and controller cost is O(boundaries + first sights) per
  /// run instead of two calls per access. The detector observes exactly
  /// the per-action hook order: batch flushes before a threadBegin or
  /// toggle at the same position, threadBegin before the toggle, and the
  /// boundary-firing access delivered after the toggle.
  ///
  /// Each record is checked as the scan reaches it (see the file
  /// comment). On a bad record the chunk's valid prefix has been
  /// delivered and the result names the bad record's index within \p T;
  /// the caller should not feed further chunks.
  BadRecord replayChunk(TraceSpan T, const AccessShard &Shard) {
    const size_t N = T.size();
    size_t I = 0;
    while (I < N) {
      const Action &A = T[I];
      if (!isAccessAction(A.Kind)) {
        if (const char *Why = checkActionRecord(A))
          return {I, Why};
        if (firstSight(A.Tid))
          D.threadBegin(A.Tid);
        if (SyncBatching && A.Kind == ActionKind::Acquire) {
          // Maximal run of same-thread acquire/release pairs on one lock:
          // the sync skeleton's dominant shape (tight critical-section
          // loops), collapsed by Detector::syncBatch to O(1) per run.
          // Every member has a valid kind and A's checked lock id, so the
          // run needs no check of its own.
          size_t J = I;
          while (J + 1 < N && T[J].Kind == ActionKind::Acquire &&
                 T[J + 1].Kind == ActionKind::Release && T[J].Tid == A.Tid &&
                 T[J + 1].Tid == A.Tid && T[J].Target == A.Target &&
                 T[J + 1].Target == A.Target)
            J += 2;
          const size_t Pairs = (J - I) / 2;
          if (Pairs >= 2) {
            deliverSyncPairRun(A.Tid, A.Target, 2 * Pairs);
            I += 2 * Pairs;
            continue;
          }
        }
        if (Controller)
          Controller->beforeAction(A.Kind, D);
        dispatch(A);
        ++I;
        continue;
      }
      // Maximal access run [I, RunEnd); mark first sights while scanning
      // (positions are split points inside the run). An access's only
      // checkable field is its variable id, and MaxActionObjectId is all
      // ones below bit 24, so OR-ing the run's ids checks every one of
      // them with a single compare after the scan.
      FirstSights.clear();
      size_t RunEnd = I;
      uint32_t Ids = 0;
      for (; RunEnd < N && isAccessAction(T[RunEnd].Kind); ++RunEnd) {
        Ids |= T[RunEnd].Target;
        if (firstSight(T[RunEnd].Tid))
          FirstSights.push_back(RunEnd);
      }
      if (Ids > MaxActionObjectId) [[unlikely]] {
        const BadRecord Bad = cutRunAtBadId(T, I, RunEnd);
        deliverRun(T, I, Bad.Index, Shard);
        return Bad;
      }
      deliverRun(T, I, RunEnd, Shard);
      I = RunEnd;
    }
    return {};
  }

  /// Routes \p A to the detector hook it instruments.
  void dispatch(const Action &A) { dispatchTo(D, A); }

  /// Delivers a run of \p TotalEvents (= 2 * pairs) alternating
  /// acquire/release events by \p Tid on \p Lock, coalesced into
  /// Detector::syncBatch() calls. Controller accounting and boundary
  /// toggles are bit-identical to a per-event beforeAction()/dispatch()
  /// loop: segments strictly before a boundary are delivered (batched)
  /// under the old sampling state, advanceSyncRun() toggles at the firing
  /// event, and the firing event re-joins the next segment post-toggle --
  /// a segment cut mid-pair delivers its dangling acquire (and the
  /// following segment its leading release) per-event. Shared with the
  /// indexed replay engine (TraceIndex::replayShard), so both engines
  /// collapse the skeleton identically.
  static void deliverSyncPairRun(Detector &Target,
                                 SamplingController *Controller, ThreadId Tid,
                                 LockId Lock, uint64_t TotalEvents) {
    uint64_t SegBegin = 0;
    uint64_t Accounted = 0;
    auto Deliver = [&](uint64_t To) {
      while (SegBegin < To) {
        if ((SegBegin & 1) == 0 && To - SegBegin >= 2) {
          const uint64_t Pairs = (To - SegBegin) / 2;
          Target.syncBatch(Tid, Lock, Pairs);
          SegBegin += 2 * Pairs;
        } else if ((SegBegin & 1) == 0) {
          Target.acquire(Tid, Lock);
          ++SegBegin;
        } else {
          Target.release(Tid, Lock);
          ++SegBegin;
        }
      }
    };
    while (true) {
      const uint64_t Left = TotalEvents - Accounted;
      const uint64_t Fire =
          Controller && Left ? Controller->syncRunBoundaryIndex(Left) : 0;
      if (!Fire) {
        Deliver(TotalEvents);
        if (Controller && Left)
          Controller->advanceSyncRun(Left, Target); // Accounting only.
        return;
      }
      const uint64_t StopPos = Accounted + Fire - 1;
      Deliver(StopPos);
      Controller->advanceSyncRun(Left, Target); // Toggles; the firing event
                                                // (StopPos) is delivered
                                                // post-toggle.
      Accounted = StopPos + 1;
    }
  }

  /// Stateless dispatch: routes \p A to \p Target's matching hook. The
  /// indexed replay path (TraceIndex::replayShard) shares this switch so
  /// skeleton events hit exactly the hooks a step() loop would.
  static void dispatchTo(Detector &Target, const Action &A) {
    switch (A.Kind) {
    case ActionKind::Read:
      Target.read(A.Tid, A.Target, A.Site);
      break;
    case ActionKind::Write:
      Target.write(A.Tid, A.Target, A.Site);
      break;
    case ActionKind::Acquire:
      Target.acquire(A.Tid, A.Target);
      break;
    case ActionKind::Release:
      Target.release(A.Tid, A.Target);
      break;
    case ActionKind::Fork:
      Target.fork(A.Tid, A.Target);
      break;
    case ActionKind::Join:
      Target.join(A.Tid, A.Target);
      // A join is one of the two points where a thread slot can die
      // (threadExit below is the other), so it is the natural sweep
      // point for accordion slot recycling. Sweeping here -- inside the
      // shared dispatch switch -- makes recycling a pure function of the
      // synchronization prefix: sequential replay, shard-filtered
      // replay, and the indexed engine all recycle at identical trace
      // positions. No-op for detectors without recycling enabled.
      Target.recycleDeadSlots();
      break;
    case ActionKind::VolatileRead:
    case ActionKind::AwaitVolatile:
      // AwaitVolatile is the read that finally observes the awaited
      // write; detectors see an ordinary volatile read.
      Target.volatileRead(A.Tid, A.Target);
      break;
    case ActionKind::VolatileWrite:
      Target.volatileWrite(A.Tid, A.Target);
      break;
    case ActionKind::ThreadExit:
      Target.threadExit(A.Tid);
      Target.recycleDeadSlots();
      break;
    }
  }

private:
  /// Delivers one access run [\p Begin, \p End) of \p T as phase-pure
  /// sub-spans. Split points are thread first sights (FirstSights, filled
  /// by the run scan; threadBegin precedes a boundary toggle at the same
  /// position, as in the per-action loop) and controller period
  /// boundaries located by accessRunBoundaryIndex(). Following
  /// advanceAccessRun()'s contract, the segment strictly before a
  /// boundary is delivered under the old sampling state and the firing
  /// access re-joins the next segment under the new one; the controller's
  /// counter and RNG streams are bit-identical to a per-access
  /// beforeAction() loop.
  void deliverRun(TraceSpan T, size_t Begin, size_t End,
                  const AccessShard &Shard) {
    size_t SegBegin = Begin;
    size_t FsIdx = 0;
    auto Deliver = [&](size_t To) {
      if (SegBegin < To)
        D.accessBatch(
            std::span<const Action>(T.data() + SegBegin, To - SegBegin),
            Shard);
      SegBegin = To;
    };
    size_t Accounted = Begin;
    while (true) {
      const uint64_t Left = End - Accounted;
      const uint64_t Fire =
          Controller && Left ? Controller->accessRunBoundaryIndex(Left) : 0;
      const size_t StopPos =
          Fire ? Accounted + static_cast<size_t>(Fire) - 1 : End;
      while (FsIdx < FirstSights.size() && FirstSights[FsIdx] <= StopPos) {
        Deliver(FirstSights[FsIdx]);
        D.threadBegin(T[FirstSights[FsIdx]].Tid);
        ++FsIdx;
      }
      if (!Fire) {
        Deliver(End);
        if (Controller && Left)
          Controller->advanceAccessRun(Left, D); // No boundary: accounting
                                                 // only, no toggle.
        return;
      }
      Deliver(StopPos);
      Controller->advanceAccessRun(Left, D); // Toggles the detector; the
                                             // firing access (StopPos) is
                                             // delivered post-toggle.
      Accounted = StopPos + 1;
    }
  }

  static_assert((MaxActionObjectId & (MaxActionObjectId + 1)) == 0,
                "the access-run id check ORs ids against an all-ones cap");

  /// Slow path of the access-run check: finds the first access in
  /// [\p Begin, \p End) whose variable id is out of range and forgets
  /// the first sights the scan marked at or after it, so no hook hears
  /// of a thread that appears only from the bad record on.
  [[gnu::noinline]] BadRecord cutRunAtBadId(TraceSpan T, size_t Begin,
                                            size_t End) {
    size_t Bad = Begin;
    while (Bad < End && T[Bad].Target <= MaxActionObjectId)
      ++Bad;
    while (!FirstSights.empty() && FirstSights.back() >= Bad) {
      Seen[T[FirstSights.back()].Tid] = false;
      FirstSights.pop_back();
    }
    return {Bad, validateActionRecord(T[Bad])};
  }

  /// Member shorthand for the static pair-run delivery above.
  void deliverSyncPairRun(ThreadId Tid, LockId Lock, uint64_t TotalEvents) {
    deliverSyncPairRun(D, Controller, Tid, Lock, TotalEvents);
  }

  /// True exactly once per thread, at its first action.
  bool firstSight(ThreadId Tid) {
    if (Tid >= Seen.size())
      Seen.resize(Tid + 1, false);
    if (Seen[Tid])
      return false;
    Seen[Tid] = true;
    return true;
  }

  Detector &D;
  SamplingController *Controller;
  bool SyncBatching;
  bool Started = false;
  std::vector<bool> Seen;
  /// Scratch: first-sight positions within the access run being
  /// delivered (reused across runs to stay allocation-free).
  std::vector<size_t> FirstSights;
};

} // namespace pacer

#endif // PACER_RUNTIME_RUNTIME_H
