//===- sim/Action.h - Program actions and traces ---------------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The action alphabet of the paper's Appendix A: rd, wr, acq, rel, fork,
/// join, vol_rd, and vol_wr, plus a ThreadExit marker the scheduler uses to
/// implement join semantics (a thread performs no actions after another
/// thread joins it). A *trace* is the interleaved sequence of actions a
/// multithreaded execution performs; the runtime replays traces through a
/// detector exactly as compiler-inserted instrumentation would deliver them.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_ACTION_H
#define PACER_SIM_ACTION_H

#include "core/Ids.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pacer {

/// Kinds of dynamic actions.
enum class ActionKind : uint8_t {
  Read,          ///< rd(t, x): Target is a VarId; Site is the access site.
  Write,         ///< wr(t, x).
  Acquire,       ///< acq(t, m): Target is a LockId.
  Release,       ///< rel(t, m).
  Fork,          ///< fork(t, u): Target is the child ThreadId.
  Join,          ///< join(t, u): Target is the joined ThreadId.
  VolatileRead,  ///< vol_rd(t, vx): Target is a VolatileId.
  VolatileWrite, ///< vol_wr(t, vx).
  /// A condensed spin loop: vol_rd(t, vx) that the scheduler delays until
  /// vx has been written at least Site times (Site doubles as the write
  /// threshold). Detectors see an ordinary volatile read -- exactly the
  /// read that finally observes the awaited write. Models the
  /// spin-until-published idiom that makes real racy code run right after
  /// its trigger.
  AwaitVolatile,
  ThreadExit, ///< Scheduler-internal: thread t terminates.
};

/// Returns a short name like "rd" or "acq".
const char *actionKindName(ActionKind Kind);

/// True for acq/rel/fork/join/vol_rd/vol_wr (the synchronization actions).
inline bool isSyncAction(ActionKind Kind) {
  switch (Kind) {
  case ActionKind::Acquire:
  case ActionKind::Release:
  case ActionKind::Fork:
  case ActionKind::Join:
  case ActionKind::VolatileRead:
  case ActionKind::VolatileWrite:
  case ActionKind::AwaitVolatile:
    return true;
  case ActionKind::Read:
  case ActionKind::Write:
  case ActionKind::ThreadExit:
    return false;
  }
  return false;
}

/// True for data-variable reads and writes.
inline bool isAccessAction(ActionKind Kind) {
  return Kind == ActionKind::Read || Kind == ActionKind::Write;
}

/// Largest thread id an Action can carry: Tid is packed into 24 bits so
/// the whole action is 12 bytes -- the record width of the binary trace
/// format v2, whose files are (on matching hosts) a pointer cast away
/// from a span of Actions. The paper's prototype never reuses thread ids,
/// but 16M threads outlasts every workload here by orders of magnitude.
inline constexpr uint32_t MaxActionTid = (1u << 24) - 1;

/// Largest variable, lock or volatile id a trace may carry. Detectors
/// index dense per-object state by these ids (PACER's presence bitmap,
/// the other detectors' variable vectors, every detector's lock and
/// volatile vectors), so an id near 2^32 in a hostile trace would demand
/// gigabytes. The trace readers reject larger ids (validateActionRecord);
/// the cap matches the tid width and caps PACER's bitmap at 2 MiB. The
/// generated workloads stay far below it.
inline constexpr uint32_t MaxActionObjectId = (1u << 24) - 1;

/// One dynamic action, packed to 12 bytes (Kind and Tid share a word).
/// The layout doubles as the v2 trace record: see sim/TraceIO.h.
struct Action {
  ActionKind Kind : 8;
  ThreadId Tid : 24;           ///< At most MaxActionTid.
  uint32_t Target = InvalidId; ///< Var/Lock/Volatile/Thread id by Kind.
  SiteId Site = InvalidId;     ///< Program site for Read/Write.

  /// Renders "rd(t2, x17)@s4"-style text for diagnostics.
  std::string str() const;
};

static_assert(sizeof(Action) == 12, "Action must match the 12-byte v2 "
                                    "trace record");
static_assert(alignof(Action) == 4, "v2 records are 4-byte aligned");

/// An interleaved execution.
using Trace = std::vector<Action>;

/// A read-only view of an execution: the replay, indexing, and sharding
/// paths all take spans so a memory-mapped trace file (sim/TraceView.h)
/// analyses without ever materializing a Trace.
using TraceSpan = std::span<const Action>;

/// The per-thread program the scheduler interleaves.
struct ThreadScript {
  ThreadId Tid = InvalidId;
  std::vector<Action> Ops;
};

} // namespace pacer

#endif // PACER_SIM_ACTION_H
