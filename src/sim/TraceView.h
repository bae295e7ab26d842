//===- sim/TraceView.h - Zero-copy binary trace view -----------*- C++ -*-===//
//
// Part of the PACER reproduction, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A read-only view of a binary (v2) trace file that avoids materializing
/// a Trace: on POSIX hosts whose Action layout matches the on-disk record
/// (see sim/TraceIO.h) the file is memory-mapped and actions() is a
/// pointer cast over the mapping, and the kernel pages records in and out
/// on demand, so analysing a trace larger than RAM needs no trace-sized
/// allocation at all. Where mmap is unavailable (or the ABI differs) the
/// view transparently falls back to a buffered load; actions() is the
/// same span either way, so every consumer -- Runtime::replay,
/// shardedReplay, TraceIndex -- is oblivious to the difference.
///
/// Opening has two parts: the framing (magic, version, and the record
/// count against the file size) and the record check (firstBadRecord,
/// one read of every record). open() does both. openUnchecked() does
/// only the framing, for a caller that checks each record as it first
/// reads it: the sequential Runtime replay does, so a mapped trace it
/// analyses is read from memory once instead of twice.
///
/// Text traces are not viewable (they must be parsed); open() reports a
/// diagnostic directing callers to readTraceFile or traceconv.
///
//===----------------------------------------------------------------------===//

#ifndef PACER_SIM_TRACEVIEW_H
#define PACER_SIM_TRACEVIEW_H

#include "sim/Action.h"
#include "sim/TraceIO.h"

#include <string>

namespace pacer {

/// Zero-copy (mmap-backed) view of a binary trace file.
class TraceView {
public:
  TraceView() = default;
  ~TraceView();

  TraceView(TraceView &&Other) noexcept;
  TraceView &operator=(TraceView &&Other) noexcept;
  TraceView(const TraceView &) = delete;
  TraceView &operator=(const TraceView &) = delete;

  /// Opens \p Path and checks every record. \p ForceBuffered skips the
  /// mmap attempt (used by tests to pin the fallback path; results are
  /// identical). On failure the view is empty and ok() is false with a
  /// diagnostic; a bad record reads "<path>: <why> in record <N>".
  static TraceView open(const std::string &Path, bool ForceBuffered = false);

  /// open() without the record check of a mapped file: only the framing
  /// is validated, so actions() may hold records that fail
  /// checkActionRecord. Hand them only to a reader that checks each
  /// record before use (Runtime::replay). The buffered fallback still
  /// checks every record while it decodes.
  static TraceView openUnchecked(const std::string &Path,
                                 bool ForceBuffered = false);

  bool ok() const { return Ok; }
  const std::string &error() const { return Error; }

  /// The trace. Valid until the view is destroyed or moved from.
  TraceSpan actions() const { return Span; }

  /// True when actions() aliases a memory mapping (no trace-sized
  /// allocation was made).
  bool mapped() const { return Map != nullptr; }

private:
  void reset();

  bool Ok = false;
  std::string Error;
  TraceSpan Span;
  void *Map = nullptr; ///< mmap base (page-aligned), null if buffered.
  size_t MapBytes = 0;
  Trace Buffer; ///< Fallback storage when not mapped.
};

} // namespace pacer

#endif // PACER_SIM_TRACEVIEW_H
