//===- tests/runtime/RuntimeTest.cpp --------------------------------------==//

#include "runtime/Runtime.h"
#include "sim/TraceIO.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

using namespace pacer;
using namespace pacer::test;

namespace {

/// Detector that records every hook invocation as a string.
class RecordingDetector final : public Detector {
public:
  explicit RecordingDetector(RaceSink &Sink) : Detector(Sink) {}
  const char *name() const override { return "recording"; }

  void fork(ThreadId Parent, ThreadId Child) override {
    log("fork", Parent, Child);
  }
  void join(ThreadId Parent, ThreadId Child) override {
    log("join", Parent, Child);
  }
  void acquire(ThreadId Tid, LockId Lock) override {
    log("acq", Tid, Lock);
  }
  void release(ThreadId Tid, LockId Lock) override {
    log("rel", Tid, Lock);
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    log("vrd", Tid, Vol);
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    log("vwr", Tid, Vol);
  }
  void read(ThreadId Tid, VarId Var, SiteId Site) override {
    log("rd", Tid, Var);
  }
  void write(ThreadId Tid, VarId Var, SiteId Site) override {
    log("wr", Tid, Var);
  }
  size_t liveMetadataBytes() const override { return 0; }

  std::vector<std::string> Calls;

private:
  void log(const char *Name, uint32_t A, uint32_t B) {
    Calls.push_back(std::string(Name) + "(" + std::to_string(A) + "," +
                    std::to_string(B) + ")");
  }
};

TEST(RuntimeTest, DispatchRoutesEveryActionKind) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  Runtime RT(D);
  RT.replay(TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .read(1, 3)
                .write(1, 3)
                .rel(1, 7)
                .volRead(1, 2)
                .volWrite(1, 2)
                .join(0, 1)
                .take());
  std::vector<std::string> Expected{"fork(0,1)", "acq(1,7)", "rd(1,3)",
                                    "wr(1,3)",   "rel(1,7)", "vrd(1,2)",
                                    "vwr(1,2)",  "join(0,1)"};
  EXPECT_EQ(D.Calls, Expected);
}

TEST(RuntimeTest, ThreadExitNotDispatched) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  Runtime RT(D);
  Trace T;
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  RT.replay(T);
  EXPECT_TRUE(D.Calls.empty());
}

TEST(RuntimeTest, ControllerDrivesSamplingTransitions) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 1.0;
  Config.PeriodBytes = 40; // Boundary at every action.
  SamplingController Controller(Config, 1);
  Runtime RT(D, &Controller);
  RT.replay(TraceBuilder().read(0, 1).read(0, 1).read(0, 1).take());
  EXPECT_GE(Controller.boundaryCount(), 2u);
  EXPECT_GE(Controller.samplingPeriods(), 3u);
}

TEST(RuntimeTest, StartIsIdempotent) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 1.0;
  SamplingController Controller(Config, 1);
  Runtime RT(D, &Controller);
  RT.start();
  RT.start();
  EXPECT_EQ(Controller.samplingPeriods(), 1u);
}

TEST(RuntimeTest, StepReturnsBoundaryFlag) {
  NullRaceSink Sink;
  RecordingDetector D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 0.0;
  Config.PeriodBytes = 80;
  Config.BaseBytesPerEvent = 40;
  SamplingController Controller(Config, 1);
  Runtime RT(D, &Controller);
  RT.start();
  Action Read{ActionKind::Read, 0, 1, 1};
  EXPECT_FALSE(RT.step(Read));
  EXPECT_TRUE(RT.step(Read)) << "second 40-byte event fills the 80-byte "
                                "nursery";
}

/// Detector that logs every hook the runtime can call, batch boundaries
/// and sampling toggles included, so two replays compare hook for hook.
class HookLog final : public Detector {
public:
  explicit HookLog(RaceSink &Sink) : Detector(Sink) {}
  const char *name() const override { return "hooklog"; }

  void fork(ThreadId Parent, ThreadId Child) override {
    log("fork", Parent, Child);
  }
  void join(ThreadId Parent, ThreadId Child) override {
    log("join", Parent, Child);
  }
  void acquire(ThreadId Tid, LockId Lock) override { log("acq", Tid, Lock); }
  void release(ThreadId Tid, LockId Lock) override { log("rel", Tid, Lock); }
  void syncBatch(ThreadId Tid, LockId Lock, uint64_t Pairs) override {
    log("pairs", Tid, Lock, Pairs);
  }
  void volatileRead(ThreadId Tid, VolatileId Vol) override {
    log("vrd", Tid, Vol);
  }
  void volatileWrite(ThreadId Tid, VolatileId Vol) override {
    log("vwr", Tid, Vol);
  }
  void read(ThreadId Tid, VarId Var, SiteId Site) override {
    log("rd", Tid, Var, Site);
  }
  void write(ThreadId Tid, VarId Var, SiteId Site) override {
    log("wr", Tid, Var, Site);
  }
  void accessBatch(std::span<const Action> Batch,
                   const AccessShard &Shard) override {
    log("batch", static_cast<uint32_t>(Batch.size()), 0);
    Detector::accessBatch(Batch, Shard);
  }
  void threadBegin(ThreadId Tid) override { log("begin", Tid, 0); }
  void threadExit(ThreadId Tid) override { log("exit", Tid, 0); }
  size_t recycleDeadSlots() override {
    log("recycle", 0, 0);
    return 0;
  }
  void beginSamplingPeriod() override {
    Sampling = true;
    log("sbegin", 0, 0);
  }
  void endSamplingPeriod() override {
    Sampling = false;
    log("send", 0, 0);
  }
  bool isSampling() const override { return Sampling; }
  size_t liveMetadataBytes() const override { return 0; }

  std::vector<std::string> Calls;

private:
  void log(const char *Name, uint64_t A, uint64_t B, uint64_t C = 0) {
    Calls.push_back(std::string(Name) + "(" + std::to_string(A) + "," +
                    std::to_string(B) + "," + std::to_string(C) + ")");
  }
  bool Sampling = false;
};

/// Replays \p T through a fresh HookLog and a controller that toggles
/// every few events; returns the hook log and the replay's stop.
std::vector<std::string> hooksOf(TraceSpan T, BadRecord &Stop) {
  NullRaceSink Sink;
  HookLog D(Sink);
  SamplingConfig Config;
  Config.TargetRate = 0.5;
  Config.PeriodBytes = 100; // A boundary every two or three events.
  SamplingController Controller(Config, 7);
  Runtime RT(D, &Controller);
  Stop = RT.replay(T);
  return D.Calls;
}

TEST(RuntimeTest, ReplayStopsInFrontOfTheFirstBadRecord) {
  // Thread 9 appears nowhere but in the bad record, so a threadBegin(9)
  // would also show that a hook heard of it.
  const Trace Good = TraceBuilder()
                         .fork(0, 1) // 0: first action.
                         .fork(0, 2)
                         .acq(1, 3) // 2: sync, opens a pair run.
                         .rel(1, 3)
                         .acq(1, 3)
                         .rel(1, 3)
                         .write(1, 5) // 6: first access of a run.
                         .read(2, 6)
                         .write(1, 7) // 8: middle access.
                         .read(2, 5)
                         .write(1, 8)   // 10: last access of the run.
                         .volWrite(1, 4) // 11: sync.
                         .read(0, 5)
                         .join(0, 1)
                         .exit(1)
                         .join(0, 2) // 15: last action.
                         .take();
  const size_t Positions[] = {0, 2, 6, 8, 10, 11, 15};
  const Action Corruptions[] = {
      {ActionKind::Write, 9, 5, 1},
      {ActionKind::Write, 9, MaxActionObjectId + 1, 1},
      {ActionKind::Acquire, 9, MaxActionObjectId + 1, InvalidId},
      {ActionKind::Fork, 9, 0xFFFFFFFEu, InvalidId},
  };

  BadRecord Stop;
  const std::vector<std::string> Whole = hooksOf(Good, Stop);
  EXPECT_FALSE(Stop);
  ASSERT_FALSE(Whole.empty());

  for (size_t Pos : Positions) {
    for (size_t C = 0; C < std::size(Corruptions); ++C) {
      Trace Bad = Good;
      Bad[Pos] = Corruptions[C];
      if (C == 0) {
        // The kind byte itself is corrupt: write the raw byte.
        auto *Raw = reinterpret_cast<unsigned char *>(&Bad[Pos]);
        Raw[0] = 0xEE;
      }
      const BadRecord Expected = firstBadRecord(Bad);
      ASSERT_TRUE(Expected);
      ASSERT_EQ(Expected.Index, Pos);

      BadRecord PrefixStop;
      const std::vector<std::string> Prefix =
          hooksOf(TraceSpan(Bad.data(), Pos), PrefixStop);
      EXPECT_FALSE(PrefixStop);
      const std::vector<std::string> Got = hooksOf(Bad, Stop);
      ASSERT_TRUE(Stop) << "position " << Pos << " corruption " << C;
      EXPECT_EQ(Stop.Index, Pos) << "corruption " << C;
      EXPECT_STREQ(Stop.Why, Expected.Why) << "position " << Pos;
      EXPECT_EQ(Got, Prefix) << "position " << Pos << " corruption " << C;
      for (const std::string &Call : Got)
        EXPECT_EQ(Call.find("(9,"), std::string::npos)
            << Call << " at position " << Pos << " corruption " << C;
    }
  }
}

} // namespace
