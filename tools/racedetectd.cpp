//===- tools/racedetectd.cpp - Fleet trace-ingest daemon ------------------==//
//
// The deployment-side collector from the paper's fleet story, as a
// long-running daemon: deployed instances (or CI jobs, or a test harness)
// submit binary/text trace files over a Unix-domain socket, loopback TCP,
// or by dropping files into a watched directory; each submission is
// replayed through an AnalysisSession with bounded memory and folded into
// a persistent FleetAggregator whose snapshot survives kill -9 (see
// runtime/IngestServer.h for the crash-safety story).
//
// A typical invocation passes --listen=/run/racedetectd.sock,
// --drop-dir=/var/spool/traces, --snapshot=/var/lib/racedetectd/fleet.snap,
// --detector=pacer and --rate=0.03 (--help lists every option).
//
// Submit and inspect with the racedetect tool:
//
//   racedetect --submit --socket=/run/racedetectd.sock run-4711.trace
//   racedetect --daemon-stats --socket=/run/racedetectd.sock
//
// SIGINT/SIGTERM stop the daemon gracefully: drain the queue, write a
// final snapshot, print the ingest counters.
//
//===----------------------------------------------------------------------===//

#include "core/ClockKernels.h"
#include "runtime/IngestServer.h"
#include "runtime/TraceIndex.h"
#include "support/CommandLine.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include <unistd.h>

using namespace pacer;

namespace {

std::atomic<bool> GStopRequested{false};

void onSignal(int) { GStopRequested.store(true); }

OptionRegistry buildRegistry() {
  OptionRegistry R("racedetectd [--listen=SOCK] [--tcp-port=N] "
                   "[--drop-dir=DIR] --snapshot=FILE [options]");
  R.addString("listen", "", "Unix-domain socket path to accept on")
      .addInt("tcp-port", -1,
              "loopback TCP port to accept on (0 = ephemeral, printed)")
      .addString("drop-dir", "", "watch this directory for dropped traces")
      .addString("snapshot", "",
                 "persistent fleet snapshot file (crash-safe; loaded on "
                 "start when present)")
      .addString("spool-dir", "",
                 "in-flight submission spool (default: SNAPSHOT.spool, or "
                 "racedetectd.spool)")
      .addString("detector", "pacer", "pacer|fasttrack|generic|literace")
      .addDouble("rate", 1.0, "PACER sampling rate in [0,1]")
      .addInt("period-bytes", 256 * 1024, "simulated nursery size in bytes")
      .addInt("burst", 100, "LiteRace burst length")
      .addFlag("accordion", "accordion thread-slot recycling")
      .addInt("seed", 1, "seed for sampling decisions (fleet-wide)")
      .addString("shards", "1",
                 "shards per submission replay: a count; 'auto' = 1")
      .addInt("stream-window",
              static_cast<int64_t>(StreamingTraceReader::DefaultWindowActions),
              "streaming window per replay, in actions")
      .addInt("max-submission-mb", 256, "per-submission size limit (MiB)")
      .addInt("queue", 64,
              "bounded submission queue depth (producers block when full)")
      .addInt("workers", 0, "analysis worker threads (0 = hardware)")
      .addInt("max-connections", 256, "simultaneous connection limit")
      .addInt("snapshot-every", 1, "snapshot after every Nth commit")
      .addInt("drop-poll-ms", 50, "drop-directory poll interval")
      .addInt("recv-timeout-ms", 10000, "per-read connection timeout");
  return R;
}

bool setupFromOptions(const OptionRegistry &R, DetectorSetup &Setup) {
  const std::string Name = R.getString("detector");
  if (Name == "pacer") {
    Setup = pacerSetup(R.getDouble("rate"));
    Setup.Sampling.PeriodBytes =
        static_cast<uint64_t>(R.getInt("period-bytes"));
  } else if (Name == "fasttrack") {
    Setup = fastTrackSetup();
  } else if (Name == "generic") {
    Setup = genericSetup();
  } else if (Name == "literace") {
    Setup = literaceSetup(static_cast<uint32_t>(R.getInt("burst")));
  } else {
    return false;
  }
  Setup.AccordionClocks = R.getBool("accordion");
  Setup.Shards = parseShardCount(R.getString("shards"));
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  OptionRegistry R = buildRegistry();
  if (!R.parse(Argc, Argv))
    return R.helpRequested() ? 0 : 2;

  IngestServer::Config Config;
  Config.UnixSocketPath = R.getString("listen");
  Config.TcpPort = static_cast<int>(R.getInt("tcp-port"));
  Config.DropDir = R.getString("drop-dir");
  Config.SnapshotPath = R.getString("snapshot");
  Config.SpoolDir = R.getString("spool-dir");
  if (Config.SpoolDir.empty())
    Config.SpoolDir = Config.SnapshotPath.empty()
                          ? "racedetectd.spool"
                          : Config.SnapshotPath + ".spool";
  if (!setupFromOptions(R, Config.Setup)) {
    std::fprintf(stderr, "error: unknown --detector=%s\n",
                 R.getString("detector").c_str());
    return 2;
  }
  Config.Seed = static_cast<uint64_t>(R.getInt("seed"));
  int64_t WindowFlag = R.getInt("stream-window");
  Config.StreamWindow = WindowFlag < 1 ? 1 : static_cast<size_t>(WindowFlag);
  Config.MaxSubmissionBytes =
      static_cast<uint64_t>(R.getInt("max-submission-mb")) << 20;
  int64_t QueueFlag = R.getInt("queue");
  Config.QueueCapacity = QueueFlag < 1 ? 1 : static_cast<size_t>(QueueFlag);
  Config.AnalysisWorkers = static_cast<unsigned>(R.getInt("workers"));
  Config.MaxConnections =
      static_cast<unsigned>(R.getInt("max-connections"));
  int64_t EveryFlag = R.getInt("snapshot-every");
  Config.SnapshotEveryN = EveryFlag < 1 ? 1 : static_cast<unsigned>(EveryFlag);
  Config.DropPollMs = static_cast<int>(R.getInt("drop-poll-ms"));
  Config.RecvTimeoutMs = static_cast<int>(R.getInt("recv-timeout-ms"));

  if (Config.UnixSocketPath.empty() && Config.TcpPort < 0 &&
      Config.DropDir.empty()) {
    std::fprintf(stderr,
                 "error: nothing to accept on -- need --listen, "
                 "--tcp-port, or --drop-dir\n");
    return 2;
  }

  IngestServer Server(Config);
  std::string Error;
  if (!Server.start(Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // One line per surface, so scripts (and the integration test) can scrape
  // the ephemeral TCP port and know the daemon is ready.
  std::printf("racedetectd: pid %d\n", static_cast<int>(::getpid()));
  std::printf("racedetectd: hardware: kernel isa %s\n",
              kernels::activeIsa());
  if (!Config.UnixSocketPath.empty())
    std::printf("racedetectd: listening on %s\n",
                Config.UnixSocketPath.c_str());
  if (Config.TcpPort >= 0)
    std::printf("racedetectd: listening on tcp port %d\n", Server.tcpPort());
  if (!Config.DropDir.empty())
    std::printf("racedetectd: watching %s\n", Config.DropDir.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (!GStopRequested.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Server.stop();
  std::printf("racedetectd: stopped; %s\n", Server.statsText().c_str());
  return 0;
}
