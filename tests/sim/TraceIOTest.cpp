//===- tests/sim/TraceIOTest.cpp ------------------------------------------==//

#include "sim/TraceIO.h"

#include "runtime/AnalysisSession.h"
#include "sim/StreamingTraceReader.h"
#include "sim/TraceGenerator.h"
#include "sim/TraceView.h"
#include "sim/Workloads.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace pacer;
using namespace pacer::test;

namespace {

bool sameTrace(const Trace &A, const Trace &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    if (A[I].Kind != B[I].Kind || A[I].Tid != B[I].Tid ||
        A[I].Target != B[I].Target || A[I].Site != B[I].Site)
      return false;
  }
  return true;
}

TEST(TraceIOTest, RoundTripsHandTrace) {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .write(1, 3, 42)
                .rel(1, 7)
                .volWrite(1, 2)
                .volRead(0, 2)
                .join(0, 1)
                .take();
  T.push_back({ActionKind::AwaitVolatile, 0, 2, 1});
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  TraceParseResult Result = parseTrace(serializeTrace(T));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(sameTrace(T, Result.T));
}

TEST(TraceIOTest, RoundTripsGeneratedWorkload) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 5);
  TraceParseResult Result = parseTrace(serializeTrace(T));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(sameTrace(T, Result.T));
}

TEST(TraceIOTest, EmptyTraceRoundTrips) {
  TraceParseResult Result = parseTrace(serializeTrace(Trace{}));
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(Result.T.empty());
}

TEST(TraceIOTest, InvalidIdRendersAsDash) {
  Trace T;
  T.push_back({ActionKind::ThreadExit, 3, InvalidId, InvalidId});
  std::string Text = serializeTrace(T);
  EXPECT_NE(Text.find("exit 3 - -"), std::string::npos) << Text;
}

TEST(TraceIOTest, RejectsBadMagic) {
  TraceParseResult Result = parseTrace("not-a-trace v1 0\n");
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("magic"), std::string::npos);
}

TEST(TraceIOTest, RejectsBadVersion) {
  TraceParseResult Result = parseTrace("pacer-trace v9 0\n");
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("version"), std::string::npos);
}

TEST(TraceIOTest, RejectsMalformedLines) {
  const char *Header = "pacer-trace v1 1\n";
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd 0\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "zap 0 1 2\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd x 1 2\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd 0 1 2 3\n").Ok);
  EXPECT_FALSE(parseTrace(std::string(Header) + "rd 0 99999999999 2\n").Ok);
}

TEST(TraceIOTest, ErrorNamesLine) {
  TraceParseResult Result =
      parseTrace("pacer-trace v1 2\nrd 0 1 2\nbad line here extra\n");
  ASSERT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("line 3"), std::string::npos) << Result.Error;
}

TEST(TraceIOTest, SkipsBlankLines) {
  TraceParseResult Result =
      parseTrace("pacer-trace v1 1\n\nrd 0 1 2\n\n");
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Result.T.size(), 1u);
}

TEST(TraceIOTest, FileRoundTrip) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 9);
  std::string Path = ::testing::TempDir() + "/pacer_trace_io_test.trace";
  ASSERT_TRUE(writeTraceFile(Path, T));
  TraceParseResult Result = readTraceFile(Path);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(sameTrace(T, Result.T));
  std::remove(Path.c_str());
}

TEST(TraceIOTest, MissingFileReportsError) {
  TraceParseResult Result = readTraceFile("/nonexistent/path/x.trace");
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("cannot open"), std::string::npos);
}

// --- Binary format (v2) --------------------------------------------------

/// Writes raw bytes to a temp file and returns its path.
std::string writeBytes(const std::string &Name, const std::string &Bytes) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return Path;
}

/// A hand trace exercising the encoding's edge values: InvalidId targets
/// and sites, the AwaitVolatile kind (spin-loop threshold reads carry a
/// Site), the maximal 24-bit thread id, the largest accepted variable id
/// (MaxActionObjectId), and an extreme site value.
Trace edgeCaseTrace() {
  Trace T = TraceBuilder()
                .fork(0, 1)
                .acq(1, 7)
                .write(1, 3, 42)
                .rel(1, 7)
                .volWrite(1, 2)
                .volRead(0, 2)
                .join(0, 1)
                .take();
  T.push_back({ActionKind::AwaitVolatile, 0, 2, 1});
  T.push_back(
      {ActionKind::Read, MaxActionTid, MaxActionObjectId, 0xFFFFFFFEu});
  T.push_back({ActionKind::ThreadExit, 0, InvalidId, InvalidId});
  return T;
}

TEST(TraceIOBinaryTest, RecordPackUnpackRoundTrips) {
  // The record encoding itself carries any 32-bit target; only the trace
  // readers bound object ids.
  Trace T = edgeCaseTrace();
  T.push_back({ActionKind::Read, MaxActionTid, 0xFFFFFFFEu, 0xFFFFFFFEu});
  for (const Action &A : T) {
    unsigned char Rec[BinaryTraceRecordBytes];
    packBinaryRecord(A, Rec);
    Action Back{};
    ASSERT_TRUE(unpackBinaryRecord(Rec, Back));
    EXPECT_EQ(A.Kind, Back.Kind);
    EXPECT_EQ(A.Tid, Back.Tid);
    EXPECT_EQ(A.Target, Back.Target);
    EXPECT_EQ(A.Site, Back.Site);
  }
}

TEST(TraceIOBinaryTest, FileRoundTripsEdgeCases) {
  Trace T = edgeCaseTrace();
  std::string Path = ::testing::TempDir() + "/pacer_bin_edge.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));
  TraceFormat Format = TraceFormat::Text;
  TraceParseResult Result = readTraceFile(Path, &Format);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_EQ(Format, TraceFormat::Binary);
  EXPECT_TRUE(sameTrace(T, Result.T));
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, TextBinaryTextIsByteIdentical) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 13);
  std::string TextPath = ::testing::TempDir() + "/pacer_tbt.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_tbt.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));

  TraceParseResult FromText = readTraceFile(TextPath);
  ASSERT_TRUE(FromText.Ok) << FromText.Error;
  ASSERT_TRUE(writeTraceFileBinary(BinPath, FromText.T));

  TraceParseResult FromBinary = readTraceFile(BinPath);
  ASSERT_TRUE(FromBinary.Ok) << FromBinary.Error;
  // The text writer is canonical, so a full text -> binary -> text cycle
  // reproduces the original file bytes exactly.
  EXPECT_EQ(serializeTrace(T), serializeTrace(FromBinary.T));
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(TraceIOBinaryTest, EmptyTraceRoundTrips) {
  std::string Path = ::testing::TempDir() + "/pacer_bin_empty.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, Trace{}));
  TraceParseResult Result = readTraceFile(Path);
  ASSERT_TRUE(Result.Ok) << Result.Error;
  EXPECT_TRUE(Result.T.empty());
  std::remove(Path.c_str());
}

std::string validBinaryFile(const Trace &T) {
  std::string Bytes(BinaryTraceHeaderBytes, '\0');
  packBinaryHeader(T.size(), reinterpret_cast<unsigned char *>(&Bytes[0]));
  for (const Action &A : T) {
    unsigned char Rec[BinaryTraceRecordBytes];
    packBinaryRecord(A, Rec);
    Bytes.append(reinterpret_cast<char *>(Rec), sizeof(Rec));
  }
  return Bytes;
}

TEST(TraceIOBinaryTest, RejectsTruncatedHeader) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  std::string Path =
      writeBytes("pacer_bin_hdr.btrace", Bytes.substr(0, 10));
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("truncated header"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsBadMagic) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  Bytes[3] = 'X'; // Still starts with 0xB7, so it classifies as binary.
  std::string Path = writeBytes("pacer_bin_magic.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("magic"), std::string::npos) << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsBadVersion) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  Bytes[8] = 9;
  std::string Path = writeBytes("pacer_bin_ver.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("version"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsTruncatedRecords) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  std::string Path =
      writeBytes("pacer_bin_trunc.btrace", Bytes.substr(0, Bytes.size() - 5));
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("truncated trace"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsTrailingBytes) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  Bytes.append(12, '\0');
  std::string Path = writeBytes("pacer_bin_trail.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("trailing bytes"), std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, RejectsBadKindByte) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  Bytes[BinaryTraceHeaderBytes + BinaryTraceRecordBytes] = '\x7F';
  std::string Path = writeBytes("pacer_bin_kind.btrace", Bytes);
  TraceParseResult Result = readTraceFile(Path);
  EXPECT_FALSE(Result.Ok);
  EXPECT_NE(Result.Error.find("bad action kind in record 1"),
            std::string::npos)
      << Result.Error;
  std::remove(Path.c_str());
}

TEST(TraceIOBinaryTest, DetectsFormatByFirstByte) {
  Trace T = edgeCaseTrace();
  std::string TextPath = ::testing::TempDir() + "/pacer_fmt.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_fmt.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));
  TraceFormat Format;
  std::string Error;
  ASSERT_TRUE(detectTraceFileFormat(TextPath, Format, Error)) << Error;
  EXPECT_EQ(Format, TraceFormat::Text);
  ASSERT_TRUE(detectTraceFileFormat(BinPath, Format, Error)) << Error;
  EXPECT_EQ(Format, TraceFormat::Binary);
  EXPECT_FALSE(detectTraceFileFormat("/nonexistent/x.trace", Format, Error));
  EXPECT_NE(Error.find("cannot open"), std::string::npos);
  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

// --- TraceView (mmap zero-copy) ------------------------------------------

TEST(TraceViewTest, MappedViewMatchesTrace) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 21);
  std::string Path = ::testing::TempDir() + "/pacer_view.btrace";
  ASSERT_TRUE(writeTraceFileBinary(Path, T));

  for (bool ForceBuffered : {false, true}) {
    TraceView View = TraceView::open(Path, ForceBuffered);
    ASSERT_TRUE(View.ok()) << View.error();
    TraceSpan S = View.actions();
    ASSERT_EQ(S.size(), T.size());
    for (size_t I = 0; I != T.size(); ++I) {
      EXPECT_EQ(T[I].Kind, S[I].Kind);
      EXPECT_EQ(T[I].Tid, S[I].Tid);
      EXPECT_EQ(T[I].Target, S[I].Target);
      EXPECT_EQ(T[I].Site, S[I].Site);
    }
  }
  std::remove(Path.c_str());
}

TEST(TraceViewTest, RejectsTextTraces) {
  Trace T = edgeCaseTrace();
  std::string Path = ::testing::TempDir() + "/pacer_view.trace";
  ASSERT_TRUE(writeTraceFile(Path, T, TraceFormat::Text));
  TraceView View = TraceView::open(Path);
  EXPECT_FALSE(View.ok());
  EXPECT_NE(View.error().find("not a binary trace"), std::string::npos)
      << View.error();
  std::remove(Path.c_str());
}

TEST(TraceViewTest, RejectsTruncatedFile) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  std::string Path = writeBytes("pacer_view_trunc.btrace",
                                Bytes.substr(0, Bytes.size() - 3));
  TraceView View = TraceView::open(Path);
  EXPECT_FALSE(View.ok());
  EXPECT_NE(View.error().find("truncated trace"), std::string::npos)
      << View.error();
  std::remove(Path.c_str());
}

TEST(TraceViewTest, MissingFileReportsError) {
  TraceView View = TraceView::open("/nonexistent/path/x.btrace");
  EXPECT_FALSE(View.ok());
  EXPECT_NE(View.error().find("cannot open"), std::string::npos);
}

// --- StreamingTraceReader ------------------------------------------------

TEST(StreamingTraceReaderTest, ChunksConcatenateToFullTrace) {
  CompiledWorkload Workload(tinyTestWorkload());
  Trace T = generateTrace(Workload, 33);
  std::string TextPath = ::testing::TempDir() + "/pacer_stream.trace";
  std::string BinPath = ::testing::TempDir() + "/pacer_stream.btrace";
  ASSERT_TRUE(writeTraceFile(TextPath, T, TraceFormat::Text));
  ASSERT_TRUE(writeTraceFile(BinPath, T, TraceFormat::Binary));

  for (const std::string &Path : {TextPath, BinPath}) {
    for (size_t Window : {size_t(1), size_t(7), size_t(1 << 20)}) {
      StreamingTraceReader Reader(Path, Window);
      ASSERT_TRUE(Reader.ok()) << Reader.error();
      Trace Rebuilt;
      for (TraceSpan Chunk = Reader.next(); !Chunk.empty();
           Chunk = Reader.next()) {
        EXPECT_LE(Chunk.size(), Window);
        Rebuilt.insert(Rebuilt.end(), Chunk.begin(), Chunk.end());
      }
      ASSERT_TRUE(Reader.ok()) << Reader.error();
      EXPECT_TRUE(Reader.done());
      EXPECT_EQ(Reader.actionsDelivered(), T.size());
      EXPECT_TRUE(sameTrace(T, Rebuilt))
          << Path << " window " << Window;
    }
  }

  StreamingTraceReader BinReader(BinPath);
  EXPECT_EQ(BinReader.format(), TraceFormat::Binary);
  ASSERT_TRUE(BinReader.totalActions().has_value());
  EXPECT_EQ(*BinReader.totalActions(), T.size());
  StreamingTraceReader TextReader(TextPath);
  EXPECT_EQ(TextReader.format(), TraceFormat::Text);
  EXPECT_FALSE(TextReader.totalActions().has_value());

  std::remove(TextPath.c_str());
  std::remove(BinPath.c_str());
}

TEST(StreamingTraceReaderTest, ReportsMidStreamTruncation) {
  std::string Bytes = validBinaryFile(edgeCaseTrace());
  std::string Path = writeBytes("pacer_stream_trunc.btrace",
                                Bytes.substr(0, Bytes.size() - 5));
  StreamingTraceReader Reader(Path, 2);
  ASSERT_TRUE(Reader.ok()) << Reader.error(); // Header is intact.
  while (!Reader.next().empty())
    ;
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("truncated trace"), std::string::npos)
      << Reader.error();
  std::remove(Path.c_str());
}

TEST(StreamingTraceReaderTest, ReportsMalformedTextLine) {
  std::string Path = writeBytes(
      "pacer_stream_bad.trace", "pacer-trace v1 2\nrd 0 1 2\nzap 0 1 2\n");
  StreamingTraceReader Reader(Path, 1);
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  while (!Reader.next().empty())
    ;
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("line 3"), std::string::npos)
      << Reader.error();
  std::remove(Path.c_str());
}

TEST(StreamingTraceReaderTest, MissingFileReportsError) {
  StreamingTraceReader Reader("/nonexistent/path/x.trace");
  EXPECT_FALSE(Reader.ok());
  EXPECT_NE(Reader.error().find("cannot open"), std::string::npos);
  EXPECT_TRUE(Reader.next().empty());
}

TEST(TraceIOTest, ReplayOfParsedTraceFindsSameRaces) {
  // End to end: record, parse, re-analyse offline; identical reports.
  CompiledWorkload Workload(tinyTestWorkload());
  Trace Original = generateTrace(Workload, 11);
  TraceParseResult Parsed = parseTrace(serializeTrace(Original));
  ASSERT_TRUE(Parsed.Ok);

  AnalysisSession Session(Workload, trialRequest(fastTrackSetup(), 1));
  AnalysisResult Live = Session.analyzeTrace(Original);
  AnalysisResult Offline = Session.analyzeTrace(Parsed.T);
  EXPECT_EQ(Live.Races, Offline.Races);
}

} // namespace
