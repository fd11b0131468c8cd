#include "rpc/protocol.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "rpc/frame.h"
#include "util/socket.h"

// The wire protocol's codec layer: frames survive the socket byte-exact,
// every payload round-trips bit-identically (doubles included — the
// remote-vs-in-process equivalence contract leans on this), and malformed
// or hostile bytes decode to typed errors instead of garbage or
// allocation storms.

namespace histwalk::rpc {
namespace {

struct LoopbackPair {
  util::TcpStream client;
  util::TcpStream server;
};

LoopbackPair MakePair() {
  auto listener = util::TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  auto client = util::TcpStream::ConnectLocal(listener->port());
  EXPECT_TRUE(client.ok()) << client.status();
  auto server = listener->Accept();
  EXPECT_TRUE(server.ok()) << server.status();
  return LoopbackPair{std::move(*client), std::move(*server)};
}

// ---- framing ----------------------------------------------------------

TEST(RpcFrameTest, EncodeLaysOutTheDocumentedHeader) {
  Frame frame;
  frame.type = static_cast<uint16_t>(MsgType::kSubmit);
  frame.correlation_id = 0x1122334455667788ull;
  frame.payload = "abc";
  std::string wire = EncodeFrame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 3);
  // magic 0x50525748 little-endian = "HWRP".
  EXPECT_EQ(wire.substr(0, 4), "HWRP");
  EXPECT_EQ(static_cast<uint8_t>(wire[4]), 3);  // type lo
  EXPECT_EQ(static_cast<uint8_t>(wire[5]), 0);  // type hi
  EXPECT_EQ(static_cast<uint8_t>(wire[6]), 0);  // flags, reserved
  EXPECT_EQ(static_cast<uint8_t>(wire[7]), 0);
  EXPECT_EQ(static_cast<uint8_t>(wire[8]), 0x88);   // correlation id LE
  EXPECT_EQ(static_cast<uint8_t>(wire[15]), 0x11);
  EXPECT_EQ(static_cast<uint8_t>(wire[16]), 3);     // payload length
  EXPECT_EQ(wire.substr(kFrameHeaderBytes), "abc");
}

TEST(RpcFrameTest, RoundTripsOverALoopbackSocket) {
  LoopbackPair pair = MakePair();
  Frame sent;
  sent.type = static_cast<uint16_t>(MsgType::kReportOk);
  sent.correlation_id = 42;
  sent.payload = std::string(100000, 'x');  // bigger than one TCP segment
  sent.payload += '\0';
  std::thread writer([&] {
    Frame empty;
    empty.type = static_cast<uint16_t>(MsgType::kCancelOk);
    empty.correlation_id = 7;
    ASSERT_TRUE(WriteFrame(pair.client, sent).ok());
    ASSERT_TRUE(WriteFrame(pair.client, empty).ok());
  });
  Frame got;
  ASSERT_TRUE(ReadFrame(pair.server, &got).ok());
  EXPECT_EQ(got.type, sent.type);
  EXPECT_EQ(got.correlation_id, sent.correlation_id);
  EXPECT_EQ(got.payload, sent.payload);
  Frame second;
  ASSERT_TRUE(ReadFrame(pair.server, &second).ok());
  EXPECT_EQ(second.type, static_cast<uint16_t>(MsgType::kCancelOk));
  EXPECT_TRUE(second.payload.empty());
  writer.join();
}

TEST(RpcFrameTest, CleanCloseBetweenFramesIsNotFound) {
  LoopbackPair pair = MakePair();
  pair.client.Close();
  Frame got;
  util::Status status = ReadFrame(pair.server, &got);
  EXPECT_EQ(status.code(), util::StatusCode::kNotFound) << status;
}

TEST(RpcFrameTest, BadMagicIsDataLoss) {
  LoopbackPair pair = MakePair();
  Frame frame;
  frame.type = static_cast<uint16_t>(MsgType::kPoll);
  std::string wire = EncodeFrame(frame);
  wire[0] = 'X';
  ASSERT_TRUE(pair.client.SendAll(wire).ok());
  Frame got;
  EXPECT_TRUE(util::IsDataLoss(ReadFrame(pair.server, &got)));
}

TEST(RpcFrameTest, NonzeroReservedFlagsAreDataLoss) {
  LoopbackPair pair = MakePair();
  std::string wire = EncodeFrame(Frame{});
  wire[6] = '\1';
  ASSERT_TRUE(pair.client.SendAll(wire).ok());
  Frame got;
  EXPECT_TRUE(util::IsDataLoss(ReadFrame(pair.server, &got)));
}

TEST(RpcFrameTest, OversizedDeclaredLengthIsDataLossNotAnAllocation) {
  LoopbackPair pair = MakePair();
  std::string wire = EncodeFrame(Frame{});
  // Patch the length field to kMaxFramePayload + 1: the reader must refuse
  // from the header alone — the gigabytes it announces are never coming.
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(wire.data() + 16, &huge, sizeof(huge));
  ASSERT_TRUE(pair.client.SendAll(wire).ok());
  Frame got;
  EXPECT_TRUE(util::IsDataLoss(ReadFrame(pair.server, &got)));
}

TEST(RpcFrameTest, TruncatedHeaderIsDataLoss) {
  LoopbackPair pair = MakePair();
  std::string wire = EncodeFrame(Frame{});
  ASSERT_TRUE(pair.client.SendAll(std::string_view(wire).substr(0, 7)).ok());
  pair.client.Close();
  Frame got;
  EXPECT_TRUE(util::IsDataLoss(ReadFrame(pair.server, &got)));
}

TEST(RpcFrameTest, DisconnectMidPayloadIsDataLoss) {
  LoopbackPair pair = MakePair();
  Frame frame;
  frame.payload = std::string(64, 'p');
  std::string wire = EncodeFrame(frame);
  ASSERT_TRUE(
      pair.client.SendAll(std::string_view(wire).substr(0, wire.size() - 30))
          .ok());
  pair.client.Close();
  Frame got;
  EXPECT_TRUE(util::IsDataLoss(ReadFrame(pair.server, &got)));
}

// ---- handshake and status payloads ------------------------------------

TEST(RpcProtocolTest, HelloRoundTripsVersionAndName) {
  HelloPayload hello;
  hello.version = 7;
  hello.peer_name = "histwalk_serviced";
  auto decoded = DecodeHello(EncodeHello(hello));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->version, 7u);
  EXPECT_EQ(decoded->peer_name, "histwalk_serviced");
  EXPECT_TRUE(util::IsDataLoss(DecodeHello("ab").status()));
}

TEST(RpcProtocolTest, StatusRoundTripsEveryCode) {
  for (const util::Status& status :
       {util::Status::Ok(), util::Status::InvalidArgument("bad"),
        util::Status::NotFound("gone"), util::Status::Unavailable("busy"),
        util::Status::DeadlineExceeded("late"),
        util::Status::FailedPrecondition("nope")}) {
    util::Status decoded;
    ASSERT_TRUE(
        DecodeStatusPayload(EncodeStatusPayload(status), &decoded).ok());
    EXPECT_EQ(decoded.code(), status.code());
    EXPECT_EQ(decoded.message(), status.message());
  }
  EXPECT_TRUE(util::IsDeadlineExceeded(util::Status::DeadlineExceeded("x")));
}

TEST(RpcProtocolTest, MalformedStatusPayloadIsDataLoss) {
  util::Status decoded;
  EXPECT_TRUE(util::IsDataLoss(DecodeStatusPayload("zz", &decoded)));
  // An out-of-range code byte must not cast into the enum.
  std::string wire;
  wire.assign("\xff\xff\xff\xff", 4);
  wire += EncodeStatusPayload(util::Status::Ok()).substr(4);
  EXPECT_TRUE(util::IsDataLoss(DecodeStatusPayload(wire, &decoded)));
}

// ---- run options ------------------------------------------------------

TEST(RpcProtocolTest, RunOptionsRoundTripBitIdentically) {
  api::RunOptions options;
  options.walker = {.type = core::WalkerType::kCnrw, .label = "tenant-a"};
  options.num_walkers = 11;
  options.seed = 0xDEADBEEFCAFEull;
  options.max_steps = 12345;
  options.query_budget = 77;
  options.tenant_query_budget = 501;
  options.weight = 3;
  options.progress_interval = 16;
  options.stop_at_ci_half_width = 0.1;  // not exactly representable
  auto wire = EncodeRunOptions(options);
  ASSERT_TRUE(wire.ok()) << wire.status();
  auto decoded = DecodeRunOptions(*wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->walker.type, options.walker.type);
  EXPECT_EQ(decoded->walker.label, options.walker.label);
  EXPECT_EQ(decoded->num_walkers, options.num_walkers);
  EXPECT_EQ(decoded->seed, options.seed);
  EXPECT_EQ(decoded->max_steps, options.max_steps);
  EXPECT_EQ(decoded->query_budget, options.query_budget);
  EXPECT_EQ(decoded->tenant_query_budget, options.tenant_query_budget);
  EXPECT_EQ(decoded->weight, options.weight);
  EXPECT_EQ(decoded->progress_interval, options.progress_interval);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->stop_at_ci_half_width),
            std::bit_cast<uint64_t>(options.stop_at_ci_half_width));
}

TEST(RpcProtocolTest, GnrwWalkersAreRefusedAtTheWire) {
  // A grouping is a live pointer; it has no wire form, so both directions
  // refuse rather than silently dropping it.
  api::RunOptions options;
  options.walker.type = core::WalkerType::kGnrw;
  options.max_steps = 10;
  auto wire = EncodeRunOptions(options);
  EXPECT_EQ(wire.status().code(), util::StatusCode::kInvalidArgument);

  api::RunOptions plain;
  plain.walker.type = core::WalkerType::kCnrw;
  plain.max_steps = 10;
  auto encoded = EncodeRunOptions(plain);
  ASSERT_TRUE(encoded.ok());
  std::string tampered = *encoded;
  const uint32_t gnrw = static_cast<uint32_t>(core::WalkerType::kGnrw);
  std::memcpy(tampered.data(), &gnrw, sizeof(gnrw));
  EXPECT_EQ(DecodeRunOptions(tampered).status().code(),
            util::StatusCode::kInvalidArgument);
}

// ---- run reports ------------------------------------------------------

api::RunReport SampleReport() {
  api::RunReport report;
  report.ensemble.starts = {4, 9};
  report.ensemble.traces.resize(2);
  report.ensemble.traces[0].nodes = {4, 5, 6};
  report.ensemble.traces[0].degrees = {2, 3, 2};
  report.ensemble.traces[0].unique_queries = {1, 2, 3};
  report.ensemble.traces[0].final_status = util::Status::Ok();
  report.ensemble.traces[1].nodes = {9};
  report.ensemble.traces[1].degrees = {8};
  report.ensemble.traces[1].unique_queries = {4};
  report.ensemble.traces[1].final_status =
      util::Status::Unavailable("tenant budget exhausted");
  report.ensemble.walker_stats = {{.total_queries = 3, .unique_queries = 3},
                                  {.total_queries = 1, .cache_hits = 1}};
  report.ensemble.summed_stats = {.total_queries = 4, .unique_queries = 3,
                                  .cache_hits = 1};
  report.ensemble.charged_queries = 3;
  report.ensemble.cache_stats = {.hits = 1, .misses = 3, .insertions = 3,
                                 .entries = 3, .bytes = 96};
  report.charged_queries = 3;
  report.tenant.submitted = 4;
  report.tenant.wire_items = 3;
  report.latency_us = 1234;
  report.has_estimate = true;
  report.estimate = 7.914382193;
  report.std_error = 1.0 / 3.0;
  report.ci_half_width = 0.653;
  report.confidence = 0.95;
  report.ess = 41.25;
  report.r_hat = 1.00305;
  report.num_batches = 12;
  report.has_progress = true;
  report.progress.total_steps = 300;
  report.progress.has_estimate = true;
  report.progress.estimate = 7.914382193;
  report.progress.walkers = {{.steps = 150, .unique_queries = 3,
                              .has_estimate = true, .estimate = 8.5,
                              .ess = 20.5}};
  return report;
}

TEST(RpcProtocolTest, RunReportRoundTripsBitIdentically) {
  const api::RunReport report = SampleReport();
  auto decoded = DecodeRunReport(EncodeRunReport(report));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->ensemble.starts, report.ensemble.starts);
  ASSERT_EQ(decoded->ensemble.traces.size(), 2u);
  EXPECT_EQ(decoded->ensemble.traces[0].nodes,
            report.ensemble.traces[0].nodes);
  EXPECT_EQ(decoded->ensemble.traces[1].degrees,
            report.ensemble.traces[1].degrees);
  EXPECT_EQ(decoded->ensemble.traces[1].final_status.code(),
            util::StatusCode::kUnavailable);
  EXPECT_EQ(decoded->ensemble.traces[1].final_status.message(),
            "tenant budget exhausted");
  ASSERT_EQ(decoded->ensemble.walker_stats.size(), 2u);
  EXPECT_EQ(decoded->ensemble.walker_stats[1].cache_hits, 1u);
  EXPECT_EQ(decoded->ensemble.summed_stats.total_queries, 4u);
  EXPECT_EQ(decoded->ensemble.cache_stats.bytes, 96u);
  EXPECT_EQ(decoded->charged_queries, report.charged_queries);
  EXPECT_EQ(decoded->tenant.submitted, 4u);
  EXPECT_EQ(decoded->tenant.wire_items, 3u);
  EXPECT_EQ(decoded->latency_us, 1234u);
  EXPECT_TRUE(decoded->has_estimate);
  // Doubles travel as raw IEEE-754 bits: BIT-equality, not approximate.
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->estimate),
            std::bit_cast<uint64_t>(report.estimate));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->std_error),
            std::bit_cast<uint64_t>(report.std_error));
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->r_hat),
            std::bit_cast<uint64_t>(report.r_hat));
  EXPECT_EQ(decoded->num_batches, 12u);
  ASSERT_TRUE(decoded->has_progress);
  EXPECT_EQ(decoded->progress.total_steps, 300u);
  ASSERT_EQ(decoded->progress.walkers.size(), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->progress.walkers[0].estimate),
            std::bit_cast<uint64_t>(8.5));
}

TEST(RpcProtocolTest, TruncatedRunReportIsDataLoss) {
  std::string wire = EncodeRunReport(SampleReport());
  for (size_t keep : {size_t{0}, size_t{5}, wire.size() / 2,
                      wire.size() - 1}) {
    auto decoded = DecodeRunReport(std::string_view(wire).substr(0, keep));
    EXPECT_TRUE(util::IsDataLoss(decoded.status())) << "keep " << keep;
  }
}

TEST(RpcProtocolTest, HostileElementCountsAreRefusedWithoutAllocating) {
  // Declare 2^61 trace nodes in a payload a few bytes long: ReadCount
  // validates counts against the bytes actually present, so the decoder
  // refuses instead of resizing for exabytes.
  std::string wire = EncodeRunReport(SampleReport());
  const uint64_t absurd = 1ull << 61;
  // ensemble.starts count is the first field of the report payload.
  std::memcpy(wire.data(), &absurd, sizeof(absurd));
  EXPECT_TRUE(util::IsDataLoss(DecodeRunReport(wire).status()));
}

// FlightEventKind travels as one raw byte. The kinds keep fixed values
// (wire_fetch 0, singleflight_join 2, budget_refusal 3, error 4) so the
// protocol version stays 1, and the retired value 1 is refused like any
// out-of-range byte.
TEST(RpcProtocolTest, FlightEventKindsKeepTheirWireValues) {
  const uint64_t kNode = 0x0123456789abcdefull;
  const uint32_t kActor = 0x5a5a5a5au;
  api::RunReport report = SampleReport();
  report.flight.events = {{.node = kNode, .actor = kActor,
                           .kind = obs::FlightEventKind::kError}};
  report.flight.total_recorded = 1;
  const std::string wire = EncodeRunReport(report);
  // The event's kind byte follows its little-endian node and actor.
  std::string marker(12, '\0');
  std::memcpy(marker.data(), &kNode, sizeof(kNode));
  std::memcpy(marker.data() + 8, &kActor, sizeof(kActor));
  const size_t at = wire.find(marker);
  ASSERT_NE(at, std::string::npos);
  const size_t kind_at = at + marker.size();
  EXPECT_EQ(static_cast<uint8_t>(wire[kind_at]), 4u);

  for (const auto& [raw, kind] :
       {std::pair{0, obs::FlightEventKind::kWireFetch},
        std::pair{2, obs::FlightEventKind::kSingleflightJoin},
        std::pair{3, obs::FlightEventKind::kBudgetRefusal},
        std::pair{4, obs::FlightEventKind::kError}}) {
    std::string patched = wire;
    patched[kind_at] = static_cast<char>(raw);
    auto decoded = DecodeRunReport(patched);
    ASSERT_TRUE(decoded.ok()) << "kind " << raw << ": " << decoded.status();
    ASSERT_EQ(decoded->flight.events.size(), 1u);
    EXPECT_EQ(decoded->flight.events[0].kind, kind) << "kind " << raw;
  }
  for (int retired_or_unknown : {1, 5, 255}) {
    std::string patched = wire;
    patched[kind_at] = static_cast<char>(retired_or_unknown);
    EXPECT_TRUE(util::IsDataLoss(DecodeRunReport(patched).status()))
        << "kind " << retired_or_unknown;
  }
}

// ---- small payloads ---------------------------------------------------

TEST(RpcProtocolTest, SessionIdAndRunStateRoundTrip) {
  auto id = DecodeSessionId(EncodeSessionId(0xABCDEF0123ull));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0xABCDEF0123ull);
  EXPECT_TRUE(util::IsDataLoss(DecodeSessionId("abc").status()));

  for (api::RunState state : {api::RunState::kRunning, api::RunState::kDone,
                              api::RunState::kFailed}) {
    auto decoded = DecodeRunState(EncodeRunState(state));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded, state);
  }
  std::string bad("\x09\x00\x00\x00", 4);
  EXPECT_TRUE(util::IsDataLoss(DecodeRunState(bad).status()));
}

TEST(RpcProtocolTest, ProgressSnapshotRoundTrips) {
  obs::ProgressSnapshot snapshot;
  snapshot.total_steps = 99;
  snapshot.unique_queries = 44;
  snapshot.charged_queries = 41;
  snapshot.walkers_reporting = 6;
  snapshot.has_estimate = true;
  snapshot.estimate = 2.0 / 7.0;
  snapshot.stop_requested = true;
  snapshot.walkers.resize(2);
  snapshot.walkers[1].steps = 50;
  auto decoded = DecodeProgressSnapshot(EncodeProgressSnapshot(snapshot));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->total_steps, 99u);
  EXPECT_EQ(decoded->charged_queries, 41u);
  EXPECT_TRUE(decoded->stop_requested);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->estimate),
            std::bit_cast<uint64_t>(snapshot.estimate));
  ASSERT_EQ(decoded->walkers.size(), 2u);
  EXPECT_EQ(decoded->walkers[1].steps, 50u);
  EXPECT_TRUE(util::IsDataLoss(DecodeProgressSnapshot("short").status()));
}

}  // namespace
}  // namespace histwalk::rpc
