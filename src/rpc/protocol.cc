#include "rpc/protocol.h"

#include <bit>
#include <cstring>

#include "store/format.h"

namespace histwalk::rpc {

namespace {

using store::AppendU32;
using store::AppendU64;
using store::ByteReader;

util::Status Malformed(const char* what) {
  return util::Status::DataLoss(std::string("malformed payload: ") + what);
}

bool ReadString(ByteReader& reader, std::string* out) {
  uint32_t len = 0;
  if (!reader.ReadU32(&len)) return false;
  std::string_view bytes;
  if (!reader.ReadBytes(len, &bytes)) return false;
  out->assign(bytes);
  return true;
}

bool ReadDouble(ByteReader& reader, double* out) {
  uint64_t bits = 0;
  if (!reader.ReadU64(&bits)) return false;
  *out = std::bit_cast<double>(bits);
  return true;
}

void AppendBool(std::string& out, bool v) {
  out.push_back(v ? '\1' : '\0');
}

bool ReadBool(ByteReader& reader, bool* out) {
  std::string_view byte;
  if (!reader.ReadBytes(1, &byte)) return false;
  *out = byte[0] != '\0';
  return true;
}

// Element counts are validated against the bytes actually present before
// any reserve/resize: a hostile frame can declare a billion elements but
// cannot make the decoder allocate for them.
bool ReadCount(ByteReader& reader, size_t min_elem_bytes, uint64_t* count) {
  if (!reader.ReadU64(count)) return false;
  return *count <= reader.remaining() / min_elem_bytes;
}

void AppendStatus(std::string& out, const util::Status& status) {
  AppendU32(out, static_cast<uint32_t>(status.code()));
  AppendString(out, status.message());
}

bool ReadStatus(ByteReader& reader, util::Status* out) {
  uint32_t code = 0;
  std::string message;
  if (!reader.ReadU32(&code)) return false;
  if (!ReadString(reader, &message)) return false;
  if (code > static_cast<uint32_t>(util::StatusCode::kDeadlineExceeded)) {
    return false;
  }
  *out = util::Status(static_cast<util::StatusCode>(code),
                      std::move(message));
  return true;
}

void AppendQueryStats(std::string& out, const access::QueryStats& s) {
  AppendU64(out, s.total_queries);
  AppendU64(out, s.unique_queries);
  AppendU64(out, s.cache_hits);
}

bool ReadQueryStats(ByteReader& reader, access::QueryStats* out) {
  return reader.ReadU64(&out->total_queries) &&
         reader.ReadU64(&out->unique_queries) &&
         reader.ReadU64(&out->cache_hits);
}

void AppendCacheStats(std::string& out, const access::HistoryCacheStats& s) {
  AppendU64(out, s.hits);
  AppendU64(out, s.misses);
  AppendU64(out, s.insertions);
  AppendU64(out, s.evictions);
  AppendU64(out, s.entries);
  AppendU64(out, s.bytes);
}

bool ReadCacheStats(ByteReader& reader, access::HistoryCacheStats* out) {
  return reader.ReadU64(&out->hits) && reader.ReadU64(&out->misses) &&
         reader.ReadU64(&out->insertions) &&
         reader.ReadU64(&out->evictions) && reader.ReadU64(&out->entries) &&
         reader.ReadU64(&out->bytes);
}

void AppendHistogram(std::string& out, const obs::Log2Histogram& h) {
  for (uint64_t bucket : h.buckets) AppendU64(out, bucket);
  AppendU64(out, h.count);
  AppendU64(out, h.sum);
  AppendU64(out, h.max);
}

bool ReadHistogram(ByteReader& reader, obs::Log2Histogram* out) {
  for (uint64_t& bucket : out->buckets) {
    if (!reader.ReadU64(&bucket)) return false;
  }
  return reader.ReadU64(&out->count) && reader.ReadU64(&out->sum) &&
         reader.ReadU64(&out->max);
}

void AppendTenantStats(std::string& out, const net::TenantPipelineStats& s) {
  AppendU64(out, s.submitted);
  AppendU64(out, s.dedup_joins);
  AppendU64(out, s.late_hits);
  AppendU64(out, s.wire_requests);
  AppendU64(out, s.wire_items);
  AppendU64(out, s.budget_refusals);
  AppendU64(out, s.queue_depth);
  AppendU64(out, s.max_queue_depth);
  AppendHistogram(out, s.wait);
}

bool ReadTenantStats(ByteReader& reader, net::TenantPipelineStats* out) {
  return reader.ReadU64(&out->submitted) &&
         reader.ReadU64(&out->dedup_joins) &&
         reader.ReadU64(&out->late_hits) &&
         reader.ReadU64(&out->wire_requests) &&
         reader.ReadU64(&out->wire_items) &&
         reader.ReadU64(&out->budget_refusals) &&
         reader.ReadU64(&out->queue_depth) &&
         reader.ReadU64(&out->max_queue_depth) &&
         ReadHistogram(reader, &out->wait);
}

void AppendPipelineStats(std::string& out,
                         const net::RequestPipelineStats& s) {
  AppendU64(out, s.submitted);
  AppendU64(out, s.dedup_joins);
  AppendU64(out, s.late_hits);
  AppendU64(out, s.wire_requests);
  AppendU64(out, s.wire_items);
  AppendU64(out, s.budget_refusals);
  AppendU64(out, s.queue_depth);
  AppendU64(out, s.max_queue_depth);
  AppendHistogram(out, s.depth);
}

bool ReadPipelineStats(ByteReader& reader, net::RequestPipelineStats* out) {
  return reader.ReadU64(&out->submitted) &&
         reader.ReadU64(&out->dedup_joins) &&
         reader.ReadU64(&out->late_hits) &&
         reader.ReadU64(&out->wire_requests) &&
         reader.ReadU64(&out->wire_items) &&
         reader.ReadU64(&out->budget_refusals) &&
         reader.ReadU64(&out->queue_depth) &&
         reader.ReadU64(&out->max_queue_depth) &&
         ReadHistogram(reader, &out->depth);
}

void AppendTrace(std::string& out, const estimate::TracedWalk& trace) {
  AppendU64(out, trace.nodes.size());
  for (graph::NodeId node : trace.nodes) AppendU32(out, node);
  AppendU64(out, trace.degrees.size());
  for (uint32_t degree : trace.degrees) AppendU32(out, degree);
  AppendU64(out, trace.unique_queries.size());
  for (uint64_t unique : trace.unique_queries) AppendU64(out, unique);
  AppendStatus(out, trace.final_status);
}

bool ReadTrace(ByteReader& reader, estimate::TracedWalk* out) {
  uint64_t count = 0;
  if (!ReadCount(reader, 4, &count)) return false;
  out->nodes.resize(count);
  for (graph::NodeId& node : out->nodes) {
    if (!reader.ReadU32(&node)) return false;
  }
  if (!ReadCount(reader, 4, &count)) return false;
  out->degrees.resize(count);
  for (uint32_t& degree : out->degrees) {
    if (!reader.ReadU32(&degree)) return false;
  }
  if (!ReadCount(reader, 8, &count)) return false;
  out->unique_queries.resize(count);
  for (uint64_t& unique : out->unique_queries) {
    if (!reader.ReadU64(&unique)) return false;
  }
  return ReadStatus(reader, &out->final_status);
}

void AppendEnsemble(std::string& out, const estimate::EnsembleResult& e) {
  AppendU64(out, e.starts.size());
  for (graph::NodeId start : e.starts) AppendU32(out, start);
  AppendU64(out, e.traces.size());
  for (const estimate::TracedWalk& trace : e.traces) AppendTrace(out, trace);
  AppendU64(out, e.walker_stats.size());
  for (const access::QueryStats& s : e.walker_stats) AppendQueryStats(out, s);
  AppendQueryStats(out, e.summed_stats);
  AppendU64(out, e.charged_queries);
  AppendCacheStats(out, e.cache_stats);
  AppendU64(out, e.history_bytes);
  AppendPipelineStats(out, e.pipeline_stats);
}

bool ReadEnsemble(ByteReader& reader, estimate::EnsembleResult* out) {
  uint64_t count = 0;
  if (!ReadCount(reader, 4, &count)) return false;
  out->starts.resize(count);
  for (graph::NodeId& start : out->starts) {
    if (!reader.ReadU32(&start)) return false;
  }
  // A trace is at least 8+8+8 count fields plus the status; 25 bytes.
  if (!ReadCount(reader, 25, &count)) return false;
  out->traces.resize(count);
  for (estimate::TracedWalk& trace : out->traces) {
    if (!ReadTrace(reader, &trace)) return false;
  }
  if (!ReadCount(reader, 24, &count)) return false;
  out->walker_stats.resize(count);
  for (access::QueryStats& s : out->walker_stats) {
    if (!ReadQueryStats(reader, &s)) return false;
  }
  return ReadQueryStats(reader, &out->summed_stats) &&
         reader.ReadU64(&out->charged_queries) &&
         ReadCacheStats(reader, &out->cache_stats) &&
         reader.ReadU64(&out->history_bytes) &&
         ReadPipelineStats(reader, &out->pipeline_stats);
}

void AppendFlightLog(std::string& out, const obs::FlightLog& log) {
  AppendU64(out, log.events.size());
  for (const obs::FlightEvent& event : log.events) {
    AppendU64(out, event.node);
    AppendU32(out, event.actor);
    out.push_back(static_cast<char>(event.kind));
    AppendU64(out, event.start_us);
    AppendU64(out, event.end_us);
  }
  AppendU64(out, log.total_recorded);
  AppendU64(out, log.dropped);
}

bool ReadFlightLog(ByteReader& reader, obs::FlightLog* out) {
  uint64_t count = 0;
  if (!ReadCount(reader, 29, &count)) return false;
  out->events.resize(count);
  for (obs::FlightEvent& event : out->events) {
    std::string_view kind;
    if (!reader.ReadU64(&event.node) || !reader.ReadU32(&event.actor) ||
        !reader.ReadBytes(1, &kind) || !reader.ReadU64(&event.start_us) ||
        !reader.ReadU64(&event.end_us)) {
      return false;
    }
    // 1 is a retired kind (never reused, see obs::FlightEventKind).
    uint8_t raw = static_cast<uint8_t>(kind[0]);
    if (raw == 1 || raw > static_cast<uint8_t>(obs::FlightEventKind::kError)) {
      return false;
    }
    event.kind = static_cast<obs::FlightEventKind>(raw);
  }
  return reader.ReadU64(&out->total_recorded) &&
         reader.ReadU64(&out->dropped);
}

void AppendProgress(std::string& out, const obs::ProgressSnapshot& s) {
  AppendU64(out, s.total_steps);
  AppendU64(out, s.unique_queries);
  AppendU64(out, s.charged_queries);
  AppendU64(out, s.sim_wall_us);
  AppendU32(out, s.walkers_reporting);
  AppendBool(out, s.has_estimate);
  AppendDouble(out, s.estimate);
  AppendDouble(out, s.std_error);
  AppendDouble(out, s.ci_half_width);
  AppendDouble(out, s.confidence);
  AppendDouble(out, s.ess);
  AppendDouble(out, s.r_hat);
  AppendU64(out, s.num_batches);
  AppendBool(out, s.stop_requested);
  AppendU64(out, s.walkers.size());
  for (const obs::WalkerProgress& w : s.walkers) {
    AppendU64(out, w.steps);
    AppendU64(out, w.unique_queries);
    AppendBool(out, w.has_estimate);
    AppendDouble(out, w.estimate);
    AppendDouble(out, w.ess);
  }
}

bool ReadProgress(ByteReader& reader, obs::ProgressSnapshot* out) {
  if (!reader.ReadU64(&out->total_steps) ||
      !reader.ReadU64(&out->unique_queries) ||
      !reader.ReadU64(&out->charged_queries) ||
      !reader.ReadU64(&out->sim_wall_us) ||
      !reader.ReadU32(&out->walkers_reporting) ||
      !ReadBool(reader, &out->has_estimate) ||
      !ReadDouble(reader, &out->estimate) ||
      !ReadDouble(reader, &out->std_error) ||
      !ReadDouble(reader, &out->ci_half_width) ||
      !ReadDouble(reader, &out->confidence) ||
      !ReadDouble(reader, &out->ess) || !ReadDouble(reader, &out->r_hat) ||
      !reader.ReadU64(&out->num_batches) ||
      !ReadBool(reader, &out->stop_requested)) {
    return false;
  }
  uint64_t count = 0;
  if (!ReadCount(reader, 33, &count)) return false;
  out->walkers.resize(count);
  for (obs::WalkerProgress& w : out->walkers) {
    if (!reader.ReadU64(&w.steps) || !reader.ReadU64(&w.unique_queries) ||
        !ReadBool(reader, &w.has_estimate) ||
        !ReadDouble(reader, &w.estimate) || !ReadDouble(reader, &w.ess)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string_view MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "hello";
    case MsgType::kHelloOk: return "hello_ok";
    case MsgType::kSubmit: return "submit";
    case MsgType::kSubmitOk: return "submit_ok";
    case MsgType::kPoll: return "poll";
    case MsgType::kPollOk: return "poll_ok";
    case MsgType::kWait: return "wait";
    case MsgType::kReportOk: return "report_ok";
    case MsgType::kReport: return "report";
    case MsgType::kCancel: return "cancel";
    case MsgType::kCancelOk: return "cancel_ok";
    case MsgType::kProgress: return "progress";
    case MsgType::kProgressOk: return "progress_ok";
    case MsgType::kError: return "error";
  }
  return "unknown";
}

void AppendString(std::string& out, std::string_view s) {
  AppendU32(out, static_cast<uint32_t>(s.size()));
  out += s;
}

void AppendDouble(std::string& out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

std::string EncodeHello(const HelloPayload& hello) {
  std::string out;
  AppendU32(out, hello.version);
  AppendString(out, hello.peer_name);
  return out;
}

util::Result<HelloPayload> DecodeHello(std::string_view payload) {
  ByteReader reader(payload);
  HelloPayload hello;
  if (!reader.ReadU32(&hello.version) ||
      !ReadString(reader, &hello.peer_name)) {
    return Malformed("hello");
  }
  return hello;
}

std::string EncodeStatusPayload(const util::Status& status) {
  std::string out;
  AppendStatus(out, status);
  return out;
}

util::Status DecodeStatusPayload(std::string_view payload, util::Status* out) {
  ByteReader reader(payload);
  if (!ReadStatus(reader, out)) return Malformed("status");
  return util::Status::Ok();
}

std::string EncodeSessionId(uint64_t session_id) {
  std::string out;
  AppendU64(out, session_id);
  return out;
}

util::Result<uint64_t> DecodeSessionId(std::string_view payload) {
  ByteReader reader(payload);
  uint64_t session_id = 0;
  if (!reader.ReadU64(&session_id)) return Malformed("session id");
  return session_id;
}

std::string EncodeRunState(api::RunState state) {
  std::string out;
  AppendU32(out, static_cast<uint32_t>(state));
  return out;
}

util::Result<api::RunState> DecodeRunState(std::string_view payload) {
  ByteReader reader(payload);
  uint32_t raw = 0;
  if (!reader.ReadU32(&raw) ||
      raw > static_cast<uint32_t>(api::RunState::kFailed)) {
    return Malformed("run state");
  }
  return static_cast<api::RunState>(raw);
}

util::Result<std::string> EncodeRunOptions(const api::RunOptions& options) {
  if (options.walker.type == core::WalkerType::kGnrw ||
      options.walker.grouping != nullptr) {
    return util::Status::InvalidArgument(
        "GNRW walkers cannot run remotely: a grouping is a live pointer "
        "and has no wire representation yet");
  }
  std::string out;
  AppendU32(out, static_cast<uint32_t>(options.walker.type));
  AppendString(out, options.walker.label);
  AppendU32(out, options.num_walkers);
  AppendU64(out, options.seed);
  AppendU64(out, options.max_steps);
  AppendU64(out, options.query_budget);
  AppendU64(out, options.tenant_query_budget);
  AppendU32(out, options.weight);
  AppendU32(out, options.progress_interval);
  AppendDouble(out, options.stop_at_ci_half_width);
  return out;
}

util::Result<api::RunOptions> DecodeRunOptions(std::string_view payload) {
  ByteReader reader(payload);
  api::RunOptions options;
  uint32_t walker_type = 0;
  if (!reader.ReadU32(&walker_type) ||
      walker_type > static_cast<uint32_t>(core::WalkerType::kGnrw) ||
      !ReadString(reader, &options.walker.label) ||
      !reader.ReadU32(&options.num_walkers) ||
      !reader.ReadU64(&options.seed) || !reader.ReadU64(&options.max_steps) ||
      !reader.ReadU64(&options.query_budget) ||
      !reader.ReadU64(&options.tenant_query_budget) ||
      !reader.ReadU32(&options.weight) ||
      !reader.ReadU32(&options.progress_interval) ||
      !ReadDouble(reader, &options.stop_at_ci_half_width)) {
    return Malformed("run options");
  }
  options.walker.type = static_cast<core::WalkerType>(walker_type);
  if (options.walker.type == core::WalkerType::kGnrw) {
    return util::Status::InvalidArgument("GNRW walkers cannot run remotely");
  }
  return options;
}

std::string EncodeRunReport(const api::RunReport& report) {
  std::string out;
  AppendEnsemble(out, report.ensemble);
  AppendU64(out, report.charged_queries);
  AppendTenantStats(out, report.tenant);
  AppendU64(out, report.sim_wall_us);
  AppendU64(out, report.latency_us);
  AppendFlightLog(out, report.flight);
  AppendBool(out, report.has_estimate);
  AppendDouble(out, report.estimate);
  AppendDouble(out, report.std_error);
  AppendDouble(out, report.ci_half_width);
  AppendDouble(out, report.confidence);
  AppendDouble(out, report.ess);
  AppendDouble(out, report.r_hat);
  AppendU64(out, report.num_batches);
  AppendBool(out, report.stopped_at_ci_target);
  AppendBool(out, report.has_progress);
  AppendProgress(out, report.progress);
  return out;
}

util::Result<api::RunReport> DecodeRunReport(std::string_view payload) {
  ByteReader reader(payload);
  api::RunReport report;
  if (!ReadEnsemble(reader, &report.ensemble) ||
      !reader.ReadU64(&report.charged_queries) ||
      !ReadTenantStats(reader, &report.tenant) ||
      !reader.ReadU64(&report.sim_wall_us) ||
      !reader.ReadU64(&report.latency_us) ||
      !ReadFlightLog(reader, &report.flight) ||
      !ReadBool(reader, &report.has_estimate) ||
      !ReadDouble(reader, &report.estimate) ||
      !ReadDouble(reader, &report.std_error) ||
      !ReadDouble(reader, &report.ci_half_width) ||
      !ReadDouble(reader, &report.confidence) ||
      !ReadDouble(reader, &report.ess) ||
      !ReadDouble(reader, &report.r_hat) ||
      !reader.ReadU64(&report.num_batches) ||
      !ReadBool(reader, &report.stopped_at_ci_target) ||
      !ReadBool(reader, &report.has_progress) ||
      !ReadProgress(reader, &report.progress)) {
    return Malformed("run report");
  }
  return report;
}

std::string EncodeProgressSnapshot(const obs::ProgressSnapshot& snapshot) {
  std::string out;
  AppendProgress(out, snapshot);
  return out;
}

util::Result<obs::ProgressSnapshot> DecodeProgressSnapshot(
    std::string_view payload) {
  ByteReader reader(payload);
  obs::ProgressSnapshot snapshot;
  if (!ReadProgress(reader, &snapshot)) return Malformed("progress");
  return snapshot;
}

}  // namespace histwalk::rpc
