#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/sampler.h"
#include "graph/builder.h"
#include "graph/generators.h"
#include "json_writer.h"
#include "obs/profiler.h"
#include "provenance.h"
#include "rpc/server.h"
#include "timing_backend.h"
#include "util/md5.h"
#include "util/random.h"

namespace histwalk::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

uint64_t NsSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// Workload sizes. Full sizes keep one round at a few seconds on a 4-core
// machine; quick sizes only exercise the schema and the gate.
struct Sizes {
  // hot_walk: warm CNRW ensemble, one walker per thread.
  uint32_t hot_nodes;
  uint32_t hot_walkers;
  uint64_t hot_warmup_steps;  // per walker; covers most of the graph
  uint64_t hot_steps;
  // cold_crawl: one CNRW walker, cache capacity below its visited set.
  uint32_t cold_nodes;
  uint64_t cold_steps;
  uint64_t cold_capacity;
  // tenant_mix: closed-loop clients, each submitting one-walker sessions.
  uint32_t mix_nodes;
  uint32_t mix_clients;
  uint32_t mix_sessions;  // per client
  uint64_t mix_steps;
};

constexpr Sizes kFullSizes{.hot_nodes = 50'000,
                           .hot_walkers = 4,
                           .hot_warmup_steps = 100'000,
                           .hot_steps = 400'000,
                           .cold_nodes = 200'000,
                           .cold_steps = 150'000,
                           .cold_capacity = 32'768,
                           .mix_nodes = 100'000,
                           .mix_clients = 2,
                           .mix_sessions = 50,
                           .mix_steps = 5'000};

constexpr Sizes kQuickSizes{.hot_nodes = 4'000,
                            .hot_walkers = 4,
                            .hot_warmup_steps = 5'000,
                            .hot_steps = 20'000,
                            .cold_nodes = 8'000,
                            .cold_steps = 20'000,
                            .cold_capacity = 2'048,
                            .mix_nodes = 4'000,
                            .mix_clients = 2,
                            .mix_sessions = 8,
                            .mix_steps = 1'000};

// Process CPU time (all threads, user + system) and context switches,
// sampled around a timed phase: how much of its wall time the stack spent
// running rather than waiting to be scheduled.
struct CpuUsage {
  uint64_t cpu_ns = 0;
  uint64_t context_switches = 0;

  static CpuUsage Now() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ns = [](const timeval& tv) {
      return static_cast<uint64_t>(tv.tv_sec) * 1'000'000'000 +
             static_cast<uint64_t>(tv.tv_usec) * 1'000;
    };
    return {.cpu_ns = ns(usage.ru_utime) + ns(usage.ru_stime),
            .context_switches = static_cast<uint64_t>(usage.ru_nvcsw +
                                                      usage.ru_nivcsw)};
  }

  std::string JsonSince(const CpuUsage& start) const {
    return JsonObject()
        .Uint("cpu_ns", cpu_ns - start.cpu_ns)
        .Uint("context_switches", context_switches - start.context_switches)
        .str();
  }
};

// Sub-seed streams of the workload seed.
enum SeedStream : uint64_t {
  kGraphStream = 1,
  kWalkStream = 2,
  kWarmupStream = 3,
  kWireStream = 4,
  kSessionStream = 5,
};

// Backend-call samples kept per traced round (enough for every fetch of
// the full-size workloads).
constexpr size_t kMaxFetchSamples = size_t{1} << 20;

// Per-client sessions start at staggered offsets into one shared seed
// sequence: client c runs indices [c * stride, c * stride + sessions), so
// consecutive clients repeat half of each other's walks and the tenants
// share history.
uint32_t SessionStride(const Sizes& z) { return z.mix_sessions / 2; }

uint64_t SessionSeed(uint64_t seed, uint32_t index) {
  return util::SubSeed(util::SubSeed(seed, kSessionStream), index);
}

struct Context {
  const BenchConfig* config;
  Sizes sizes;
  uint64_t seed;
};

graph::Graph MakeGraph(uint32_t nodes, uint64_t seed) {
  util::Random rng(util::SubSeed(seed, kGraphStream));
  graph::SocialSurrogateParams params;
  params.num_nodes = nodes;
  return graph::LargestComponent(graph::MakeSocialSurrogate(params, rng));
}

net::LatencyModelOptions Wire(uint64_t seed) {
  net::LatencyModelOptions wire;
  wire.seed = util::SubSeed(seed, kWireStream);
  wire.base_latency_us = 1'000;
  wire.jitter_us = 500;
  wire.per_item_us = 100;
  return wire;
}

core::WalkerSpec Cnrw() {
  core::WalkerSpec spec;
  spec.type = core::WalkerType::kCnrw;
  return spec;
}

api::RunOptions Walk(uint32_t walkers, uint64_t seed, uint64_t steps) {
  api::RunOptions options;
  options.walker = Cnrw();
  options.num_walkers = walkers;
  options.seed = seed;
  options.max_steps = steps;
  return options;
}

// md5 of the merged (nodes, degrees) trace: what "the same walk" means.
std::string TraceDigest(const estimate::EnsembleResult& ensemble) {
  const estimate::MergedSamples merged = ensemble.Merged();
  std::string bytes;
  bytes.append(reinterpret_cast<const char*>(merged.nodes.data()),
               merged.nodes.size() * sizeof(graph::NodeId));
  bytes.append(reinterpret_cast<const char*>(merged.degrees.data()),
               merged.degrees.size() * sizeof(uint32_t));
  return util::Md5Hex(bytes);
}

// A timed Run() + Wait() through the api facade.
struct TimedRun {
  util::Result<api::RunReport> report = util::Status::Internal("not run");
  uint64_t run_call_ns = 0;
  uint64_t wait_ns = 0;
  uint64_t total_ns = 0;
};

TimedRun RunAndWait(api::Sampler& sampler, const api::RunOptions& options) {
  TimedRun out;
  const auto start = Clock::now();
  util::Result<api::RunHandle> handle = sampler.Run(options);
  out.run_call_ns = NsSince(start);
  if (!handle.ok()) {
    out.report = handle.status();
  } else {
    const auto wait_start = Clock::now();
    out.report = handle->Wait();
    out.wait_ns = NsSince(wait_start);
  }
  out.total_ns = NsSince(start);
  return out;
}

std::string CacheJson(const access::HistoryCacheStats& s) {
  return JsonObject()
      .Uint("hits", s.hits)
      .Uint("misses", s.misses)
      .Uint("insertions", s.insertions)
      .Uint("evictions", s.evictions)
      .str();
}

std::string PipelineJson(const net::RequestPipelineStats& s) {
  return JsonObject()
      .Uint("wire_requests", s.wire_requests)
      .Uint("wire_items", s.wire_items)
      .Uint("dedup_joins", s.dedup_joins)
      .Uint("late_hits", s.late_hits)
      .Uint("max_queue_depth", s.max_queue_depth)
      .str();
}

std::string WireJson(const net::RemoteBackend* remote) {
  net::RemoteBackendStats s;
  if (remote != nullptr) s = remote->stats();
  return JsonObject().Uint("requests", s.requests).Uint("items", s.items).str();
}

std::string BackendJson(const TimingBackend& timing) {
  std::vector<uint64_t> ns = timing.DurationsNs();
  uint64_t p50 = 0;
  if (!ns.empty()) {
    std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
    p50 = ns[ns.size() / 2];
  }
  return JsonObject()
      .Uint("calls", timing.calls())
      .Uint("items", timing.items())
      .Uint("p50_ns", p50)
      .str();
}

// Wall-clock profiler window over a traced round's timed phase: turns the
// process profiler on, and reports each HW_PROF_SCOPE site's self time
// accumulated inside the window.
class ProfilerWindow {
 public:
  explicit ProfilerWindow(bool enabled) : enabled_(enabled) {
    obs::Profiler::Global().set_enabled(enabled_);
    if (enabled_) before_ = SelfNs();
  }
  ~ProfilerWindow() { obs::Profiler::Global().set_enabled(false); }
  ProfilerWindow(const ProfilerWindow&) = delete;
  ProfilerWindow& operator=(const ProfilerWindow&) = delete;

  // Call when the timed phase ends; an empty object when disabled.
  std::string Close() {
    JsonObject out;
    if (!enabled_) return out.str();
    obs::Profiler::Global().set_enabled(false);
    for (const auto& [site, self_ns] : SelfNs()) {
      out.Uint(site, self_ns - before_[site]);
    }
    return out.str();
  }

 private:
  static std::map<std::string, uint64_t> SelfNs() {
    std::map<std::string, uint64_t> out;
    for (const auto& site : obs::Profiler::Global().Snapshot()) {
      out[site.name] = site.self_ns;
    }
    return out;
  }

  bool enabled_;
  std::map<std::string, uint64_t> before_;
};

// ---- hot_walk ---------------------------------------------------------
//
// Inline mode, in-memory backend, no wire and no store: a CNRW ensemble of
// one walker per thread re-walks a graph whose history an untimed warm-up
// on the same Sampler already cached, so the timed run is almost all cache
// hits under reader contention.
util::Result<JsonObject> HotWalkRound(const Context& ctx, bool traced) {
  const Sizes& z = ctx.sizes;
  const auto setup_start = Clock::now();
  const graph::Graph graph = MakeGraph(z.hot_nodes, ctx.seed);
  access::GraphAccess graph_access(&graph, nullptr);
  TimingBackend timing(&graph_access, traced ? kMaxFetchSamples : 0);

  api::SamplerBuilder builder;
  if (traced) {
    builder.OverBackend(&timing);
  } else {
    builder.OverGraph(&graph);
  }
  builder.RunInline(z.hot_walkers).EstimateAverageDegree();
  const auto build_start = Clock::now();
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> sampler, builder.Build());
  const uint64_t build_ns = NsSince(build_start);

  uint64_t warmup_charged = 0;
  {
    TimedRun warmup = RunAndWait(
        *sampler, Walk(z.hot_walkers, util::SubSeed(ctx.seed, kWarmupStream),
                       z.hot_warmup_steps));
    if (!warmup.report.ok()) return warmup.report.status();
    warmup_charged = warmup.report->charged_queries;
  }
  const uint64_t setup_ns = NsSince(setup_start);

  ProfilerWindow profiler(traced);
  const CpuUsage cpu_start = CpuUsage::Now();
  TimedRun timed = RunAndWait(
      *sampler,
      Walk(z.hot_walkers, util::SubSeed(ctx.seed, kWalkStream), z.hot_steps));
  const std::string cpu = CpuUsage::Now().JsonSince(cpu_start);
  std::string prof = profiler.Close();
  if (!timed.report.ok()) return timed.report.status();
  const api::RunReport& report = *timed.report;

  return JsonObject()
      .Bool("traced", traced)
      .Uint("setup_ns", setup_ns)
      .Uint("build_ns", build_ns)
      .Uint("timed_ns", timed.total_ns)
      .Uint("run_call_ns", timed.run_call_ns)
      .Uint("wait_ns", timed.wait_ns)
      .Uint("attempted", 2)
      .Uint("failed", 0)
      .Uint("steps", report.ensemble.num_steps())
      .Uint("charged_queries", warmup_charged + report.charged_queries)
      .Uint("sim_wall_us", 0)
      .String("digest", TraceDigest(report.ensemble))
      .Double("estimate", report.estimate)
      .Raw("cache", CacheJson(report.ensemble.cache_stats))
      .Uint("lookups", report.ensemble.summed_stats.total_queries)
      .Raw("pipeline", PipelineJson(report.ensemble.pipeline_stats))
      .Raw("wire", WireJson(nullptr))
      .Raw("backend", BackendJson(timing))
      .Raw("cpu", cpu)
      .Raw("prof", prof);
}

// ---- cold_crawl -------------------------------------------------------
//
// The paper's single-walk setting: one CNRW walker, pipelined at depth 1
// over the simulated wire, from a cold cache bounded below the walk's
// visited set, journaling every fetch to a WAL.
util::Result<JsonObject> ColdCrawlRound(const Context& ctx, bool traced) {
  const Sizes& z = ctx.sizes;
  const std::filesystem::path dir =
      std::filesystem::path(ctx.config->scratch_dir) / "store";
  std::filesystem::create_directories(dir);

  const auto setup_start = Clock::now();
  const graph::Graph graph = MakeGraph(z.cold_nodes, ctx.seed);
  access::GraphAccess graph_access(&graph, nullptr);
  TimingBackend timing(&graph_access, traced ? kMaxFetchSamples : 0);

  store::HistoryStoreOptions store;
  store.snapshot_path = (dir / "history.hwss").string();
  store.wal_path = (dir / "history.wal").string();
  // No automatic fold: the WAL keeps every record (so bytes per record is
  // exact) and no checkpoint thread competes for a core.
  store.checkpoint_wal_bytes = 0;
  store.num_threads = 1;

  access::HistoryCacheOptions cache;
  cache.capacity = z.cold_capacity;
  net::RequestPipelineOptions pipeline;
  pipeline.depth = 1;

  api::SamplerBuilder builder;
  if (traced) {
    builder.OverBackend(&timing);
  } else {
    builder.OverGraph(&graph);
  }
  builder.WithRemoteWire(Wire(ctx.seed))
      .WithCache(cache)
      .WithHistoryStore(store)
      .RunPipelined(pipeline)
      .EstimateAverageDegree();
  const auto build_start = Clock::now();
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> sampler, builder.Build());
  const uint64_t build_ns = NsSince(build_start);
  const uint64_t setup_ns = NsSince(setup_start);

  ProfilerWindow profiler(traced);
  const CpuUsage cpu_start = CpuUsage::Now();
  TimedRun timed = RunAndWait(
      *sampler, Walk(1, util::SubSeed(ctx.seed, kWalkStream), z.cold_steps));
  const std::string cpu = CpuUsage::Now().JsonSince(cpu_start);
  std::string prof = profiler.Close();
  if (!timed.report.ok()) return timed.report.status();
  const api::RunReport& report = *timed.report;

  // Read before the traced SaveHistory, which folds and truncates the WAL.
  const store::HistoryStoreStats store_stats =
      sampler->history_store()->stats();
  uint64_t flush_ns = 0;
  if (traced) {
    const auto flush_start = Clock::now();
    HW_RETURN_IF_ERROR(sampler->SaveHistory());
    flush_ns = NsSince(flush_start);
  }
  const std::string wire = WireJson(sampler->remote());
  sampler.reset();
  std::filesystem::remove_all(dir);

  return JsonObject()
      .Bool("traced", traced)
      .Uint("setup_ns", setup_ns)
      .Uint("build_ns", build_ns)
      .Uint("timed_ns", timed.total_ns)
      .Uint("run_call_ns", timed.run_call_ns)
      .Uint("wait_ns", timed.wait_ns)
      .Uint("attempted", 1)
      .Uint("failed", 0)
      .Uint("steps", report.ensemble.num_steps())
      .Uint("charged_queries", report.charged_queries)
      .Uint("sim_wall_us", report.sim_wall_us)
      .String("digest", TraceDigest(report.ensemble))
      .Double("estimate", report.estimate)
      .Raw("cache", CacheJson(report.ensemble.cache_stats))
      .Uint("lookups", report.ensemble.summed_stats.total_queries)
      .Raw("pipeline", PipelineJson(report.ensemble.pipeline_stats))
      .Raw("wire", wire)
      .Raw("backend", BackendJson(timing))
      .Raw("store", JsonObject()
                        .Uint("appended_records", store_stats.appended_records)
                        .Uint("append_failures", store_stats.append_failures)
                        .Uint("wal_bytes", store_stats.wal_bytes)
                        .Uint("flush_ns", flush_ns)
                        .str())
      .Raw("cpu", cpu)
      .Raw("prof", prof);
}

// ---- tenant_mix -------------------------------------------------------
//
// Remote mode: an rpc::Server on 127.0.0.1 hosts a service-mode Sampler
// (simulated wire, one shared cache, cross-tenant dedup). Each client is
// its own connection and a closed loop: Submit, Wait, next session.

struct SessionRecord {
  uint32_t index = 0;
  bool ok = false;
  std::string error;
  uint64_t client_ns = 0;
  uint64_t run_call_ns = 0;
  uint64_t wait_ns = 0;
  uint64_t daemon_us = 0;  // RunReport::latency_us, on the service clock
  uint64_t steps = 0;
  uint64_t lookups = 0;
  std::string digest;
  double estimate = 0.0;
};

std::string SessionJson(const SessionRecord& s) {
  JsonObject out;
  out.Uint("index", s.index).Bool("ok", s.ok);
  if (!s.ok) return out.String("error", s.error).str();
  return out.Uint("client_ns", s.client_ns)
      .Uint("run_call_ns", s.run_call_ns)
      .Uint("wait_ns", s.wait_ns)
      .Uint("daemon_us", s.daemon_us)
      .Uint("steps", s.steps)
      .Uint("lookups", s.lookups)
      .String("digest", s.digest)
      .Double("estimate", s.estimate)
      .str();
}

// One closed-loop client per Sampler in `clients`; returns every session's
// record, client-major.
std::vector<SessionRecord> DriveClients(
    const Context& ctx, const std::vector<api::Sampler*>& clients) {
  const Sizes& z = ctx.sizes;
  std::vector<std::vector<SessionRecord>> per_client(clients.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (uint32_t i = 0; i < z.mix_sessions; ++i) {
        SessionRecord record;
        record.index = static_cast<uint32_t>(c) * SessionStride(z) + i;
        TimedRun run =
            RunAndWait(*clients[c], Walk(1, SessionSeed(ctx.seed, record.index),
                                         z.mix_steps));
        record.client_ns = run.total_ns;
        record.run_call_ns = run.run_call_ns;
        record.wait_ns = run.wait_ns;
        if (run.report.ok()) {
          record.ok = true;
          record.daemon_us = run.report->latency_us;
          record.steps = run.report->ensemble.num_steps();
          record.lookups = run.report->ensemble.summed_stats.total_queries;
          record.digest = TraceDigest(run.report->ensemble);
          record.estimate = run.report->estimate;
        } else {
          record.error = run.report.status().ToString();
        }
        per_client[c].push_back(std::move(record));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<SessionRecord> out;
  for (auto& records : per_client) {
    for (auto& r : records) out.push_back(std::move(r));
  }
  return out;
}

util::Result<std::unique_ptr<api::Sampler>> BuildService(
    const Context& ctx, const graph::Graph& graph,
    const access::AccessBackend* backend) {
  api::ServiceConfig service;
  service.max_sessions = 8;
  service.pipeline.depth = 2;
  service.pipeline.cross_tenant_dedup = true;
  api::SamplerBuilder builder;
  if (backend != nullptr) {
    builder.OverBackend(backend);
  } else {
    builder.OverGraph(&graph);
  }
  builder.WithRemoteWire(Wire(ctx.seed))
      .RunAsService(service)
      .EstimateAverageDegree();
  return builder.Build();
}

util::Result<JsonObject> TenantMixRound(const Context& ctx, bool traced) {
  const Sizes& z = ctx.sizes;
  const auto setup_start = Clock::now();
  const graph::Graph graph = MakeGraph(z.mix_nodes, ctx.seed);
  access::GraphAccess graph_access(&graph, nullptr);
  TimingBackend timing(&graph_access, traced ? kMaxFetchSamples : 0);

  const auto build_start = Clock::now();
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> daemon,
                      BuildService(ctx, graph, traced ? &timing : nullptr));
  const uint64_t build_ns = NsSince(build_start);
  rpc::ServerOptions server_options;
  server_options.max_inflight_requests = 2;
  HW_ASSIGN_OR_RETURN(std::unique_ptr<rpc::Server> server,
                      rpc::Server::Start(daemon.get(), server_options));
  const std::string endpoint = "127.0.0.1:" + std::to_string(server->port());
  std::vector<std::unique_ptr<api::Sampler>> clients;
  std::vector<api::Sampler*> client_ptrs;
  for (uint32_t c = 0; c < z.mix_clients; ++c) {
    HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> client,
                        api::SamplerBuilder()
                            .WithRemoteService(endpoint,
                                               /*rpc_timeout_ms=*/120'000)
                            .Build());
    client_ptrs.push_back(client.get());
    clients.push_back(std::move(client));
  }
  const uint64_t setup_ns = NsSince(setup_start);

  ProfilerWindow profiler(traced);
  const CpuUsage cpu_start = CpuUsage::Now();
  const auto timed_start = Clock::now();
  std::vector<SessionRecord> sessions = DriveClients(ctx, client_ptrs);
  const uint64_t timed_ns = NsSince(timed_start);
  const std::string cpu = CpuUsage::Now().JsonSince(cpu_start);
  std::string prof = profiler.Close();

  clients.clear();
  server->Shutdown();
  const rpc::ServerStats server_stats = server->stats();
  const service::ServiceStats service_stats = daemon->service()->stats();
  const std::string wire = WireJson(daemon->remote());
  const uint64_t sim_wall_us = daemon->sim_now_us();
  server.reset();
  daemon.reset();

  // Traced rounds also run the same sessions against a fresh service
  // in-process: the daemon-side real latency that RunReport::latency_us
  // (simulated service clock under a wire) cannot give, and the baseline
  // rpc.overhead_ms_p50 subtracts.
  std::vector<SessionRecord> direct;
  if (traced) {
    HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> in_process,
                        BuildService(ctx, graph, nullptr));
    std::vector<api::Sampler*> same(z.mix_clients, in_process.get());
    direct = DriveClients(ctx, same);
  }

  uint64_t steps = 0;
  uint64_t lookups = 0;
  uint64_t failed = 0;
  std::vector<std::string> session_json;
  for (const SessionRecord& s : sessions) {
    steps += s.steps;
    lookups += s.lookups;
    if (!s.ok) ++failed;
    session_json.push_back(SessionJson(s));
  }
  std::vector<std::string> direct_json;
  for (const SessionRecord& s : direct) direct_json.push_back(SessionJson(s));

  return JsonObject()
      .Bool("traced", traced)
      .Uint("setup_ns", setup_ns)
      .Uint("build_ns", build_ns)
      .Uint("timed_ns", timed_ns)
      .Uint("attempted", sessions.size())
      .Uint("failed", failed)
      .Uint("steps", steps)
      .Uint("charged_queries", service_stats.charged_queries)
      .Uint("sim_wall_us", sim_wall_us)
      .Raw("sessions", JsonArray(session_json))
      .Raw("direct_sessions", JsonArray(direct_json))
      .Raw("cache", CacheJson(service_stats.cache))
      .Uint("lookups", lookups)
      .Raw("pipeline", PipelineJson(service_stats.pipeline))
      .Raw("wire", wire)
      .Raw("backend", BackendJson(timing))
      .Raw("rpc", JsonObject()
                      .Uint("requests", server_stats.requests_total)
                      .Uint("protocol_errors", server_stats.protocol_errors)
                      .str())
      .Raw("service",
           JsonObject()
               .Uint("admission_refusals", service_stats.admission_refusals)
               .str())
      .Raw("cpu", cpu)
      .Raw("prof", prof);
}

// ---- reference walks ----------------------------------------------------
//
// The simplest path through the library — inline, one thread, unbounded
// cache, no wire, store, service or rpc — walking the same specs and
// seeds. The determinism contract says every workload's traces and
// estimates must equal these bit for bit.
util::Result<api::RunReport> ReferenceRun(const graph::Graph& graph,
                                          const api::RunOptions& options) {
  HW_ASSIGN_OR_RETURN(std::unique_ptr<api::Sampler> sampler,
                      api::SamplerBuilder()
                          .OverGraph(&graph)
                          .RunInline(1)
                          .EstimateAverageDegree()
                          .Build());
  TimedRun run = RunAndWait(*sampler, options);
  return std::move(run.report);
}

std::string WalkJson(const api::RunReport& report) {
  return JsonObject()
      .String("digest", TraceDigest(report.ensemble))
      .Double("estimate", report.estimate)
      .Uint("steps", report.ensemble.num_steps())
      .str();
}

util::Result<std::string> Reference(const Context& ctx) {
  const Sizes& z = ctx.sizes;
  JsonObject out;
  const std::string& w = ctx.config->workload;
  if (w == "hot_walk" || w == "cold_crawl") {
    const bool hot = w == "hot_walk";
    const graph::Graph graph =
        MakeGraph(hot ? z.hot_nodes : z.cold_nodes, ctx.seed);
    HW_ASSIGN_OR_RETURN(
        api::RunReport report,
        ReferenceRun(graph, Walk(hot ? z.hot_walkers : 1,
                                 util::SubSeed(ctx.seed, kWalkStream),
                                 hot ? z.hot_steps : z.cold_steps)));
    out.Raw("walk", WalkJson(report))
        .Double("true_average_degree", graph.AverageDegree())
        .Uint("graph_nodes", graph.num_nodes());
  } else {
    const graph::Graph graph = MakeGraph(z.mix_nodes, ctx.seed);
    const uint32_t indices =
        (z.mix_clients - 1) * SessionStride(z) + z.mix_sessions;
    std::vector<std::string> walks;
    for (uint32_t i = 0; i < indices; ++i) {
      HW_ASSIGN_OR_RETURN(
          api::RunReport report,
          ReferenceRun(graph, Walk(1, SessionSeed(ctx.seed, i), z.mix_steps)));
      walks.push_back(WalkJson(report));
    }
    out.Raw("sessions", JsonArray(walks))
        .Double("true_average_degree", graph.AverageDegree())
        .Uint("graph_nodes", graph.num_nodes());
  }
  return out.str();
}

}  // namespace

util::Result<std::string> RunWorkload(const BenchConfig& config) {
  Context ctx{.config = &config,
              .sizes = config.quick ? kQuickSizes : kFullSizes,
              .seed = config.seed};
  const std::string& w = config.workload;
  if (w != "hot_walk" && w != "cold_crawl" && w != "tenant_mix") {
    return util::Status::InvalidArgument("unknown workload: " + w);
  }
  JsonObject out;
  if (config.reference) {
    HW_ASSIGN_OR_RETURN(std::string reference, Reference(ctx));
    out.Raw("reference", reference);
  } else {
    util::Result<JsonObject> round = util::Status::Internal("no round");
    if (w == "hot_walk") {
      round = HotWalkRound(ctx, config.traced);
    } else if (w == "cold_crawl") {
      round = ColdCrawlRound(ctx, config.traced);
    } else {
      round = TenantMixRound(ctx, config.traced);
    }
    if (!round.ok()) return round.status();
    // One round per process, so the process peak is this round's peak.
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    out.Raw("round",
            round->Uint("peak_rss_kb", static_cast<uint64_t>(usage.ru_maxrss))
                .str());
  }
  return out
      .Raw("build", JsonObject()
                        .String("build_type", PERFBENCH_BUILD_TYPE)
                        .String("cxx_flags", PERFBENCH_CXX_FLAGS)
                        .String("compiler", PERFBENCH_COMPILER)
                        .str())
      .Uint("hardware_threads", std::thread::hardware_concurrency())
      .str();
}

}  // namespace histwalk::perfbench
