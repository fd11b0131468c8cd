#include "experiment/warm_start.h"

#include <filesystem>

#include "api/sampler.h"
#include "metrics/divergence.h"
#include "util/random.h"

namespace histwalk::experiment {
namespace {

struct MeasuredRun {
  double relative_error = 0.0;
  bool has_error = false;
  uint64_t wire_requests = 0;
  uint64_t charged_queries = 0;
  uint64_t sim_wall_us = 0;
};

}  // namespace

WarmStartResult RunWarmStart(const Dataset& dataset,
                             const WarmStartConfig& config) {
  HW_CHECK(!config.step_budgets.empty());
  HW_CHECK(config.trials > 0);
  HW_CHECK(config.warmup_steps > 0);

  WarmStartResult result;
  result.dataset_name = dataset.name;
  result.walker_name = config.walker.DisplayName();
  result.estimand_name = config.estimand.DisplayName();

  if (!config.estimand.attribute.empty()) {
    auto found = dataset.attributes.Find(config.estimand.attribute);
    HW_CHECK_MSG(found.ok(), "estimand attribute missing from dataset");
    result.ground_truth = dataset.attributes.Mean(*found);
  } else {
    result.ground_truth = dataset.graph.AverageDegree();
  }

  std::string snapshot_path = config.snapshot_path;
  if (snapshot_path.empty()) {
    snapshot_path = (std::filesystem::temp_directory_path() /
                     ("histwalk_warm_start_" + std::to_string(config.seed) +
                      ".hwss"))
                        .string();
  }

  // The pipelined crawl stack both phases share; only the store options
  // (absent / save-only / warm-start) and seeds differ per use.
  auto base_builder = [&](const net::LatencyModelOptions& latency) {
    api::SamplerBuilder builder;
    builder.OverGraph(&dataset.graph, &dataset.attributes)
        .WithRemoteWire(latency)
        .WithCache({.num_shards = config.cache_shards})
        .RunPipelined(
            {.depth = config.pipeline_depth, .max_batch = config.max_batch})
        .WithWalker(config.walker)
        .WithEnsemble(config.ensemble_size, /*seed=*/1)
        .StopAfterSteps(config.warmup_steps);
    if (config.estimand.attribute.empty()) {
      builder.EstimateAverageDegree();
    } else {
      builder.EstimateAttributeMean(config.estimand.attribute);
    }
    if (config.registry != nullptr) {
      builder.WithObservability({.registry = config.registry});
    }
    return builder;
  };

  // Runs one phase-2 measurement crawl over a freshly built sampler whose
  // cache is in whatever state the builder arranged (cold or warm-started
  // from the snapshot).
  auto measure = [&](api::SamplerBuilder builder, uint64_t steps,
                     uint64_t run_seed) {
    auto sampler = builder.Build();
    HW_CHECK_MSG(sampler.ok(), "warm-start sampler build failed");
    HW_CHECK_MSG((*sampler)->warm_start_status().ok(),
                 "warm-start snapshot load failed");
    api::RunOptions run_options = (*sampler)->default_run_options();
    run_options.seed = run_seed;
    run_options.max_steps = steps;
    auto handle = (*sampler)->Run(run_options);
    HW_CHECK_MSG(handle.ok(), "warm-start ensemble run failed");
    auto run = handle->Wait();
    HW_CHECK_MSG(run.ok(), "warm-start ensemble run failed");
    MeasuredRun measured;
    if (run->has_estimate) {
      measured.relative_error =
          metrics::RelativeError(run->estimate, result.ground_truth);
      measured.has_error = true;
    }
    measured.wire_requests = run->ensemble.pipeline_stats.wire_requests;
    measured.charged_queries = run->charged_queries;
    measured.sim_wall_us = run->sim_wall_us;
    return measured;
  };

  result.points.resize(config.step_budgets.size());
  for (size_t p = 0; p < config.step_budgets.size(); ++p) {
    result.points[p].steps_per_walker = config.step_budgets[p];
  }

  for (uint32_t trial = 0; trial < config.trials; ++trial) {
    // ---- phase 1: warm-up crawl, persisted through the store ------------
    net::LatencyModelOptions latency = config.latency;
    latency.seed = util::SubSeed(config.seed, 0x3a7d + trial);
    latency.max_in_flight = config.pipeline_depth;
    {
      auto warmup = base_builder(latency).WithHistoryStore(
          store::HistoryStoreOptions{
              .snapshot_path = snapshot_path,
              // Save-only: the warm-up crawl is always cold, even when an
              // earlier trial already wrote the snapshot it overwrites.
              .load_snapshot = false,
              .checkpoint_wal_bytes = 0});
      auto sampler = warmup.Build();
      HW_CHECK_MSG(sampler.ok(), "warm-up sampler build failed");
      auto handle = (*sampler)->Run({.walker = config.walker,
                                     .num_walkers = config.ensemble_size,
                                     .seed = util::SubSeed(config.seed,
                                                           0x77a1 + trial),
                                     .max_steps = config.warmup_steps});
      HW_CHECK_MSG(handle.ok() && handle->Wait().ok(), "warm-up crawl failed");
      HW_CHECK_MSG((*sampler)->SaveHistory().ok(),
                   "warm-start snapshot write failed");
      result.snapshot_entries =
          (*sampler)->service()->shared_cache().stats().entries;
      std::error_code ec;
      const auto file_bytes = std::filesystem::file_size(snapshot_path, ec);
      result.snapshot_file_bytes = ec ? 0 : file_bytes;
    }

    // ---- phase 2: the second task, cold vs warm -------------------------
    const uint64_t task_seed = util::SubSeed(config.seed, 0x52c9 + trial);
    for (size_t p = 0; p < config.step_budgets.size(); ++p) {
      const uint64_t steps = config.step_budgets[p];
      WarmStartPoint& point = result.points[p];

      MeasuredRun cold = measure(base_builder(latency), steps, task_seed);
      MeasuredRun warm = measure(
          base_builder(latency).WithHistoryStore(store::HistoryStoreOptions{
              .snapshot_path = snapshot_path, .checkpoint_wal_bytes = 0}),
          steps, task_seed);

      if (cold.has_error) point.cold_relative_error += cold.relative_error;
      if (warm.has_error) point.warm_relative_error += warm.relative_error;
      point.cold_wire_requests += static_cast<double>(cold.wire_requests);
      point.warm_wire_requests += static_cast<double>(warm.wire_requests);
      point.cold_charged_queries +=
          static_cast<double>(cold.charged_queries);
      point.warm_charged_queries +=
          static_cast<double>(warm.charged_queries);
      point.cold_sim_wall_seconds =
          point.cold_sim_wall_seconds + cold.sim_wall_us / 1e6;
      point.warm_sim_wall_seconds =
          point.warm_sim_wall_seconds + warm.sim_wall_us / 1e6;
    }
  }

  const double trials = static_cast<double>(config.trials);
  for (WarmStartPoint& point : result.points) {
    point.cold_relative_error /= trials;
    point.warm_relative_error /= trials;
    point.cold_wire_requests /= trials;
    point.warm_wire_requests /= trials;
    point.cold_charged_queries /= trials;
    point.warm_charged_queries /= trials;
    point.cold_sim_wall_seconds /= trials;
    point.warm_sim_wall_seconds /= trials;
    point.wire_savings =
        point.cold_wire_requests > 0.0
            ? 1.0 - point.warm_wire_requests / point.cold_wire_requests
            : 0.0;
  }
  return result;
}

util::TextTable WarmStartTable(const WarmStartResult& result) {
  util::TextTable table({"steps", "err_cold", "err_warm", "wire_cold",
                         "wire_warm", "saved", "charged_cold", "charged_warm",
                         "wall_cold_s", "wall_warm_s"});
  for (const WarmStartPoint& point : result.points) {
    table.AddRow({util::TextTable::Cell(uint64_t{point.steps_per_walker}),
                  util::TextTable::Cell(point.cold_relative_error),
                  util::TextTable::Cell(point.warm_relative_error),
                  util::TextTable::Cell(point.cold_wire_requests, 6),
                  util::TextTable::Cell(point.warm_wire_requests, 6),
                  util::TextTable::Cell(point.wire_savings),
                  util::TextTable::Cell(point.cold_charged_queries, 6),
                  util::TextTable::Cell(point.warm_charged_queries, 6),
                  util::TextTable::Cell(point.cold_sim_wall_seconds),
                  util::TextTable::Cell(point.warm_sim_wall_seconds)});
  }
  return table;
}

}  // namespace histwalk::experiment
