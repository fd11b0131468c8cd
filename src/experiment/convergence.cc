#include "experiment/convergence.h"

#include <filesystem>

#include "api/sampler.h"
#include "util/random.h"

namespace histwalk::experiment {
namespace {

struct MeasuredRun {
  uint64_t steps = 0;  // total across the ensemble
  uint64_t charged_queries = 0;
  uint64_t sim_wall_us = 0;
  double achieved_ci = 0.0;
  bool hit_target = false;
};

}  // namespace

ConvergenceResult RunConvergence(const Dataset& dataset,
                                 const ConvergenceConfig& config) {
  HW_CHECK(!config.ci_targets.empty());
  HW_CHECK(config.trials > 0);
  HW_CHECK(config.warmup_steps > 0);
  HW_CHECK(config.max_steps > 0);

  ConvergenceResult result;
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
                     ("histwalk_convergence_" + std::to_string(config.seed) +
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

  // One adaptive-stop measurement crawl: the walkers run until the online
  // CI half-width crosses `target` (or the max_steps safety cap), over
  // whatever cache state the builder arranged (cold or warm-started).
  auto measure = [&](api::SamplerBuilder builder, double target,
                     uint64_t run_seed) {
    auto sampler = builder.Build();
    HW_CHECK_MSG(sampler.ok(), "convergence sampler build failed");
    HW_CHECK_MSG((*sampler)->warm_start_status().ok(),
                 "convergence snapshot load failed");
    api::RunOptions run_options = (*sampler)->default_run_options();
    run_options.seed = run_seed;
    run_options.max_steps = config.max_steps;
    run_options.progress_interval = config.progress_interval;
    run_options.stop_at_ci_half_width = target;
    auto handle = (*sampler)->Run(run_options);
    HW_CHECK_MSG(handle.ok(), "convergence run failed");
    auto run = handle->Wait();
    HW_CHECK_MSG(run.ok(), "convergence run failed");
    MeasuredRun measured;
    for (const auto& trace : run->ensemble.traces) {
      measured.steps += trace.num_steps();
    }
    measured.charged_queries = run->charged_queries;
    measured.sim_wall_us = run->sim_wall_us;
    measured.achieved_ci = run->ci_half_width;
    measured.hit_target = run->stopped_at_ci_target;
    return measured;
  };

  result.points.resize(config.ci_targets.size());
  for (size_t p = 0; p < config.ci_targets.size(); ++p) {
    result.points[p].ci_target = config.ci_targets[p];
  }

  for (uint32_t trial = 0; trial < config.trials; ++trial) {
    // ---- phase 1: warm-up crawl, persisted through the store ------------
    net::LatencyModelOptions latency = config.latency;
    latency.seed = util::SubSeed(config.seed, 0x6b21 + trial);
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
                                                           0x19d3 + trial),
                                     .max_steps = config.warmup_steps});
      HW_CHECK_MSG(handle.ok() && handle->Wait().ok(), "warm-up crawl failed");
      HW_CHECK_MSG((*sampler)->SaveHistory().ok(),
                   "convergence snapshot write failed");
      result.snapshot_entries =
          (*sampler)->service()->shared_cache().stats().entries;
      std::error_code ec;
      const auto file_bytes = std::filesystem::file_size(snapshot_path, ec);
      result.snapshot_file_bytes = ec ? 0 : file_bytes;
    }

    // ---- phase 2: race to the CI target, cold vs warm -------------------
    const uint64_t task_seed = util::SubSeed(config.seed, 0x4e8f + trial);
    for (size_t p = 0; p < config.ci_targets.size(); ++p) {
      const double target = config.ci_targets[p];
      ConvergencePoint& point = result.points[p];

      MeasuredRun cold = measure(base_builder(latency), target, task_seed);
      MeasuredRun warm = measure(
          base_builder(latency).WithHistoryStore(store::HistoryStoreOptions{
              .snapshot_path = snapshot_path, .checkpoint_wal_bytes = 0}),
          target, task_seed);

      point.cold_steps += static_cast<double>(cold.steps);
      point.warm_steps += static_cast<double>(warm.steps);
      point.cold_charged_queries += static_cast<double>(cold.charged_queries);
      point.warm_charged_queries += static_cast<double>(warm.charged_queries);
      point.cold_sim_wall_seconds += cold.sim_wall_us / 1e6;
      point.warm_sim_wall_seconds += warm.sim_wall_us / 1e6;
      point.cold_achieved_ci += cold.achieved_ci;
      point.warm_achieved_ci += warm.achieved_ci;
      if (cold.hit_target) point.cold_hit_fraction += 1.0;
      if (warm.hit_target) point.warm_hit_fraction += 1.0;
    }
  }

  const double trials = static_cast<double>(config.trials);
  for (ConvergencePoint& point : result.points) {
    point.cold_steps /= trials;
    point.warm_steps /= trials;
    point.cold_charged_queries /= trials;
    point.warm_charged_queries /= trials;
    point.cold_sim_wall_seconds /= trials;
    point.warm_sim_wall_seconds /= trials;
    point.cold_achieved_ci /= trials;
    point.warm_achieved_ci /= trials;
    point.cold_hit_fraction /= trials;
    point.warm_hit_fraction /= trials;
    point.charged_savings =
        point.cold_charged_queries > 0.0
            ? 1.0 - point.warm_charged_queries / point.cold_charged_queries
            : 0.0;
  }
  return result;
}

util::TextTable ConvergenceTable(const ConvergenceResult& result) {
  util::TextTable table({"target_ci", "steps_cold", "steps_warm",
                         "charged_cold", "charged_warm", "saved",
                         "wall_cold_s", "wall_warm_s", "ci_cold", "ci_warm",
                         "hit_cold", "hit_warm"});
  for (const ConvergencePoint& point : result.points) {
    table.AddRow({util::TextTable::Cell(point.ci_target),
                  util::TextTable::Cell(point.cold_steps, 6),
                  util::TextTable::Cell(point.warm_steps, 6),
                  util::TextTable::Cell(point.cold_charged_queries, 6),
                  util::TextTable::Cell(point.warm_charged_queries, 6),
                  util::TextTable::Cell(point.charged_savings),
                  util::TextTable::Cell(point.cold_sim_wall_seconds),
                  util::TextTable::Cell(point.warm_sim_wall_seconds),
                  util::TextTable::Cell(point.cold_achieved_ci),
                  util::TextTable::Cell(point.warm_achieved_ci),
                  util::TextTable::Cell(point.cold_hit_fraction),
                  util::TextTable::Cell(point.warm_hit_fraction)});
  }
  return table;
}

}  // namespace histwalk::experiment
