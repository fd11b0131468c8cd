#include <gtest/gtest.h>

#include <sstream>

#include "attr/synthesis.h"
#include "experiment/bias_curve.h"
#include "experiment/datasets.h"
#include "experiment/distribution_experiment.h"
#include "experiment/error_curve.h"
#include "experiment/latency_curve.h"
#include "experiment/report.h"
#include "graph/builder.h"
#include "graph/stats.h"

namespace histwalk::experiment {
namespace {

TEST(DatasetTest, ExactTopologiesMatchTable1) {
  Dataset clustered = BuildDataset(DatasetId::kClustered);
  EXPECT_EQ(clustered.graph.num_nodes(), 90u);
  EXPECT_EQ(clustered.graph.num_edges(), 1707u);

  Dataset barbell = BuildDataset(DatasetId::kBarbell);
  EXPECT_EQ(barbell.graph.num_nodes(), 100u);
  EXPECT_EQ(barbell.graph.num_edges(), 2451u);
}

TEST(DatasetTest, FacebookSurrogateMatchesTable1Regime) {
  Dataset fb = BuildDataset(DatasetId::kFacebook);
  // Paper: 775 nodes, avg degree 36.1, clustering 0.47. The surrogate must
  // land in the same regime (within ~25%).
  EXPECT_NEAR(static_cast<double>(fb.graph.num_nodes()), 775.0, 200.0);
  EXPECT_NEAR(fb.graph.AverageDegree(), 36.1, 10.0);
  util::Random rng(1);
  graph::GraphSummary summary = graph::Summarize(fb.graph, rng);
  EXPECT_GT(summary.average_clustering, 0.3);
  // Single component (walkable).
  EXPECT_EQ(graph::ConnectedComponents(fb.graph).num_components, 1u);
}

TEST(DatasetTest, DatasetsAreConnectedAndDeterministic) {
  for (DatasetId id :
       {DatasetId::kFacebook, DatasetId::kFacebook2, DatasetId::kClustered,
        DatasetId::kBarbell}) {
    Dataset a = BuildDataset(id, 99);
    Dataset b = BuildDataset(id, 99);
    EXPECT_EQ(a.graph.num_nodes(), b.graph.num_nodes()) << DatasetName(id);
    EXPECT_EQ(a.graph.num_edges(), b.graph.num_edges()) << DatasetName(id);
    EXPECT_EQ(graph::ConnectedComponents(a.graph).num_components, 1u)
        << DatasetName(id);
  }
}

TEST(DatasetTest, AttributesArePresentAndHomophilous) {
  Dataset fb = BuildDataset(DatasetId::kFacebook);
  auto age = fb.attributes.Find("age");
  ASSERT_TRUE(age.ok());
  EXPECT_GT(attr::EdgeValueCorrelation(fb.graph, fb.attributes.column(*age)),
            0.15);
}

TEST(DatasetTest, DatasetNamesAreStable) {
  EXPECT_EQ(DatasetName(DatasetId::kFacebook), "facebook");
  EXPECT_EQ(DatasetName(DatasetId::kGPlus), "gplus");
  EXPECT_EQ(AllDatasetIds().size(), 6u);
}

class SmallExperimentTest : public testing::Test {
 protected:
  SmallExperimentTest() : dataset_(BuildDataset(DatasetId::kClustered)) {}
  Dataset dataset_;
};

TEST_F(SmallExperimentTest, ErrorCurveShapesAndMonotonicity) {
  ErrorCurveConfig config;
  config.walkers = {{.type = core::WalkerType::kSrw},
                    {.type = core::WalkerType::kCnrw}};
  config.budgets = {10, 40, 80};
  config.instances = 150;
  config.seed = 5;
  ErrorCurveResult result = RunErrorCurve(dataset_, config);

  ASSERT_EQ(result.walker_names.size(), 2u);
  ASSERT_EQ(result.mean_relative_error.size(), 2u);
  ASSERT_EQ(result.mean_relative_error[0].size(), 3u);
  EXPECT_DOUBLE_EQ(result.ground_truth, dataset_.graph.AverageDegree());
  // More budget, less error (allowing small noise): compare the ends.
  for (size_t w = 0; w < 2; ++w) {
    EXPECT_LT(result.mean_relative_error[w][2],
              result.mean_relative_error[w][0] * 1.05)
        << result.walker_names[w];
  }
  // Errors are positive and bounded sanity.
  for (const auto& series : result.mean_relative_error) {
    for (double e : series) {
      EXPECT_GE(e, 0.0);
      EXPECT_LT(e, 2.0);
    }
  }
}

TEST_F(SmallExperimentTest, ErrorCurveAttributeEstimand) {
  ErrorCurveConfig config;
  config.walkers = {{.type = core::WalkerType::kSrw}};
  config.budgets = {20, 60};
  config.instances = 60;
  config.estimand.attribute = "age";
  ErrorCurveResult result = RunErrorCurve(dataset_, config);
  auto age = dataset_.attributes.Find("age");
  ASSERT_TRUE(age.ok());
  EXPECT_DOUBLE_EQ(result.ground_truth, dataset_.attributes.Mean(*age));
  EXPECT_EQ(result.estimand_name, "avg_age");
}

TEST_F(SmallExperimentTest, BiasCurveProducesAllThreeMeasures) {
  BiasCurveConfig config;
  config.walkers = {{.type = core::WalkerType::kSrw},
                    {.type = core::WalkerType::kCnrw}};
  config.budgets = {20, 60};
  config.instances = 400;
  BiasCurveResult result = RunBiasCurve(dataset_, config);
  ASSERT_EQ(result.kl_divergence.size(), 2u);
  ASSERT_EQ(result.l2_distance.size(), 2u);
  ASSERT_EQ(result.relative_error.size(), 2u);
  for (size_t w = 0; w < 2; ++w) {
    // Bias decreases with budget on this ill-formed graph.
    EXPECT_LT(result.kl_divergence[w][1], result.kl_divergence[w][0]);
    EXPECT_LT(result.l2_distance[w][1], result.l2_distance[w][0] * 1.05);
    for (double v : result.kl_divergence[w]) EXPECT_GE(v, 0.0);
  }
}

TEST_F(SmallExperimentTest, DistributionExperimentMatchesTheory) {
  DistributionConfig config;
  config.walkers = {{.type = core::WalkerType::kSrw},
                    {.type = core::WalkerType::kCnrw}};
  config.instances = 40;
  config.steps = 4000;
  config.num_bins = 8;
  DistributionResult result = RunDistributionExperiment(dataset_, config);
  ASSERT_EQ(result.empirical_binned.size(), 2u);
  ASSERT_EQ(result.theoretical_binned.size(), 8u);
  for (size_t w = 0; w < 2; ++w) {
    EXPECT_LT(result.total_variation[w], 0.07) << result.walker_names[w];
    for (size_t b = 0; b < 8; ++b) {
      EXPECT_NEAR(result.empirical_binned[w][b],
                  result.theoretical_binned[b],
                  0.3 * result.theoretical_binned[b] + 1e-4);
    }
  }
}

TEST_F(SmallExperimentTest, ReportTablesRender) {
  ErrorCurveConfig config;
  config.walkers = {{.type = core::WalkerType::kSrw}};
  config.budgets = {10, 20};
  config.instances = 20;
  ErrorCurveResult result = RunErrorCurve(dataset_, config);
  util::TextTable table = ErrorCurveTable(result);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_columns(), 2u);  // query_cost + SRW
  std::ostringstream os;
  EmitTable(table, "test title", "test_csv", os);
  EXPECT_NE(os.str().find("test title"), std::string::npos);
  EXPECT_NE(os.str().find("query_cost"), std::string::npos);
}

TEST_F(SmallExperimentTest, LatencyCurveWallClockFallsWithDepth) {
  LatencyCurveConfig config;
  config.walker = {.type = core::WalkerType::kCnrw};
  config.pipeline_depths = {1, 4};
  config.ensemble_sizes = {4};
  config.steps_per_walker = 120;
  config.trials = 3;
  config.seed = 11;
  LatencyCurveResult result = RunLatencyCurve(dataset_, config);
  ASSERT_EQ(result.points.size(), 2u);
  const LatencyCurvePoint& serial = result.points[0];
  const LatencyCurvePoint& overlapped = result.points[1];
  EXPECT_GT(serial.mean_sim_wall_seconds, 0.0);
  // Same traces, same error — less simulated time at depth 4.
  EXPECT_DOUBLE_EQ(serial.mean_relative_error,
                   overlapped.mean_relative_error);
  EXPECT_DOUBLE_EQ(serial.mean_charged_queries,
                   overlapped.mean_charged_queries);
  EXPECT_LT(overlapped.mean_sim_wall_seconds,
            serial.mean_sim_wall_seconds);
  EXPECT_GT(overlapped.speedup_vs_baseline, 1.0);
  EXPECT_DOUBLE_EQ(serial.speedup_vs_baseline, 1.0);

  util::TextTable table = LatencyCurveTable(result);
  EXPECT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.num_columns(), 9u);
}

TEST_F(SmallExperimentTest, BiasMeasureTableSelection) {
  BiasCurveConfig config;
  config.walkers = {{.type = core::WalkerType::kSrw}};
  config.budgets = {15};
  config.instances = 30;
  BiasCurveResult result = RunBiasCurve(dataset_, config);
  for (BiasMeasure measure :
       {BiasMeasure::kKlDivergence, BiasMeasure::kL2Distance,
        BiasMeasure::kRelativeError}) {
    util::TextTable table = BiasCurveTable(result, measure);
    EXPECT_EQ(table.num_rows(), 1u);
  }
  EXPECT_EQ(BiasMeasureName(BiasMeasure::kKlDivergence), "kl_divergence");
}

}  // namespace
}  // namespace histwalk::experiment
