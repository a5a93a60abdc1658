// ML layer tests: model fitting, Hummingbird-style tree compilation
// (GEMM == TreeTraversal == scalar reference), and end-to-end prediction
// queries (paper scenario 3 / Figure 4) matched against the Volcano oracle.

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "common/random.h"
#include "datasets/iris.h"
#include "datasets/reviews.h"
#include "ml/linear.h"
#include "ml/mlp.h"
#include "ml/text.h"
#include "ml/tree.h"

namespace tqp {
namespace {

using ml::DecisionTree;
using ml::TreeStrategy;

Tensor RandomFeatures(int64_t n, int64_t d, uint64_t seed) {
  Rng rng(seed);
  Tensor x = Tensor::Empty(DType::kFloat64, n, d).ValueOrDie();
  double* p = x.mutable_data<double>();
  for (int64_t i = 0; i < n * d; ++i) p[i] = rng.UniformDouble(-3, 3);
  return x;
}

TEST(LinearRegression, RecoversPlantedCoefficients) {
  const int64_t n = 500;
  Tensor x = RandomFeatures(n, 3, 1);
  Tensor y = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  const double* px = x.data<double>();
  for (int64_t i = 0; i < n; ++i) {
    y.mutable_data<double>()[i] =
        2.0 * px[i * 3] - 1.5 * px[i * 3 + 1] + 0.25 * px[i * 3 + 2] + 4.0;
  }
  auto model = ml::LinearRegressionModel::Fit("lin", x, y).ValueOrDie();
  EXPECT_NEAR(model->weights()[0], 2.0, 1e-6);
  EXPECT_NEAR(model->weights()[1], -1.5, 1e-6);
  EXPECT_NEAR(model->weights()[2], 0.25, 1e-6);
  EXPECT_NEAR(model->bias(), 4.0, 1e-6);
}

TEST(LinearRegression, GraphMatchesRowPrediction) {
  Tensor x = RandomFeatures(64, 2, 2);
  Tensor y = RandomFeatures(64, 1, 3);
  auto model = ml::LinearRegressionModel::Fit("lin", x, y).ValueOrDie();
  // Batch through the graph.
  std::vector<Tensor> args;
  args.push_back(x.SliceRows(0, 64));  // col 0 extracted below
  // Build per-column args.
  Tensor c0 = Tensor::Empty(DType::kFloat64, 64, 1).ValueOrDie();
  Tensor c1 = Tensor::Empty(DType::kFloat64, 64, 1).ValueOrDie();
  for (int64_t i = 0; i < 64; ++i) {
    c0.mutable_data<double>()[i] = x.at<double>(i, 0);
    c1.mutable_data<double>()[i] = x.at<double>(i, 1);
  }
  Tensor batch = model->PredictBatch({c0, c1}).ValueOrDie();
  for (int64_t i = 0; i < 64; ++i) {
    const Scalar row =
        model->PredictRow({Scalar(x.at<double>(i, 0)), Scalar(x.at<double>(i, 1))})
            .ValueOrDie();
    EXPECT_NEAR(batch.at<double>(i), row.float_value(), 1e-9);
  }
}

TEST(LogisticRegression, SeparatesPlantedClasses) {
  const int64_t n = 400;
  Tensor x = RandomFeatures(n, 2, 5);
  Tensor y = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    y.mutable_data<double>()[i] =
        x.at<double>(i, 0) + x.at<double>(i, 1) > 0 ? 1.0 : 0.0;
  }
  auto model = ml::LogisticRegressionModel::Fit("logit", x, y).ValueOrDie();
  int correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double p =
        model->PredictRow({Scalar(x.at<double>(i, 0)), Scalar(x.at<double>(i, 1))})
            .ValueOrDie()
            .float_value();
    correct += ((p > 0.5) == (y.at<double>(i) > 0.5)) ? 1 : 0;
  }
  EXPECT_GT(correct, n * 9 / 10);
}

class TreeStrategyTest : public ::testing::TestWithParam<TreeStrategy> {};

TEST_P(TreeStrategyTest, CompiledTreeMatchesScalarReference) {
  // Regression tree on noisy planted data.
  const int64_t n = 300;
  Tensor x = RandomFeatures(n, 4, 7);
  Tensor y = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  Rng rng(11);
  for (int64_t i = 0; i < n; ++i) {
    y.mutable_data<double>()[i] = (x.at<double>(i, 0) > 0.5 ? 3.0 : -1.0) +
                                  (x.at<double>(i, 2) > -1 ? 0.5 : 0.0) +
                                  rng.NextGaussian() * 0.01;
  }
  DecisionTree tree = DecisionTree::Fit(x, y).ValueOrDie();
  EXPECT_GT(tree.num_internal(), 0);

  auto program = std::make_shared<TensorProgram>();
  const int input = program->AddInput("x");
  const int out =
      ml::BuildTreeGraph(program.get(), input, tree, GetParam(), "tree")
          .ValueOrDie();
  program->MarkOutput(out);
  for (ExecutorTarget target :
       {ExecutorTarget::kEager, ExecutorTarget::kStatic, ExecutorTarget::kInterp,
        ExecutorTarget::kPipelined}) {
    auto executor = MakeExecutor(target, program).ValueOrDie();
    std::vector<Tensor> outputs = executor->Run({x}).ValueOrDie();
    for (int64_t i = 0; i < n; ++i) {
      const double expected = tree.PredictOne(x.data<double>() + i * 4);
      ASSERT_DOUBLE_EQ(outputs[0].at<double>(i), expected)
          << "row " << i << " target " << ExecutorTargetName(target);
    }
  }
}

TEST_P(TreeStrategyTest, ForestMatchesScalarReference) {
  Tensor x = RandomFeatures(200, 3, 13);
  Tensor y = RandomFeatures(200, 1, 17);
  ml::RandomForestModel::FitOptions options;
  options.num_trees = 5;
  options.tree.max_depth = 4;
  auto forest =
      ml::RandomForestModel::Fit("rf", x, y, options, GetParam()).ValueOrDie();
  Tensor c0 = Tensor::Empty(DType::kFloat64, 200, 1).ValueOrDie();
  Tensor c1 = Tensor::Empty(DType::kFloat64, 200, 1).ValueOrDie();
  Tensor c2 = Tensor::Empty(DType::kFloat64, 200, 1).ValueOrDie();
  for (int64_t i = 0; i < 200; ++i) {
    c0.mutable_data<double>()[i] = x.at<double>(i, 0);
    c1.mutable_data<double>()[i] = x.at<double>(i, 1);
    c2.mutable_data<double>()[i] = x.at<double>(i, 2);
  }
  Tensor batch = forest->PredictBatch({c0, c1, c2}).ValueOrDie();
  for (int64_t i = 0; i < 200; ++i) {
    const Scalar row = forest
                           ->PredictRow({Scalar(x.at<double>(i, 0)),
                                         Scalar(x.at<double>(i, 1)),
                                         Scalar(x.at<double>(i, 2))})
                           .ValueOrDie();
    ASSERT_NEAR(batch.at<double>(i), row.float_value(), 1e-9) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, TreeStrategyTest,
                         ::testing::Values(TreeStrategy::kGemm,
                                           TreeStrategy::kTreeTraversal),
                         [](const auto& info) {
                           return std::string(ml::TreeStrategyName(info.param));
                         });

TEST(Mlp, LearnsXorishFunction) {
  const int64_t n = 600;
  Tensor x = RandomFeatures(n, 2, 21);
  Tensor y = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    const bool a = x.at<double>(i, 0) > 0;
    const bool b = x.at<double>(i, 1) > 0;
    y.mutable_data<double>()[i] = (a != b) ? 1.0 : 0.0;
  }
  ml::MlpModel::FitOptions options;
  options.classification = true;
  options.hidden = 12;
  options.epochs = 120;
  auto model = ml::MlpModel::Fit("mlp", x, y, options).ValueOrDie();
  int correct = 0;
  for (int64_t i = 0; i < n; ++i) {
    const double p =
        model->PredictRow({Scalar(x.at<double>(i, 0)), Scalar(x.at<double>(i, 1))})
            .ValueOrDie()
            .float_value();
    correct += ((p > 0.5) == (y.at<double>(i) > 0.5)) ? 1 : 0;
  }
  EXPECT_GT(correct, n * 8 / 10);  // XOR needs the hidden layer
}

TEST(Sentiment, LearnsSyntheticPolarity) {
  std::vector<std::string> texts;
  std::vector<double> labels;
  datasets::GenerateReviewTexts(1500, 31, &texts, &labels);
  auto model = ml::SentimentClassifier::Fit("senti", texts, labels).ValueOrDie();
  std::vector<std::string> test_texts;
  std::vector<double> test_labels;
  datasets::GenerateReviewTexts(400, 77, &test_texts, &test_labels);
  int correct = 0;
  for (size_t i = 0; i < test_texts.size(); ++i) {
    const double pred = model->ScoreText(test_texts[i]) > 0.5 ? 1.0 : 0.0;
    correct += pred == test_labels[i] ? 1 : 0;
  }
  EXPECT_GT(correct, 340);  // > 85% held-out accuracy
}

// ---- End-to-end prediction queries (Figure 4) ------------------------------

class PredictionQueryTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    registry_ = new ml::ModelRegistry();
    // Reviews + sentiment model.
    datasets::ReviewsOptions review_options;
    review_options.num_reviews = 800;
    Table reviews = datasets::ReviewsTable(review_options).ValueOrDie();
    catalog_->RegisterTable("amazon_reviews", reviews);
    std::vector<std::string> texts;
    std::vector<double> labels;
    datasets::GenerateReviewTexts(1500, 31, &texts, &labels);
    registry_->Register(
        ml::SentimentClassifier::Fit("sentiment_classifier", texts, labels)
            .ValueOrDie());
    // Iris + regression models.
    Table iris = datasets::IrisTable().ValueOrDie();
    catalog_->RegisterTable("iris", iris);
    Tensor features = Tensor::Empty(DType::kFloat64, iris.num_rows(), 3).ValueOrDie();
    Tensor target = Tensor::Empty(DType::kFloat64, iris.num_rows(), 1).ValueOrDie();
    for (int64_t i = 0; i < iris.num_rows(); ++i) {
      features.mutable_data<double>()[i * 3 + 0] =
          iris.column(0).tensor().at<double>(i);
      features.mutable_data<double>()[i * 3 + 1] =
          iris.column(1).tensor().at<double>(i);
      features.mutable_data<double>()[i * 3 + 2] =
          iris.column(2).tensor().at<double>(i);
      target.mutable_data<double>()[i] = iris.column(3).tensor().at<double>(i);
    }
    registry_->Register(
        ml::LinearRegressionModel::Fit("petal_width_lr", features, target)
            .ValueOrDie());
    ml::RandomForestModel::FitOptions forest_options;
    forest_options.num_trees = 7;
    registry_->Register(ml::RandomForestModel::Fit("petal_width_rf", features,
                                                   target, forest_options)
                            .ValueOrDie());
  }
  static Catalog* catalog_;
  static ml::ModelRegistry* registry_;
};

Catalog* PredictionQueryTest::catalog_ = nullptr;
ml::ModelRegistry* PredictionQueryTest::registry_ = nullptr;

TEST_F(PredictionQueryTest, Figure4SentimentQueryMatchesOracle) {
  // The exact query of the paper's Figure 4.
  const std::string sql =
      "SELECT brand, "
      "SUM(CASE WHEN rating >= 3 THEN 1 ELSE 0 END) AS actual_positive, "
      "SUM(PREDICT('sentiment_classifier', text)) AS predicted_positive "
      "FROM amazon_reviews GROUP BY brand";
  VolcanoEngine volcano(catalog_, registry_);
  Table oracle = volcano.ExecuteSql(sql).ValueOrDie();
  QueryCompiler compiler(registry_);
  for (ExecutorTarget target :
       {ExecutorTarget::kEager, ExecutorTarget::kStatic, ExecutorTarget::kInterp,
        ExecutorTarget::kPipelined}) {
    CompileOptions options;
    options.target = target;
    Table result =
        compiler.CompileSql(sql, *catalog_, options).ValueOrDie().Run(*catalog_)
            .ValueOrDie();
    EXPECT_TRUE(TablesEqualUnordered(result, oracle).ok())
        << ExecutorTargetName(target);
  }
  // Predictions track actual ratings (the demo's point).
  auto actual = oracle.ColumnByName("actual_positive").ValueOrDie();
  auto predicted = oracle.ColumnByName("predicted_positive").ValueOrDie();
  double actual_sum = 0;
  double pred_sum = 0;
  for (int64_t i = 0; i < oracle.num_rows(); ++i) {
    actual_sum += actual.GetScalar(i).AsDouble();
    pred_sum += predicted.GetScalar(i).AsDouble();
  }
  EXPECT_NEAR(pred_sum, actual_sum, actual_sum * 0.25);
}

TEST_F(PredictionQueryTest, IrisRegressionQueryMatchesOracle) {
  const std::string sql =
      "SELECT species, AVG(PREDICT('petal_width_lr', sepal_length, sepal_width, "
      "petal_length)) AS predicted, AVG(petal_width) AS actual "
      "FROM iris GROUP BY species ORDER BY species";
  VolcanoEngine volcano(catalog_, registry_);
  Table oracle = volcano.ExecuteSql(sql).ValueOrDie();
  QueryCompiler compiler(registry_);
  Table result =
      compiler.CompileSql(sql, *catalog_).ValueOrDie().Run(*catalog_).ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(result, oracle).ok());
  // The regression is accurate per species.
  for (int64_t i = 0; i < oracle.num_rows(); ++i) {
    const double predicted = oracle.column(1).tensor().at<double>(i);
    const double actual = oracle.column(2).tensor().at<double>(i);
    EXPECT_NEAR(predicted, actual, 0.25);
  }
}

TEST_F(PredictionQueryTest, ForestPredictInWhereClause) {
  // Prediction inside a filter: keep flowers the forest thinks are wide.
  const std::string sql =
      "SELECT COUNT(*) AS n FROM iris "
      "WHERE PREDICT('petal_width_rf', sepal_length, sepal_width, petal_length) "
      "> 1.5";
  VolcanoEngine volcano(catalog_, registry_);
  Table oracle = volcano.ExecuteSql(sql).ValueOrDie();
  QueryCompiler compiler(registry_);
  Table result =
      compiler.CompileSql(sql, *catalog_).ValueOrDie().Run(*catalog_).ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(result, oracle).ok());
  const int64_t n = result.column(0).tensor().at<int64_t>(0);
  EXPECT_GT(n, 20);   // roughly the virginica class
  EXPECT_LT(n, 100);
}

TEST_F(PredictionQueryTest, UnknownModelFailsAtBind) {
  QueryCompiler compiler(registry_);
  auto result = compiler.CompileSql(
      "SELECT PREDICT('no_such_model', rating) FROM amazon_reviews", *catalog_);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace tqp
