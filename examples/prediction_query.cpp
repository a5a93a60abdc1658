// Demo scenario 3 (paper §3.3): prediction queries. Trains the models the
// demo offers — a text sentiment classifier (the transformer stand-in), a
// scikit-style linear regression and a random forest — registers them, and
// runs hybrid SQL+ML queries where PREDICT(...) compiles into the same
// tensor program as the relational operators (Figure 4).

#include <cstdio>
#include <fstream>

#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "datasets/iris.h"
#include "datasets/reviews.h"
#include "ml/linear.h"
#include "ml/tree.h"
#include "ml/text.h"

using namespace tqp;  // NOLINT: example code

int main() {
  Catalog catalog;
  ml::ModelRegistry registry;

  // --- Task 1: sentiment classification over Amazon-style reviews ----------
  datasets::ReviewsOptions review_options;
  review_options.num_reviews = 5000;
  catalog.RegisterTable("amazon_reviews",
                        datasets::ReviewsTable(review_options).ValueOrDie());
  {
    std::vector<std::string> texts;
    std::vector<double> labels;
    datasets::GenerateReviewTexts(2000, 31, &texts, &labels);
    registry.Register(
        ml::SentimentClassifier::Fit("sentiment_classifier", texts, labels)
            .ValueOrDie());
  }
  const std::string fig4_sql =
      "SELECT brand, "
      "SUM(CASE WHEN rating >= 3 THEN 1 ELSE 0 END) AS actual_positive, "
      "SUM(PREDICT('sentiment_classifier', text)) AS predicted_positive "
      "FROM amazon_reviews GROUP BY brand ORDER BY brand";
  QueryCompiler compiler(&registry);
  CompiledQuery fig4 = compiler.CompileSql(fig4_sql, catalog).ValueOrDie();
  std::printf("Figure 4 query compiled into one %d-node tensor program\n",
              fig4.program().num_nodes());
  Table sentiment = fig4.Run(catalog).ValueOrDie();
  std::printf("%s\n", sentiment.ToString().c_str());
  std::ofstream dot("/tmp/tqp_prediction_executor.dot");
  dot << fig4.ToDot("prediction_query");
  std::printf("executor graph -> /tmp/tqp_prediction_executor.dot\n\n");

  // --- Task 2: regression on Iris -------------------------------------------
  Table iris = datasets::IrisTable().ValueOrDie();
  catalog.RegisterTable("iris", iris);
  Tensor features = Tensor::Empty(DType::kFloat64, iris.num_rows(), 3).ValueOrDie();
  Tensor target = Tensor::Empty(DType::kFloat64, iris.num_rows(), 1).ValueOrDie();
  for (int64_t i = 0; i < iris.num_rows(); ++i) {
    for (int f = 0; f < 3; ++f) {
      features.mutable_data<double>()[i * 3 + f] =
          iris.column(f).tensor().at<double>(i);
    }
    target.mutable_data<double>()[i] = iris.column(3).tensor().at<double>(i);
  }
  registry.Register(
      ml::LinearRegressionModel::Fit("petal_lr", features, target).ValueOrDie());
  ml::RandomForestModel::FitOptions forest_options;
  forest_options.num_trees = 9;
  registry.Register(ml::RandomForestModel::Fit("petal_rf", features, target,
                                               forest_options)
                        .ValueOrDie());

  // Users can swap models inside the same query text — the demo's point.
  for (const char* model : {"petal_lr", "petal_rf"}) {
    const std::string sql =
        std::string("SELECT species, "
                    "AVG(PREDICT('") + model +
        "', sepal_length, sepal_width, petal_length)) AS predicted_width, "
        "AVG(petal_width) AS actual_width "
        "FROM iris GROUP BY species ORDER BY species";
    Table result = compiler.CompileSql(sql, catalog)
                       .ValueOrDie()
                       .Run(catalog)
                       .ValueOrDie();
    std::printf("model = %s\n%s\n", model, result.ToString().c_str());
  }

  // Cross-check the whole scenario against the row-oriented oracle.
  VolcanoEngine volcano(&catalog, &registry);
  Table oracle = volcano.ExecuteSql(fig4_sql).ValueOrDie();
  const bool same = TablesEqualUnordered(sentiment, oracle).ok();
  std::printf("tensor engine matches row-engine oracle: %s\n",
              same ? "yes" : "NO");
  return same ? 0 : 1;
}
