#ifndef TQP_DATASETS_REVIEWS_H_
#define TQP_DATASETS_REVIEWS_H_

#include "relational/table.h"

namespace tqp::datasets {

/// \brief Options for the synthetic product-review generator — the stand-in
/// for the Kaggle "Consumer Reviews of Amazon Products" dataset of demo
/// scenario 3, which is unavailable offline.
struct ReviewsOptions {
  int64_t num_reviews = 2000;
  uint64_t seed = 20220910;
  /// Probability a review's wording disagrees with its star rating (keeps
  /// the predicted-vs-actual comparison of Figure 4 interesting).
  double noise = 0.08;
};

/// \brief Columns: review_id (int64), brand (string), rating (int64, 1-5),
/// text (string). Ratings >= 3 correlate with positive word choice; the
/// `sentiment` of the text is sampled first and wording follows it.
Result<Table> ReviewsTable(const ReviewsOptions& options = {});

/// \brief Training split generator: texts plus 0/1 sentiment labels drawn
/// from the same distribution (used to fit the sentiment classifier).
void GenerateReviewTexts(int64_t n, uint64_t seed,
                         std::vector<std::string>* texts,
                         std::vector<double>* labels);

}  // namespace tqp::datasets

#endif  // TQP_DATASETS_REVIEWS_H_
