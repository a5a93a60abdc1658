#ifndef TQP_ML_TREE_H_
#define TQP_ML_TREE_H_

#include <memory>
#include <string>
#include <vector>

#include "ml/model.h"

namespace tqp::ml {

/// \brief One node of a fitted binary decision tree (array encoding).
struct TreeNode {
  bool is_leaf = true;
  int feature = 0;         // internal: feature index tested
  double threshold = 0.0;  // internal: go left when x[feature] < threshold
  int left = -1;
  int right = -1;
  double value = 0.0;      // leaf: regression value / class id / class share
};

/// \brief A CART decision tree (the scikit-learn DecisionTree stand-in).
/// Regression trees minimize variance; classification trees minimize Gini
/// over integer class labels and store the majority class at each leaf.
struct TreeFitOptions {
  int max_depth = 6;
  int min_samples_leaf = 2;
  bool classification = false;
  int num_classes = 2;  // classification only
};

class DecisionTree {
 public:
  using FitOptions = TreeFitOptions;

  static Result<DecisionTree> Fit(const Tensor& features, const Tensor& targets,
                                  const FitOptions& options = {});

  /// \brief Scalar inference over a dense feature row.
  double PredictOne(const double* x) const;

  const std::vector<TreeNode>& nodes() const { return nodes_; }
  int num_features() const { return num_features_; }
  int depth() const { return depth_; }
  int num_leaves() const;
  int num_internal() const;

  /// \brief Direct construction (tests / hand-built trees).
  static DecisionTree FromNodes(std::vector<TreeNode> nodes, int num_features);

 private:
  std::vector<TreeNode> nodes_;
  int num_features_ = 0;
  int depth_ = 0;
};

/// \brief Tensor-compilation strategies for trees — the two Hummingbird
/// strategies TQP inherits (paper §3.3; bench/abl_hummingbird): kGemm turns the tree
/// into three dense matmuls; kTreeTraversal iterates gather-based descent
/// `depth` times.
enum class TreeStrategy : int8_t { kGemm = 0, kTreeTraversal = 1 };

const char* TreeStrategyName(TreeStrategy s);

/// \brief Appends tree inference over feature-matrix node `x_node` (n x d,
/// float64) and returns the (n x 1) float64 prediction node.
Result<int> BuildTreeGraph(TensorProgram* program, int x_node,
                           const DecisionTree& tree, TreeStrategy strategy,
                           const std::string& label);

/// \brief PREDICT-able single decision tree.
class DecisionTreeModel : public Model {
 public:
  DecisionTreeModel(std::string name, DecisionTree tree,
                    TreeStrategy strategy = TreeStrategy::kGemm)
      : name_(std::move(name)), tree_(std::move(tree)), strategy_(strategy) {}

  std::string name() const override { return name_; }
  Result<LogicalType> CheckArgs(const std::vector<LogicalType>& args) const override;
  Result<int> BuildGraph(TensorProgram* program,
                         const std::vector<int>& arg_nodes) const override;
  Result<Scalar> PredictRow(const std::vector<Scalar>& args) const override;

  const DecisionTree& tree() const { return tree_; }

 private:
  std::string name_;
  DecisionTree tree_;
  TreeStrategy strategy_;
};

/// \brief Bagged ensemble of CART trees; prediction is the tree average
/// (probability for 0/1 classification labels, value for regression).
struct ForestFitOptions {
  int num_trees = 10;
  TreeFitOptions tree;
  uint64_t seed = 1234;
};

class RandomForestModel : public Model {
 public:
  using FitOptions = ForestFitOptions;
  static Result<std::shared_ptr<RandomForestModel>> Fit(
      const std::string& name, const Tensor& features, const Tensor& targets,
      const FitOptions& options = {},
      TreeStrategy strategy = TreeStrategy::kGemm);

  RandomForestModel(std::string name, std::vector<DecisionTree> trees,
                    TreeStrategy strategy)
      : name_(std::move(name)), trees_(std::move(trees)), strategy_(strategy) {}

  std::string name() const override { return name_; }
  Result<LogicalType> CheckArgs(const std::vector<LogicalType>& args) const override;
  Result<int> BuildGraph(TensorProgram* program,
                         const std::vector<int>& arg_nodes) const override;
  Result<Scalar> PredictRow(const std::vector<Scalar>& args) const override;

  const std::vector<DecisionTree>& trees() const { return trees_; }

 private:
  std::string name_;
  std::vector<DecisionTree> trees_;
  TreeStrategy strategy_;
};

}  // namespace tqp::ml

#endif  // TQP_ML_TREE_H_
