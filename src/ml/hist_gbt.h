#ifndef AIMAI_ML_HIST_GBT_H_
#define AIMAI_ML_HIST_GBT_H_

#include <memory>
#include <vector>

#include "ml/compiled_forest.h"
#include "ml/decision_tree.h"
#include "ml/model.h"

namespace aimai {

/// LightGBM-style gradient boosting: histogram split finding on pre-binned
/// features, *leaf-wise* (best-first) tree growth with a leaf cap, and
/// second-order (Newton) leaf values with L2 regularization. This is the
/// "LGBM" model family in the paper's Figure 7/8/10.
class HistGradientBoosting : public Classifier {
 public:
  struct Options {
    int num_rounds = 60;
    int max_leaves = 31;
    double learning_rate = 0.15;
    double lambda = 1.0;          // L2 on leaf values.
    double min_child_hessian = 1.0;
    double subsample = 0.8;
    uint64_t seed = 23;
  };

  HistGradientBoosting() : HistGradientBoosting(Options()) {}
  explicit HistGradientBoosting(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  /// Reference node-chasing path (bit-identity tests / benchmarks).
  std::vector<double> PredictProbaScalar(const double* x) const;

  void Save(TokenWriter* w) const;
  void Load(TokenReader* r);

 private:
  struct TreeNode {
    int feature = -1;
    double threshold = 0;
    int left = -1;
    int right = -1;
    double value = 0;  // Leaf output.
  };
  struct Tree {
    std::vector<TreeNode> nodes;
    double Predict(const double* x) const;
  };

  /// Grows one leaf-wise tree on (grad, hess) for the sampled rows.
  Tree GrowTree(const Dataset& train, const std::vector<uint8_t>& binned,
                const std::vector<size_t>& rows,
                const std::vector<double>& grad,
                const std::vector<double>& hess) const;

  void Compile();

  Options options_;
  FeatureBinner binner_;
  std::vector<Tree> trees_;  // round-major, num_classes per round.
  CompiledForest compiled_;
};

}  // namespace aimai

#endif  // AIMAI_ML_HIST_GBT_H_
