#ifndef AIMAI_ML_RANDOM_FOREST_H_
#define AIMAI_ML_RANDOM_FOREST_H_

#include <memory>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace aimai {

/// Bagging ensemble of CART trees (the paper's best offline model family).
/// Bootstrap-sampled trees with sqrt-feature subsampling; probabilities
/// are the average of leaf distributions, making `Uncertainty` a usable
/// adaptive-model signal (§4.3).
class RandomForest : public Classifier {
 public:
  struct Options {
    int num_trees = 80;
    int max_depth = 24;
    size_t min_samples_leaf = 1;
    double min_impurity_decrease = 1e-6;
    /// <= 0 means sqrt(d) features per split.
    double feature_fraction = -1.0;
    /// Rows per tree as a fraction of n (bootstrap with replacement).
    double bootstrap_fraction = 1.0;
    uint64_t seed = 7;
  };

  RandomForest() : RandomForest(Options()) {}
  explicit RandomForest(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  /// Reference node-chasing path (pre-compilation); kept for the
  /// bit-identity tests and the scalar-vs-compiled benchmarks.
  std::vector<double> PredictProbaScalar(const double* x) const;

  size_t num_trees() const { return trees_.size(); }

  /// Persists / restores the trained ensemble (inference state).
  void Save(TokenWriter* w) const;
  void Load(TokenReader* r);

 private:
  void Compile();

  Options options_;
  FeatureBinner binner_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  CompiledForest compiled_;
};

/// Random-forest regressor (used by the plan-level cost regressor
/// baseline, §6.1).
class RandomForestRegressor : public Regressor {
 public:
  using Options = RandomForest::Options;

  RandomForestRegressor() : RandomForestRegressor(Options()) {}
  explicit RandomForestRegressor(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  double Predict(const double* x) const override;

  /// Reference node-chasing path (bit-identity tests / benchmarks).
  double PredictScalar(const double* x) const;

  void Save(TokenWriter* w) const;
  void Load(TokenReader* r);

 private:
  void Compile();

  Options options_;
  FeatureBinner binner_;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  CompiledForest compiled_;
};

}  // namespace aimai

#endif  // AIMAI_ML_RANDOM_FOREST_H_
