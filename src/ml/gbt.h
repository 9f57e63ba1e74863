#ifndef AIMAI_ML_GBT_H_
#define AIMAI_ML_GBT_H_

#include <memory>
#include <vector>

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace aimai {

/// Gradient-boosted trees: multiclass classification via one regression
/// tree per class per round fitted to the softmax residual, and a
/// least-squares regressor variant (the boosting ensemble family from
/// §4.1 / §6.1).
class GradientBoostedTrees : public Classifier {
 public:
  struct Options {
    int num_rounds = 60;
    int max_depth = 6;
    double learning_rate = 0.15;
    double subsample = 0.8;
    size_t min_samples_leaf = 4;
    uint64_t seed = 11;
  };

  GradientBoostedTrees() : GradientBoostedTrees(Options()) {}
  explicit GradientBoostedTrees(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  /// Reference node-chasing path (bit-identity tests / benchmarks).
  std::vector<double> PredictProbaScalar(const double* x) const;

  void Save(TokenWriter* w) const;
  void Load(TokenReader* r);

 private:
  void Compile();

  Options options_;
  FeatureBinner binner_;
  // trees_[round * num_classes + class].
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  CompiledForest compiled_;
};

/// Least-squares gradient boosting (plan-pair cost-ratio regressor, §6.1).
class GradientBoostedTreesRegressor : public Regressor {
 public:
  using Options = GradientBoostedTrees::Options;

  GradientBoostedTreesRegressor()
      : GradientBoostedTreesRegressor(Options()) {}
  explicit GradientBoostedTreesRegressor(Options options)
      : options_(options) {}

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
  double base_ = 0;
  std::vector<std::unique_ptr<DecisionTree>> trees_;
  CompiledForest compiled_;
};

}  // namespace aimai

#endif  // AIMAI_ML_GBT_H_
