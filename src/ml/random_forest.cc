#include "ml/random_forest.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

namespace {

std::vector<size_t> Bootstrap(size_t n, double fraction, Rng* rng) {
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n)));
  std::vector<size_t> rows(m);
  for (size_t i = 0; i < m; ++i) {
    rows[i] = rng->Index(n);
  }
  return rows;
}

DecisionTree::Options TreeOptions(const RandomForest::Options& o,
                                  uint64_t seed) {
  DecisionTree::Options t;
  t.max_depth = o.max_depth;
  t.min_samples_leaf = o.min_samples_leaf;
  t.min_impurity_decrease = o.min_impurity_decrease;
  t.feature_fraction = o.feature_fraction;
  t.seed = seed;
  return t;
}

}  // namespace

void RandomForest::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.rf.fit");
  AIMAI_CHECK(train.n() > 0);
  num_classes_ = std::max(2, train.NumClasses());
  trees_.clear();
  Rng rng(options_.seed);

  std::vector<size_t> all(train.n());
  for (size_t i = 0; i < train.n(); ++i) all[i] = i;
  binner_.Fit(train, all, &rng);

  for (int t = 0; t < options_.num_trees; ++t) {
    const std::vector<size_t> rows =
        Bootstrap(train.n(), options_.bootstrap_fraction, &rng);
    auto tree =
        std::make_unique<DecisionTree>(TreeOptions(options_, rng.engine()()));
    tree->FitClassification(train, rows, num_classes_, &binner_);
    trees_.push_back(std::move(tree));
  }
  Compile();
}

void RandomForest::Compile() {
  compiled_.Reset(static_cast<size_t>(num_classes_));
  for (const auto& tree : trees_) tree->CompileInto(&compiled_);
}

void RandomForest::PredictProbaInto(const double* x, double* out) const {
  AIMAI_SPAN("ml.rf.predict");
  AIMAI_CHECK(!compiled_.empty());
  const size_t k = static_cast<size_t>(num_classes_);
  std::fill(out, out + k, 0.0);
  compiled_.AccumulateAll(x, out);
  const double inv = 1.0 / static_cast<double>(compiled_.num_trees());
  for (size_t c = 0; c < k; ++c) out[c] *= inv;
}

std::vector<double> RandomForest::PredictProbaScalar(const double* x) const {
  AIMAI_CHECK(!trees_.empty());
  std::vector<double> probs(static_cast<size_t>(num_classes_), 0.0);
  for (const auto& tree : trees_) {
    const std::vector<double>& d = tree->LeafDistribution(x);
    for (size_t c = 0; c < probs.size(); ++c) probs[c] += d[c];
  }
  const double inv = 1.0 / static_cast<double>(trees_.size());
  for (double& p : probs) p *= inv;
  return probs;
}

void RandomForestRegressor::Fit(const Dataset& train) {
  AIMAI_CHECK(train.n() > 0);
  trees_.clear();
  Rng rng(options_.seed);

  std::vector<size_t> all(train.n());
  for (size_t i = 0; i < train.n(); ++i) all[i] = i;
  binner_.Fit(train, all, &rng);

  for (int t = 0; t < options_.num_trees; ++t) {
    const std::vector<size_t> rows =
        Bootstrap(train.n(), options_.bootstrap_fraction, &rng);
    auto tree =
        std::make_unique<DecisionTree>(TreeOptions(options_, rng.engine()()));
    tree->FitRegression(train, rows, train.targets(), &binner_);
    trees_.push_back(std::move(tree));
  }
  Compile();
}

void RandomForestRegressor::Compile() {
  compiled_.Reset(1);
  for (const auto& tree : trees_) tree->CompileInto(&compiled_);
}

void RandomForest::Save(TokenWriter* w) const {
  w->WriteTag("rf");
  w->WriteInt(num_classes_);
  w->WriteUInt(trees_.size());
  for (const auto& t : trees_) t->Save(w);
}

void RandomForest::Load(TokenReader* r) {
  r->ExpectTag("rf");
  num_classes_ = static_cast<int>(r->ReadInt());
  const uint64_t n = r->ReadUInt();
  trees_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    auto t = std::make_unique<DecisionTree>();
    t->Load(r);
    trees_.push_back(std::move(t));
  }
  Compile();
}

void RandomForestRegressor::Save(TokenWriter* w) const {
  w->WriteTag("rfreg");
  w->WriteUInt(trees_.size());
  for (const auto& t : trees_) t->Save(w);
}

void RandomForestRegressor::Load(TokenReader* r) {
  r->ExpectTag("rfreg");
  const uint64_t n = r->ReadUInt();
  trees_.clear();
  for (uint64_t i = 0; i < n; ++i) {
    auto t = std::make_unique<DecisionTree>();
    t->Load(r);
    trees_.push_back(std::move(t));
  }
  Compile();
}

double RandomForestRegressor::Predict(const double* x) const {
  AIMAI_CHECK(!compiled_.empty());
  double sum = 0;
  compiled_.AccumulateAll(x, &sum);
  return sum / static_cast<double>(compiled_.num_trees());
}

double RandomForestRegressor::PredictScalar(const double* x) const {
  AIMAI_CHECK(!trees_.empty());
  double sum = 0;
  for (const auto& tree : trees_) sum += tree->PredictValue(x);
  return sum / static_cast<double>(trees_.size());
}

}  // namespace aimai
