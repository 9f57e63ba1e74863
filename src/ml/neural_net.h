#ifndef AIMAI_ML_NEURAL_NET_H_
#define AIMAI_ML_NEURAL_NET_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "ml/matrix.h"
#include "ml/model.h"

namespace aimai {

/// Feed-forward network for the plan-pair classification task (§6.2.1).
///
/// Architectures:
///  - kFullyConnected: plain MLP.
///  - kPartial: the paper's partially-connected design — early layers are
///    block-diagonal over *operator-key groups* (each key's values across
///    channels combine first, no cross-key connections), the last partial
///    layer reduces to one neuron per key, and fully-connected layers
///    follow.
///  - kPartialSkip: kPartial plus identity skip connections on every
///    second fully-connected layer (He-style), the paper's remedy for
///    training deeper stacks.
///
/// Training follows §7.4: tanh activations, clipped-normal init, dropout +
/// L2 regularization, Adam, and a learning rate halved on plateau up to 10
/// times. `LastHiddenFeatures` exposes the final hidden activations so a
/// Random Forest can be stacked on top (Hybrid DNN, §6.2.2); transfer
/// learning retrains only the output layer (§6.2.3).
class NeuralNetClassifier : public Classifier {
 public:
  enum class Architecture { kFullyConnected, kPartial, kPartialSkip };

  struct Options {
    Architecture architecture = Architecture::kPartialSkip;
    /// Feature grouping for the partial layers: `groups[g]` lists input
    /// indices of group g. Inputs not in any group form one extra shared
    /// group. Ignored for kFullyConnected.
    std::vector<std::vector<int>> groups;
    int pc_layers = 2;
    int pc_units_per_group = 3;
    int fc_layers = 6;
    int fc_units = 32;
    int epochs = 30;
    size_t batch_size = 64;
    double learning_rate = 0.01;
    double dropout = 0.2;
    double l2 = 1e-3;
    int plateau_patience = 3;   // Epochs without improvement before halving.
    int max_halvings = 10;
    /// Subsample cap on training examples (speed guard); <=0 = no cap.
    int64_t max_train_examples = 20000;
    uint64_t seed = 29;
  };

  NeuralNetClassifier() : NeuralNetClassifier(Options()) {}
  explicit NeuralNetClassifier(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  /// Activations of the last hidden layer for one example (the Hybrid
  /// DNN stacks a forest on these).
  std::vector<double> LastHiddenFeatures(const double* x) const;
  size_t LastHiddenDim() const;

  /// Transfer learning: keeps all hidden layers frozen and retrains the
  /// output layer on `data` (§6.2.3). Must be called after Fit.
  void RetrainOutputLayer(const Dataset& data, int epochs);

 private:
  struct Layer {
    Matrix w;                 // in x out.
    std::vector<double> b;    // out.
    Matrix mask;              // Same shape as w; empty = dense.
    bool has_mask = false;
    bool skip = false;        // Identity skip (requires in == out).
    bool output = false;      // Linear output layer (softmax outside).
    // Adam state.
    Matrix mw, vw;
    std::vector<double> mb, vb;
  };

  /// Forward through all layers. `acts[l]` = input of layer l; returns
  /// logits. `tanhs[l]` = tanh(z) of layer l (for backprop); dropout masks
  /// applied when training.
  Matrix Forward(const Matrix& x, std::vector<Matrix>* acts,
                 std::vector<Matrix>* tanhs, std::vector<Matrix>* dropmasks,
                 Rng* rng) const;

  /// Inference-only forward over one standardized-on-the-fly example
  /// using thread-local scratch matrices (no per-call allocation once
  /// warm). Writes num_classes probabilities to `probs_out` and/or the
  /// output layer's LastHiddenDim inputs to `hidden_out`.
  void InferenceForward(const double* x, double* probs_out,
                        double* hidden_out) const;

  void BuildNetwork(size_t input_dim, Rng* rng);
  void TrainEpochs(const Dataset& data, const std::vector<size_t>& rows,
                   int epochs, bool only_output, Rng* rng);

  Options options_;
  size_t d_ = 0;
  std::vector<double> mean_;
  std::vector<double> inv_std_;
  std::vector<Layer> layers_;
  int64_t adam_step_ = 0;
  double current_lr_ = 0.01;
};

}  // namespace aimai

#endif  // AIMAI_ML_NEURAL_NET_H_
