#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

namespace {

/// Softmax cross-entropy on logits; returns loss and writes dLogits.
double SoftmaxLoss(const Matrix& logits, const std::vector<int>& labels,
                   Matrix* dlogits) {
  const size_t n = logits.rows();
  const size_t k = logits.cols();
  double loss = 0;
  *dlogits = Matrix(n, k);
  for (size_t i = 0; i < n; ++i) {
    const double* z = logits.RowPtr(i);
    double mx = z[0];
    for (size_t c = 1; c < k; ++c) mx = std::max(mx, z[c]);
    double denom = 0;
    for (size_t c = 0; c < k; ++c) denom += std::exp(z[c] - mx);
    const int y = labels[i];
    for (size_t c = 0; c < k; ++c) {
      const double p = std::exp(z[c] - mx) / denom;
      (*dlogits)(i, c) = (p - (static_cast<int>(c) == y ? 1.0 : 0.0)) /
                         static_cast<double>(n);
      if (static_cast<int>(c) == y) loss -= std::log(std::max(1e-12, p));
    }
  }
  return loss / static_cast<double>(n);
}

}  // namespace

void NeuralNetClassifier::BuildNetwork(size_t input_dim, Rng* rng) {
  layers_.clear();
  adam_step_ = 0;
  current_lr_ = options_.learning_rate;

  auto clipped_normal = [rng](double stddev) {
    const double v = rng->Gaussian(0.0, stddev);
    return std::max(-2.0 * stddev, std::min(2.0 * stddev, v));
  };

  auto add_layer = [&](size_t in, size_t out, bool is_output, bool skip) {
    Layer l;
    l.w = Matrix(in, out);
    l.b.assign(out, 0.0);
    l.output = is_output;
    l.skip = skip && in == out;
    const double stddev = 1.0 / std::sqrt(static_cast<double>(in));
    for (size_t i = 0; i < in; ++i) {
      for (size_t j = 0; j < out; ++j) {
        l.w(i, j) = clipped_normal(stddev);
      }
    }
    l.mw = Matrix(in, out);
    l.vw = Matrix(in, out);
    l.mb.assign(out, 0.0);
    l.vb.assign(out, 0.0);
    layers_.push_back(std::move(l));
  };

  size_t width = input_dim;

  if (options_.architecture != Architecture::kFullyConnected &&
      !options_.groups.empty()) {
    // Assemble group structure: explicit groups plus one catch-all group
    // for ungrouped inputs.
    std::vector<std::vector<int>> groups = options_.groups;
    std::vector<bool> grouped(input_dim, false);
    for (const auto& g : groups) {
      for (int i : g) {
        AIMAI_CHECK(i >= 0 && static_cast<size_t>(i) < input_dim);
        grouped[static_cast<size_t>(i)] = true;
      }
    }
    std::vector<int> rest;
    for (size_t i = 0; i < input_dim; ++i) {
      if (!grouped[i]) rest.push_back(static_cast<int>(i));
    }
    if (!rest.empty()) groups.push_back(rest);
    const size_t ng = groups.size();

    // Partial layers: block-diagonal masks. Layer p maps group g's
    // `in_units(g)` inputs to `u` outputs (u = units_per_group; the last
    // partial layer reduces to 1 unit per group).
    std::vector<std::vector<int>> in_positions = groups;
    for (int p = 0; p < options_.pc_layers; ++p) {
      const int u = (p + 1 == options_.pc_layers)
                        ? 1
                        : options_.pc_units_per_group;
      size_t in_dim = width;
      size_t out_dim = ng * static_cast<size_t>(u);
      Layer l;
      l.w = Matrix(in_dim, out_dim);
      l.b.assign(out_dim, 0.0);
      l.mask = Matrix(in_dim, out_dim);
      l.has_mask = true;
      std::vector<std::vector<int>> next_positions(ng);
      for (size_t g = 0; g < ng; ++g) {
        const double stddev =
            1.0 /
            std::sqrt(std::max<double>(1.0, static_cast<double>(
                                                in_positions[g].size())));
        for (int uu = 0; uu < u; ++uu) {
          const size_t out_j = g * static_cast<size_t>(u) +
                               static_cast<size_t>(uu);
          next_positions[g].push_back(static_cast<int>(out_j));
          for (int in_i : in_positions[g]) {
            l.mask(static_cast<size_t>(in_i), out_j) = 1.0;
            l.w(static_cast<size_t>(in_i), out_j) = clipped_normal(stddev);
          }
        }
      }
      l.mw = Matrix(in_dim, out_dim);
      l.vw = Matrix(in_dim, out_dim);
      l.mb.assign(out_dim, 0.0);
      l.vb.assign(out_dim, 0.0);
      layers_.push_back(std::move(l));
      in_positions = std::move(next_positions);
      width = out_dim;
    }
  }

  // Fully-connected stack.
  const bool use_skip = options_.architecture == Architecture::kPartialSkip;
  for (int f = 0; f < options_.fc_layers; ++f) {
    const bool skip = use_skip && (f % 2 == 1);
    add_layer(width, static_cast<size_t>(options_.fc_units),
              /*is_output=*/false, skip);
    width = static_cast<size_t>(options_.fc_units);
  }
  add_layer(width, static_cast<size_t>(num_classes_), /*is_output=*/true,
            /*skip=*/false);
}

Matrix NeuralNetClassifier::Forward(const Matrix& x, std::vector<Matrix>* acts,
                                    std::vector<Matrix>* tanhs,
                                    std::vector<Matrix>* dropmasks,
                                    Rng* rng) const {
  Matrix cur = x;
  const bool training = rng != nullptr;
  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    if (acts != nullptr) (*acts)[li] = cur;
    Matrix z = cur.MatMul(l.w);
    for (size_t i = 0; i < z.rows(); ++i) {
      double* row = z.RowPtr(i);
      for (size_t j = 0; j < z.cols(); ++j) row[j] += l.b[j];
    }
    if (l.output) {
      cur = std::move(z);
      continue;
    }
    Matrix t(z.rows(), z.cols());
    for (size_t i = 0; i < z.rows(); ++i) {
      for (size_t j = 0; j < z.cols(); ++j) {
        t(i, j) = std::tanh(z(i, j));
      }
    }
    if (tanhs != nullptr) (*tanhs)[li] = t;
    Matrix a = t;
    if (l.skip) {
      for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < a.cols(); ++j) a(i, j) += cur(i, j);
      }
    }
    if (training && options_.dropout > 0) {
      const double keep = 1.0 - options_.dropout;
      Matrix dm(a.rows(), a.cols());
      for (size_t i = 0; i < a.rows(); ++i) {
        for (size_t j = 0; j < a.cols(); ++j) {
          dm(i, j) = rng->Bernoulli(keep) ? 1.0 / keep : 0.0;
          a(i, j) *= dm(i, j);
        }
      }
      if (dropmasks != nullptr) (*dropmasks)[li] = std::move(dm);
    }
    cur = std::move(a);
  }
  return cur;
}

void NeuralNetClassifier::TrainEpochs(const Dataset& data,
                                      const std::vector<size_t>& rows,
                                      int epochs, bool only_output, Rng* rng) {
  const size_t n = rows.size();
  const size_t nl = layers_.size();
  std::vector<size_t> order = rows;

  double best_loss = 1e300;
  int stale = 0;
  int halvings = 0;

  const double b1 = 0.9, b2 = 0.999, eps = 1e-8;

  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng->Shuffle(&order);
    double epoch_loss = 0;
    size_t batches = 0;
    for (size_t start = 0; start < n; start += options_.batch_size) {
      const size_t end = std::min(n, start + options_.batch_size);
      const size_t bs = end - start;
      Matrix x(bs, d_);
      std::vector<int> labels(bs);
      for (size_t i = 0; i < bs; ++i) {
        const size_t r = order[start + i];
        for (size_t j = 0; j < d_; ++j) {
          x(i, j) = (data.At(r, j) - mean_[j]) * inv_std_[j];
        }
        labels[i] = data.Label(r);
      }

      std::vector<Matrix> acts(nl), tanhs(nl), dropmasks(nl);
      Matrix logits = Forward(x, &acts, &tanhs, &dropmasks, rng);
      Matrix dcur;
      epoch_loss += SoftmaxLoss(logits, labels, &dcur);
      ++batches;

      ++adam_step_;
      const double bc1 = 1.0 - std::pow(b1, static_cast<double>(adam_step_));
      const double bc2 = 1.0 - std::pow(b2, static_cast<double>(adam_step_));

      for (size_t li_plus1 = nl; li_plus1 > 0; --li_plus1) {
        const size_t li = li_plus1 - 1;
        Layer& l = layers_[li];
        Matrix dz;
        Matrix da_predrop;
        if (l.output) {
          dz = std::move(dcur);
        } else {
          da_predrop = std::move(dcur);
          if (options_.dropout > 0 && dropmasks[li].rows() > 0) {
            for (size_t i = 0; i < da_predrop.rows(); ++i) {
              for (size_t j = 0; j < da_predrop.cols(); ++j) {
                da_predrop(i, j) *= dropmasks[li](i, j);
              }
            }
          }
          dz = Matrix(da_predrop.rows(), da_predrop.cols());
          const Matrix& t = tanhs[li];
          for (size_t i = 0; i < dz.rows(); ++i) {
            for (size_t j = 0; j < dz.cols(); ++j) {
              dz(i, j) = da_predrop(i, j) * (1.0 - t(i, j) * t(i, j));
            }
          }
        }

        // Gradient to previous layer.
        Matrix din = dz.MatMul(l.w.Transposed());
        if (l.skip) {
          for (size_t i = 0; i < din.rows(); ++i) {
            for (size_t j = 0; j < din.cols(); ++j) {
              din(i, j) += da_predrop(i, j);
            }
          }
        }

        const bool train_this = !only_output || l.output;
        if (train_this) {
          Matrix dw = acts[li].Transposed().MatMul(dz);
          std::vector<double> db(l.b.size(), 0.0);
          for (size_t i = 0; i < dz.rows(); ++i) {
            for (size_t j = 0; j < dz.cols(); ++j) db[j] += dz(i, j);
          }
          for (size_t i = 0; i < dw.rows(); ++i) {
            for (size_t j = 0; j < dw.cols(); ++j) {
              if (l.has_mask && l.mask(i, j) == 0.0) continue;
              const double g = dw(i, j) + options_.l2 * l.w(i, j);
              l.mw(i, j) = b1 * l.mw(i, j) + (1 - b1) * g;
              l.vw(i, j) = b2 * l.vw(i, j) + (1 - b2) * g * g;
              l.w(i, j) -= current_lr_ * (l.mw(i, j) / bc1) /
                           (std::sqrt(l.vw(i, j) / bc2) + eps);
            }
          }
          for (size_t j = 0; j < l.b.size(); ++j) {
            const double g = db[j];
            l.mb[j] = b1 * l.mb[j] + (1 - b1) * g;
            l.vb[j] = b2 * l.vb[j] + (1 - b2) * g * g;
            l.b[j] -= current_lr_ * (l.mb[j] / bc1) /
                      (std::sqrt(l.vb[j] / bc2) + eps);
          }
        }
        dcur = std::move(din);
      }
    }

    // Adaptive learning rate: halve on plateau (§7.4).
    epoch_loss /= std::max<size_t>(1, batches);
    if (epoch_loss < best_loss - 1e-4) {
      best_loss = epoch_loss;
      stale = 0;
    } else {
      ++stale;
      if (stale >= options_.plateau_patience &&
          halvings < options_.max_halvings) {
        current_lr_ *= 0.5;
        ++halvings;
        stale = 0;
      }
    }
  }
}

void NeuralNetClassifier::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.dnn.fit");
  AIMAI_CHECK(train.n() > 0);
  d_ = train.d();
  num_classes_ = std::max(2, train.NumClasses());
  Rng rng(options_.seed);

  // Standardization.
  mean_.assign(d_, 0.0);
  inv_std_.assign(d_, 1.0);
  for (size_t i = 0; i < train.n(); ++i) {
    for (size_t j = 0; j < d_; ++j) mean_[j] += train.At(i, j);
  }
  for (size_t j = 0; j < d_; ++j) mean_[j] /= static_cast<double>(train.n());
  std::vector<double> var(d_, 0.0);
  for (size_t i = 0; i < train.n(); ++i) {
    for (size_t j = 0; j < d_; ++j) {
      const double dv = train.At(i, j) - mean_[j];
      var[j] += dv * dv;
    }
  }
  for (size_t j = 0; j < d_; ++j) {
    const double sd = std::sqrt(var[j] / static_cast<double>(train.n()));
    inv_std_[j] = sd > 1e-12 ? 1.0 / sd : 1.0;
  }

  BuildNetwork(d_, &rng);

  std::vector<size_t> rows(train.n());
  for (size_t i = 0; i < train.n(); ++i) rows[i] = i;
  if (options_.max_train_examples > 0 &&
      rows.size() > static_cast<size_t>(options_.max_train_examples)) {
    rows = rng.SampleWithoutReplacement(
        train.n(), static_cast<size_t>(options_.max_train_examples));
  }
  TrainEpochs(train, rows, options_.epochs, /*only_output=*/false, &rng);
}

namespace {

/// Per-thread inference scratch: two ping-pong activation matrices reused
/// across calls (they grow to the widest layer seen and stay warm).
struct NnScratch {
  Matrix a;
  Matrix b;
};

NnScratch& InferenceScratch() {
  static thread_local NnScratch scratch;
  return scratch;
}

}  // namespace

void NeuralNetClassifier::InferenceForward(const double* x,
                                           double* probs_out,
                                           double* hidden_out) const {
  AIMAI_CHECK(!layers_.empty());
  NnScratch& s = InferenceScratch();
  Matrix* cur = &s.a;
  Matrix* nxt = &s.b;

  cur->Resize(1, d_);
  double* in = cur->RowPtr(0);
  for (size_t j = 0; j < d_; ++j) in[j] = (x[j] - mean_[j]) * inv_std_[j];

  for (size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    if (l.output && hidden_out != nullptr) {
      const double* row = cur->RowPtr(0);
      std::copy(row, row + cur->cols(), hidden_out);
      if (probs_out == nullptr) return;
    }
    cur->MatMulInto(l.w, nxt);
    double* row = nxt->RowPtr(0);
    for (size_t j = 0; j < nxt->cols(); ++j) row[j] += l.b[j];
    if (l.output) {
      const size_t k = nxt->cols();
      std::copy(row, row + k, probs_out);
      SoftmaxInPlace(probs_out, k);
      return;
    }
    for (size_t j = 0; j < nxt->cols(); ++j) row[j] = std::tanh(row[j]);
    if (l.skip) {
      const double* prev = cur->RowPtr(0);
      for (size_t j = 0; j < nxt->cols(); ++j) row[j] += prev[j];
    }
    std::swap(cur, nxt);
  }
}

void NeuralNetClassifier::PredictProbaInto(const double* x,
                                           double* out) const {
  AIMAI_SPAN("ml.dnn.predict");
  InferenceForward(x, out, nullptr);
}

std::vector<double> NeuralNetClassifier::LastHiddenFeatures(
    const double* x) const {
  std::vector<double> out(LastHiddenDim());
  InferenceForward(x, nullptr, out.data());
  return out;
}

size_t NeuralNetClassifier::LastHiddenDim() const {
  AIMAI_CHECK(!layers_.empty());
  return layers_.back().w.rows();
}

void NeuralNetClassifier::RetrainOutputLayer(const Dataset& data, int epochs) {
  AIMAI_CHECK(!layers_.empty());
  Rng rng(options_.seed ^ 0x5151);
  current_lr_ = options_.learning_rate;
  std::vector<size_t> rows(data.n());
  for (size_t i = 0; i < data.n(); ++i) rows[i] = i;
  TrainEpochs(data, rows, epochs, /*only_output=*/true, &rng);
}

}  // namespace aimai
