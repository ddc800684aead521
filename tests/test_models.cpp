// Model-level tests: gradient checks of every backward pass, overfitting
// sanity, clone independence, and exactness of batched text evaluation.
#include <gtest/gtest.h>

#include <numeric>

#include "core/config_pool.hpp"
#include "fl/evaluator.hpp"
#include "hpo/search_space.hpp"
#include "nn/gradcheck.hpp"
#include "nn/mlp.hpp"
#include "nn/text_models.hpp"
#include "tensor/ops.hpp"
#include "test_util.hpp"

namespace fedtune::nn {
namespace {

std::vector<std::size_t> iota_idx(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  return idx;
}

data::ClientData small_classification_client(Rng& rng, std::size_t n = 12,
                                              std::size_t dim = 5,
                                              std::size_t classes = 3) {
  data::ClientData c;
  c.features = Matrix::randn(n, dim, rng);
  c.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.labels[i] = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  }
  return c;
}

data::ClientData small_token_client(Rng& rng, std::size_t n = 6,
                                    std::size_t len = 5,
                                    std::size_t vocab = 6) {
  data::ClientData c;
  c.seq_len = len;
  c.tokens.resize(n * len);
  for (auto& t : c.tokens) {
    t = static_cast<std::int32_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(vocab) - 1));
  }
  return c;
}

TEST(MlpClassifier, GradientCheck) {
  Rng rng(1);
  MlpClassifier model(5, {6, 4}, 3);
  model.init(rng);
  const data::ClientData client = small_classification_client(rng);
  const auto idx = iota_idx(client.num_examples());
  const GradCheckResult r = gradient_check(model, client, idx, rng, 40);
  EXPECT_LT(r.max_rel_error, 5e-2) << "mean: " << r.mean_rel_error;
}

TEST(MlpClassifier, GradientCheckNoHiddenLayer) {
  Rng rng(2);
  MlpClassifier model(4, {}, 3);  // logistic regression
  model.init(rng);
  const data::ClientData client = small_classification_client(rng, 8, 4, 3);
  const auto idx = iota_idx(client.num_examples());
  const GradCheckResult r = gradient_check(model, client, idx, rng, 0);
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(TextMlp, GradientCheck) {
  Rng rng(3);
  TextMlp model(6, 2, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng);
  const auto idx = iota_idx(client.num_examples());
  const GradCheckResult r = gradient_check(model, client, idx, rng, 40);
  EXPECT_LT(r.max_rel_error, 5e-2);
}

TEST(LstmLm, GradientCheck) {
  Rng rng(4);
  LstmLm model(6, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 4, 5, 6);
  const auto idx = iota_idx(client.num_examples());
  // float32 storage limits the central difference to gradients above
  // ~eps(loss)/step ≈ 1e-4; below that the quotient is quantization noise.
  const GradCheckResult r =
      gradient_check(model, client, idx, rng, 60, 1e-3, /*noise_floor=*/1e-4);
  EXPECT_LT(r.max_rel_error, 0.15) << "mean: " << r.mean_rel_error;
  EXPECT_LT(r.mean_rel_error, 2e-2);
}

TEST(MlpClassifier, OverfitsTinyDataset) {
  Rng rng(5);
  MlpClassifier model(4, {16}, 3);
  model.init(rng);
  // Well-separated classes.
  data::ClientData client;
  client.features = Matrix(12, 4);
  client.labels.resize(12);
  for (std::size_t i = 0; i < 12; ++i) {
    const std::int32_t y = static_cast<std::int32_t>(i % 3);
    client.labels[i] = y;
    client.features(i, static_cast<std::size_t>(y)) = 3.0f;
  }
  const auto idx = iota_idx(12);
  double last_loss = 0.0;
  for (int step = 0; step < 300; ++step) {
    model.zero_grad();
    last_loss = model.forward_backward(client, idx);
    auto params = model.params();
    const auto grads = model.grads();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= 0.3f * grads[i];
    }
  }
  EXPECT_LT(last_loss, 0.1);
  EXPECT_EQ(model.errors(client).first, 0u);
}

TEST(LstmLm, LearnsDeterministicSequence) {
  Rng rng(6);
  LstmLm model(4, 6, 8);
  model.init(rng);
  // One repeating pattern 0,1,2,3,0,1,2,3 — fully predictable.
  data::ClientData client;
  client.seq_len = 8;
  for (int s = 0; s < 4; ++s) {
    for (int t = 0; t < 8; ++t) {
      client.tokens.push_back(static_cast<std::int32_t>((s + t) % 4));
    }
  }
  const auto idx = iota_idx(4);
  for (int step = 0; step < 400; ++step) {
    model.zero_grad();
    model.forward_backward(client, idx);
    auto params = model.params();
    const auto grads = model.grads();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i] -= 0.5f * grads[i];
    }
  }
  const auto [wrong, total] = model.errors(client);
  EXPECT_EQ(total, 4u * 7u);
  EXPECT_LT(static_cast<double>(wrong) / static_cast<double>(total), 0.05);
}

TEST(Model, CloneArchitectureIsIndependent) {
  Rng rng(7);
  MlpClassifier model(4, {5}, 3);
  model.init(rng);
  auto clone = model.clone_architecture();
  EXPECT_EQ(clone->num_params(), model.num_params());
  clone->init(rng);
  clone->params()[0] = 123.0f;
  EXPECT_NE(model.params()[0], 123.0f);
}

TEST(Model, ErrorRateEmptyClientIsOne) {
  MlpClassifier model(4, {}, 2);
  data::ClientData empty;
  empty.features = Matrix(0, 4);
  EXPECT_DOUBLE_EQ(model.error_rate(empty), 1.0);
}

struct TextDims {
  std::size_t vocab, context, embed, hidden;
};

TextMlp make_text_mlp(const TextDims& d) {
  return TextMlp(d.vocab, d.context, d.embed, d.hidden);
}

// Every parameter random, biases included, so predictions vary by context.
void randomize(Model& model, Rng& rng) {
  for (float& v : model.params()) v = static_cast<float>(rng.normal());
}

// Reference TextMlp evaluation: one forward row per predicted position,
// rebuilt from the layers over a copy of the model's parameters.
std::pair<std::size_t, std::size_t> per_position_errors(
    const Model& model, const TextDims& d, const data::ClientData& client) {
  ParamStore store;
  const Embedding embed(store, d.vocab, d.embed);
  const Linear hidden(store, d.context * d.embed, d.hidden);
  const Linear out(store, d.hidden, d.vocab);
  EXPECT_EQ(store.size(), model.num_params());
  std::copy(model.params().begin(), model.params().end(),
            store.values().begin());
  if (client.num_examples() == 0) return {0, 0};
  const std::size_t rows = client.num_examples() * (client.seq_len - d.context);
  Matrix x(rows, d.context * d.embed), pre, act, logits;
  std::vector<std::int32_t> ids(rows), labels(rows);
  for (std::size_t j = 0; j < d.context; ++j) {
    std::size_t p = 0;
    for (std::size_t s = 0; s < client.num_examples(); ++s) {
      const auto seq = client.sequence(s);
      for (std::size_t t = d.context; t < client.seq_len; ++t, ++p) {
        ids[p] = seq[t - d.context + j];
        labels[p] = seq[t];
      }
    }
    embed.forward(ids, x, j * d.embed);
  }
  hidden.forward(x, pre);
  ops::tanh_forward(pre, act);
  out.forward(act, logits);
  return {ops::count_errors(logits, labels), rows};
}

double rate(std::pair<std::size_t, std::size_t> count) {
  return count.second == 0 ? 1.0
                           : static_cast<double>(count.first) /
                                 static_cast<double>(count.second);
}

TEST(TextMlp, BatchedEvalMatchesPerPositionReference) {
  Rng rng(8);
  // vocab^context: 6, 36, 1728 (more contexts than positions requested),
  // 625, and 90000 > kMaxContexts (per-position evaluation).
  const std::vector<TextDims> dims = {
      {6, 1, 4, 5}, {6, 2, 4, 5}, {12, 3, 3, 7}, {5, 4, 2, 6}, {300, 2, 3, 5}};
  ASSERT_GT(300u * 300u, TextMlp::kMaxContexts);
  for (const TextDims& d : dims) {
    TextMlp model = make_text_mlp(d);
    randomize(model, rng);
    std::vector<data::ClientData> clients;
    for (const std::size_t n : {40, 1, 0, 7, 300}) {
      clients.push_back(small_token_client(rng, n, d.context + 3, d.vocab));
    }
    // Out of order, repeated, and the empty client in the middle.
    const std::vector<std::size_t> which = {4, 0, 2, 1, 0, 3};
    std::vector<double> batched(which.size());
    model.error_rates(clients, which, batched);
    for (std::size_t i = 0; i < which.size(); ++i) {
      const data::ClientData& client = clients[which[i]];
      const auto ref = per_position_errors(model, d, client);
      EXPECT_EQ(model.errors(client), ref)
          << "vocab=" << d.vocab << " context=" << d.context;
      EXPECT_EQ(batched[i], rate(ref))
          << "vocab=" << d.vocab << " context=" << d.context << " i=" << i;
    }
  }
}

TEST(TextMlp, BatchedEvalKeepsInputChecks) {
  Rng rng(11);
  const TextDims d{6, 2, 4, 5};
  TextMlp model = make_text_mlp(d);
  randomize(model, rng);
  const data::ClientData good = small_token_client(rng, 20, 5, 6);
  const data::ClientData empty = small_token_client(rng, 0, 5, 6);
  data::ClientData bad_token = good;
  bad_token.tokens[27] = 6;  // a context token of sequence 5
  const data::ClientData too_short = small_token_client(rng, 3, 2, 6);

  const std::vector<data::ClientData> clients = {good, bad_token, too_short,
                                                 empty};
  std::vector<double> out(2);
  for (const std::size_t bad : {1, 2}) {
    const std::vector<std::size_t> which = {0, bad};
    EXPECT_THROW(model.error_rates(clients, which, out), std::invalid_argument);
    EXPECT_THROW(model.errors(clients[bad]), std::invalid_argument);
  }
  EXPECT_DOUBLE_EQ(model.error_rate(empty), 1.0);
  const std::vector<std::size_t> which = {3, 0};
  model.error_rates(clients, which, out);
  EXPECT_DOUBLE_EQ(out[0], 1.0);
  // An interrupted call leaves no stale context rows behind.
  EXPECT_EQ(out[1], rate(per_position_errors(model, d, good)));
}

TEST(TextMlp, ClientErrorsSerialEqualsParallel) {
  Rng rng(12);
  const data::FederatedDataset ds = testutil::small_text_dataset();
  TextMlp model(ds.vocab_size(), 2, 4, 6);
  randomize(model, rng);
  std::vector<std::size_t> which(ds.eval_clients.size());
  std::iota(which.rbegin(), which.rend(), std::size_t{0});
  const auto serial = fl::client_errors(model, ds.eval_clients, which, 1);
  const auto parallel = fl::client_errors(model, ds.eval_clients, which, 0);
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < which.size(); ++i) {
    EXPECT_EQ(serial[i], model.error_rate(ds.eval_clients[which[i]]));
  }
}

// TextMlp that evaluates per position through the default
// Model::error_rates loop: the reference a pool build must match.
class PerPositionTextMlp final : public Model {
 public:
  explicit PerPositionTextMlp(const TextDims& d)
      : d_(d), inner_(make_text_mlp(d)) {}

  std::size_t num_params() const override { return inner_.num_params(); }
  std::span<float> params() override { return inner_.params(); }
  std::span<const float> params() const override { return inner_.params(); }
  std::span<float> grads() override { return inner_.grads(); }
  void zero_grad() override { inner_.zero_grad(); }
  void init(Rng& rng) override { inner_.init(rng); }
  double forward_backward(const data::ClientData& client,
                          std::span<const std::size_t> idx) override {
    return inner_.forward_backward(client, idx);
  }
  std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const override {
    return per_position_errors(inner_, d_, client);
  }
  std::unique_ptr<Model> clone_architecture() const override {
    return std::make_unique<PerPositionTextMlp>(d_);
  }

 private:
  TextDims d_;
  TextMlp inner_;
};

TEST(TextMlp, PoolBuildMatchesPerPositionEvaluation) {
  const data::FederatedDataset ds = testutil::small_text_dataset();
  const TextDims d{ds.vocab_size(), 2, 4, 6};
  core::PoolBuildOptions opts;
  opts.num_configs = 4;
  opts.checkpoints = {1, 3};
  opts.trainer.clients_per_round = 5;
  opts.num_threads = 2;
  const auto space = hpo::appendix_b_space();
  const core::ConfigPool batched =
      core::ConfigPool::build(ds, make_text_mlp(d), space, opts);
  const core::ConfigPool reference =
      core::ConfigPool::build(ds, PerPositionTextMlp(d), space, opts);
  for (std::size_t c = 0; c < opts.num_configs; ++c) {
    for (std::size_t ck = 0; ck < opts.checkpoints.size(); ++ck) {
      const auto a = batched.view().errors(c, ck);
      const auto b = reference.view().errors(c, ck);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "config " << c << " checkpoint " << ck;
    }
  }
}

TEST(TextMlp, RejectsTooShortSequences) {
  Rng rng(9);
  TextMlp model(6, 3, 4, 5);
  model.init(rng);
  const data::ClientData client = small_token_client(rng, 2, 3, 6);
  const std::vector<std::size_t> idx = {0};
  EXPECT_THROW(model.forward_backward(client, idx), std::invalid_argument);
}

TEST(Gradcheck, RestoresParameters) {
  Rng rng(10);
  MlpClassifier model(4, {4}, 2);
  model.init(rng);
  const std::vector<float> before(model.params().begin(), model.params().end());
  const data::ClientData client = small_classification_client(rng, 6, 4, 2);
  const auto idx = iota_idx(6);
  gradient_check(model, client, idx, rng, 10);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(model.params()[i], before[i]);
  }
}

}  // namespace
}  // namespace fedtune::nn
