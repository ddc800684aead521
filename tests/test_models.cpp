// Model-level tests: gradient checks of every backward pass, overfitting
// sanity, clone independence, and exactness of batched text evaluation and
// of distinct-context text training.
#include <gtest/gtest.h>

#include <bit>
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

// Reference TextMlp training step: one forward row per position, rebuilt
// from the layers over a copy of the model's parameters. Returns the loss;
// `grads` receives the gradient of this step alone.
double per_position_step(const Model& model, const TextDims& d,
                         const data::ClientData& client,
                         std::span<const std::size_t> idx,
                         std::vector<float>& grads) {
  ParamStore store;
  Embedding embed(store, d.vocab, d.embed);
  Linear hidden(store, d.context * d.embed, d.hidden);
  Linear out(store, d.hidden, d.vocab);
  EXPECT_EQ(store.size(), model.num_params());
  std::copy(model.params().begin(), model.params().end(),
            store.values().begin());
  const std::size_t rows = idx.size() * (client.seq_len - d.context);
  std::vector<std::vector<std::int32_t>> ids(
      d.context, std::vector<std::int32_t>(rows));
  std::vector<std::int32_t> labels(rows);
  std::size_t p = 0;
  for (const std::size_t s : idx) {
    const auto seq = client.sequence(s);
    for (std::size_t t = d.context; t < client.seq_len; ++t, ++p) {
      for (std::size_t j = 0; j < d.context; ++j) {
        ids[j][p] = seq[t - d.context + j];
      }
      labels[p] = seq[t];
    }
  }
  Matrix x(rows, d.context * d.embed), pre, act, logits;
  Matrix grad_logits, grad_act, grad_pre, grad_x;
  for (std::size_t j = 0; j < d.context; ++j) {
    embed.forward(ids[j], x, j * d.embed);
  }
  hidden.forward(x, pre);
  ops::tanh_forward(pre, act);
  out.forward(act, logits);
  const double loss = ops::softmax_cross_entropy(logits, labels, grad_logits);
  out.backward(act, grad_logits, &grad_act);
  ops::tanh_backward(act, grad_act, grad_pre);
  hidden.backward(x, grad_pre, &grad_x);
  for (std::size_t j = 0; j < d.context; ++j) {
    embed.backward(ids[j], grad_x, j * d.embed);
  }
  grads.assign(store.grads().begin(), store.grads().end());
  return loss;
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](float x, float y) {
                      return std::bit_cast<std::uint32_t>(x) ==
                             std::bit_cast<std::uint32_t>(y);
                    });
}

// One training step of `model` against the per-position reference: loss
// and every gradient entry bitwise equal.
void expect_step_matches_reference(TextMlp& model, const TextDims& d,
                                   const data::ClientData& client,
                                   std::span<const std::size_t> idx) {
  model.zero_grad();
  const double loss = model.forward_backward(client, idx);
  std::vector<float> ref_grads;
  const double ref_loss = per_position_step(model, d, client, idx, ref_grads);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(loss),
            std::bit_cast<std::uint64_t>(ref_loss))
      << "vocab=" << d.vocab << " context=" << d.context;
  EXPECT_TRUE(bitwise_equal(model.grads(), ref_grads))
      << "vocab=" << d.vocab << " context=" << d.context;
}

TEST(TextMlp, TrainingMatchesPerPositionReference) {
  Rng rng(13);
  // vocab^context: 9 (nearly every context repeats), 6, 36, 1728, the
  // shipped text model's 32^2 with its embed and hidden sizes, and
  // 90000 > kMaxContexts (identity row map).
  const std::vector<TextDims> dims = {{3, 2, 4, 5},   {6, 1, 4, 5},
                                      {6, 2, 4, 5},   {12, 3, 3, 7},
                                      {32, 2, 8, 24}, {300, 2, 3, 5}};
  ASSERT_GT(300u * 300u, TextMlp::kMaxContexts);
  for (const TextDims& d : dims) {
    TextMlp model = make_text_mlp(d);
    randomize(model, rng);
    const data::ClientData client =
        small_token_client(rng, 40, d.context + 9, d.vocab);
    // One sequence; a shuffled minibatch with a repeat; every sequence.
    const std::vector<std::vector<std::size_t>> batches = {
        {0}, {5, 3, 5, 0, 39}, iota_idx(40)};
    for (const auto& idx : batches) {
      expect_step_matches_reference(model, d, client, idx);
    }
  }
}

TEST(TextMlp, TrainingKeepsInputChecks) {
  Rng rng(14);
  for (const TextDims& d : {TextDims{6, 2, 4, 5}, TextDims{300, 2, 3, 5}}) {
    TextMlp model = make_text_mlp(d);
    randomize(model, rng);
    const auto vocab = static_cast<std::int32_t>(d.vocab);
    const data::ClientData good = small_token_client(rng, 20, 5, d.vocab);
    // Sequence 5 holds tokens 25..29: 25..28 are contexts, 29 only a label.
    data::ClientData bad_context = good;
    bad_context.tokens[27] = vocab;
    data::ClientData negative_context = good;
    negative_context.tokens[25] = -1;
    data::ClientData bad_label = good;
    bad_label.tokens[29] = vocab;
    const data::ClientData too_short = small_token_client(rng, 3, 2, d.vocab);

    const std::vector<std::size_t> idx = {4, 5, 6};
    for (const data::ClientData* bad :
         {&bad_context, &negative_context, &bad_label}) {
      EXPECT_THROW(model.forward_backward(*bad, idx), std::invalid_argument);
    }
    const std::vector<std::size_t> first = {0};
    EXPECT_THROW(model.forward_backward(too_short, first),
                 std::invalid_argument);
    const std::vector<std::size_t> past_end = {20};
    EXPECT_THROW(model.forward_backward(good, past_end),
                 std::invalid_argument);
    // An interrupted step leaves no stale context rows behind.
    expect_step_matches_reference(model, d, good, idx);
  }
}

TEST(TextMlp, TrainingAndEvaluationLeaveNoStaleRows) {
  Rng rng(15);
  const TextDims d{6, 2, 4, 5};
  TextMlp model = make_text_mlp(d);
  randomize(model, rng);
  const std::vector<data::ClientData> clients = {
      small_token_client(rng, 30, 6, d.vocab),
      small_token_client(rng, 12, 6, d.vocab)};
  const data::ClientData train = small_token_client(rng, 12, 6, d.vocab);
  const std::vector<std::size_t> which = {0, 1};
  const std::vector<std::size_t> idx = {2, 7, 7, 11};
  std::vector<double> before(2), after(2);
  model.error_rates(clients, which, before);
  expect_step_matches_reference(model, d, train, idx);
  model.error_rates(clients, which, after);
  for (std::size_t i = 0; i < which.size(); ++i) {
    const double ref = rate(per_position_errors(model, d, clients[i]));
    EXPECT_EQ(before[i], ref) << i;
    EXPECT_EQ(after[i], ref) << i;
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
