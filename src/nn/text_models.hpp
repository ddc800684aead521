// Next-token prediction models for the text-like datasets.
//
// TextMlp: windowed language model — embeds the previous `context` tokens,
// concatenates, and applies a tanh MLP. This is the fast default used for
// config pools (DESIGN.md), with training dynamics that respond to the same
// HPs the paper tunes. Its prediction at a position depends only on the
// `context` tokens before it, so evaluation runs the forward pass once per
// distinct context and counts each position's error by a table lookup.
// Every forward kernel is row-wise (GEMM rows are independent for K <= the
// k-tile, see tensor/ops.hpp), so the result is bitwise the per-position
// one. When vocab^context exceeds kMaxContexts, evaluation runs one forward
// row per position instead.
//
// LstmLm: Embedding -> single-layer LSTM (BPTT) -> Linear over the vocab,
// matching the paper's 2-layer-LSTM architecture family at laptop scale.
#pragma once

#include <vector>

#include "nn/layers.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"
#include "nn/param_store.hpp"

namespace fedtune::nn {

class TextMlp final : public Model {
 public:
  TextMlp(std::size_t vocab, std::size_t context, std::size_t embed_dim,
          std::size_t hidden_dim);

  std::size_t num_params() const override { return store_.size(); }
  std::span<float> params() override { return store_.values(); }
  std::span<const float> params() const override { return store_.values(); }
  std::span<float> grads() override { return store_.grads(); }
  void zero_grad() override { store_.zero_grad(); }
  void init(Rng& rng) override;

  double forward_backward(const data::ClientData& client,
                          std::span<const std::size_t> idx) override;
  std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const override;
  void error_rates(std::span<const data::ClientData> clients,
                   std::span<const std::size_t> which,
                   std::span<double> out) const override;
  std::unique_ptr<Model> clone_architecture() const override;

  // Largest vocab^context evaluated by distinct context.
  static constexpr std::size_t kMaxContexts = std::size_t{1} << 16;

 private:
  using Count = std::pair<std::size_t, std::size_t>;

  // Builds (ids per slot, labels) for all predictable positions of the given
  // sequences. Returns #positions.
  std::size_t gather(const data::ClientData& client,
                     std::span<const std::size_t> idx) const;
  // embed→hidden→logits over the rows of slot_ids_.
  void forward_cached() const;
  // (wrong, total) of each clients[which[i]] into counts[i], with one
  // forward row per distinct context across all of them.
  void count_by_context(std::span<const data::ClientData> clients,
                        std::span<const std::size_t> which,
                        std::span<Count> counts) const;
  // One forward row per position; used when num_contexts_ == 0.
  Count errors_per_position(const data::ClientData& client) const;

  std::size_t vocab_;
  std::size_t context_;
  std::size_t embed_dim_;
  std::size_t hidden_dim_;
  std::size_t num_contexts_;  // vocab^context, 0 if above kMaxContexts
  ParamStore store_;
  Embedding embed_;
  Linear hidden_layer_;
  Linear out_layer_;

  // Scratch.
  mutable std::vector<std::vector<std::int32_t>> slot_ids_;  // [context][P]
  mutable std::vector<std::int32_t> labels_;
  // Distinct-context evaluation: forward row of each context code (-1 =
  // unseen), the codes seen, and each row's predicted token.
  mutable std::vector<std::int32_t> context_row_;
  mutable std::vector<std::size_t> seen_codes_;
  mutable std::vector<std::int32_t> predictions_;
  mutable Matrix embedded_;   // (P, context*E)
  mutable Matrix hidden_pre_, hidden_act_, logits_;
  mutable Matrix grad_logits_, grad_hidden_, grad_pre_, grad_embed_;
};

class LstmLm final : public Model {
 public:
  LstmLm(std::size_t vocab, std::size_t embed_dim, std::size_t hidden_dim);

  std::size_t num_params() const override { return store_.size(); }
  std::span<float> params() override { return store_.values(); }
  std::span<const float> params() const override { return store_.values(); }
  std::span<float> grads() override { return store_.grads(); }
  void zero_grad() override { store_.zero_grad(); }
  void init(Rng& rng) override;

  double forward_backward(const data::ClientData& client,
                          std::span<const std::size_t> idx) override;
  std::pair<std::size_t, std::size_t> errors(
      const data::ClientData& client) const override;
  std::unique_ptr<Model> clone_architecture() const override;

 private:
  std::size_t vocab_;
  std::size_t embed_dim_;
  std::size_t hidden_dim_;
  ParamStore store_;
  Embedding embed_;
  Lstm lstm_;
  Linear out_layer_;

  // Scratch.
  mutable std::vector<Matrix> x_seq_;
  mutable Lstm::Cache cache_;
  mutable Matrix h_all_, logits_, grad_logits_, grad_h_all_;
  mutable std::vector<Matrix> grad_h_seq_, grad_x_seq_;
  mutable std::vector<std::int32_t> step_ids_, labels_;
};

}  // namespace fedtune::nn
