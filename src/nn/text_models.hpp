// Next-token prediction models for the text-like datasets.
//
// TextMlp: windowed language model — embeds the previous `context` tokens,
// concatenates, and applies a tanh MLP. This is the fast default used for
// config pools (DESIGN.md), with training dynamics that respond to the same
// HPs the paper tunes. Its prediction at a position depends only on the
// `context` tokens before it, so training and evaluation run the forward
// pass (embedding gather, hidden GEMM, tanh, output GEMM, and in training
// the softmax) once per distinct context. Evaluation then counts each
// position's error by a table lookup; training copies the rows out to
// positions and runs the loss and the whole backward pass per position, in
// the per-position order, so no gradient sum is regrouped. Every forward
// kernel is row-wise (GEMM rows are independent for K <= the k-tile, see
// tensor/ops.hpp), so the result is bitwise the per-position one. When
// vocab^context exceeds kMaxContexts, every position gets its own forward
// row (the row map is the identity) and evaluation goes per client.
//
// The tanh is ops::tanh_forward, a port of glibc's tanhf compiled without
// FP contraction, so model outputs do not depend on the host's libm.
#pragma once

#include <vector>

#include "nn/layers.hpp"
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

  // Forgets the forward rows of the previous call.
  void reset_rows() const;
  // Checks that every token of seq that is some position's context is
  // < vocab; context_code and context_row rely on it.
  void check_context_tokens(std::span<const std::int32_t> seq) const;
  // Index of the `context` tokens before position t of seq in
  // [0, vocab^context).
  std::size_t context_code(std::span<const std::int32_t> seq,
                           std::size_t t) const;
  // Forward row of the `context` tokens before position t of seq. A context
  // not seen since reset_rows() gets a new row, its tokens appended to
  // slot_ids_; with num_contexts_ == 0 every call does. The one indexing
  // step training and evaluation share.
  std::int32_t context_row(std::span<const std::int32_t> seq,
                           std::size_t t) const;
  // Forward rows (slot_ids_), each position's row (position_rows_) and
  // labels for all predictable positions of the given sequences. Returns
  // #positions.
  std::size_t gather(const data::ClientData& client,
                     std::span<const std::size_t> idx) const;
  // embed→hidden→logits over the rows of slot_ids_.
  void forward_cached() const;
  // (wrong, total) of each clients[which[i]] into counts[i], with one
  // forward row per distinct context across all of them.
  void count_by_context(std::span<const data::ClientData> clients,
                        std::span<const std::size_t> which,
                        std::span<Count> counts) const;
  // One forward row per position (gather maps each position to its own
  // row); used when num_contexts_ == 0.
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

  // Scratch. R = forward rows (distinct contexts), P = positions.
  mutable std::vector<std::vector<std::int32_t>> slot_ids_;  // [context][R]
  mutable std::vector<std::int32_t> position_rows_;          // [P] -> row
  mutable std::vector<std::int32_t> labels_;                 // [P]
  mutable std::vector<std::int32_t> position_ids_;           // [P], one slot
  // Forward row of each context code (-1 = unseen), the codes seen, and in
  // evaluation each row's predicted token.
  mutable std::vector<std::int32_t> context_row_;
  mutable std::vector<std::size_t> seen_codes_;
  mutable std::vector<std::int32_t> predictions_;
  mutable Matrix embedded_;   // (R, context*E)
  mutable Matrix hidden_pre_, hidden_act_, logits_, probs_;  // (R, .)
  // Per-position copies the backward pass reads.
  mutable Matrix position_embedded_, position_act_;          // (P, .)
  mutable Matrix grad_logits_, grad_hidden_, grad_pre_, grad_embed_;
};

}  // namespace fedtune::nn
