#include "nn/text_models.hpp"

#include <algorithm>

#include "tensor/ops.hpp"

namespace fedtune::nn {

// ---------------------------------------------------------------- TextMlp --

namespace {

// vocab^context, or 0 when it exceeds `limit`.
std::size_t count_contexts(std::size_t vocab, std::size_t context,
                           std::size_t limit) {
  std::size_t n = 1;
  for (std::size_t j = 0; j < context; ++j) {
    if (n > limit / vocab) return 0;
    n *= vocab;
  }
  return n;
}

// dst row p = src row rows[p].
void copy_rows(const Matrix& src, std::span<const std::int32_t> rows,
               Matrix& dst) {
  const std::size_t cols = src.cols();
  dst.ensure_shape(rows.size(), cols);
  for (std::size_t p = 0; p < rows.size(); ++p) {
    std::copy_n(src.data() + static_cast<std::size_t>(rows[p]) * cols, cols,
                dst.data() + p * cols);
  }
}

}  // namespace

TextMlp::TextMlp(std::size_t vocab, std::size_t context, std::size_t embed_dim,
                 std::size_t hidden_dim)
    : vocab_(vocab), context_(context), embed_dim_(embed_dim),
      hidden_dim_(hidden_dim),
      embed_(store_, vocab, embed_dim),
      hidden_layer_(store_, context * embed_dim, hidden_dim),
      out_layer_(store_, hidden_dim, vocab) {
  FEDTUNE_CHECK(context >= 1);
  num_contexts_ = count_contexts(vocab, context, kMaxContexts);
  slot_ids_.resize(context_);
}

void TextMlp::init(Rng& rng) {
  embed_.init(rng);
  hidden_layer_.init(rng);
  out_layer_.init(rng);
}

std::unique_ptr<Model> TextMlp::clone_architecture() const {
  return std::make_unique<TextMlp>(vocab_, context_, embed_dim_, hidden_dim_);
}

void TextMlp::reset_rows() const {
  // Rows of the previous call (or of one a check interrupted) are unseen
  // again; resetting only those keeps the call O(positions), not O(table).
  context_row_.resize(num_contexts_, -1);
  for (const std::size_t code : seen_codes_) context_row_[code] = -1;
  seen_codes_.clear();
  for (auto& slot : slot_ids_) slot.clear();
}

std::size_t TextMlp::context_code(std::span<const std::int32_t> seq,
                                  std::size_t t) const {
  std::size_t code = 0;
  for (std::size_t j = t - context_; j < t; ++j) {
    code = code * vocab_ + static_cast<std::size_t>(seq[j]);
  }
  return code;
}

void TextMlp::check_context_tokens(std::span<const std::int32_t> seq) const {
  // Every token but the last is some position's context.
  for (std::size_t j = 0; j + 1 < seq.size(); ++j) {
    FEDTUNE_CHECK(static_cast<std::size_t>(seq[j]) < vocab_);
  }
}

std::int32_t TextMlp::context_row(std::span<const std::int32_t> seq,
                                  std::size_t t) const {
  const auto row = static_cast<std::int32_t>(slot_ids_[0].size());
  if (num_contexts_ != 0) {
    const std::size_t code = context_code(seq, t);
    if (context_row_[code] >= 0) return context_row_[code];
    context_row_[code] = row;
    seen_codes_.push_back(code);
  }
  for (std::size_t j = 0; j < context_; ++j) {
    slot_ids_[j].push_back(seq[t - context_ + j]);
  }
  return row;
}

std::size_t TextMlp::gather(const data::ClientData& client,
                            std::span<const std::size_t> idx) const {
  FEDTUNE_CHECK_MSG(client.seq_len > context_,
                    "sequences too short for context window");
  reset_rows();
  position_rows_.clear();
  labels_.clear();
  for (std::size_t s : idx) {
    FEDTUNE_CHECK(s < client.num_examples());
    const auto seq = client.sequence(s);
    check_context_tokens(seq);
    for (std::size_t t = context_; t < client.seq_len; ++t) {
      position_rows_.push_back(context_row(seq, t));
      labels_.push_back(seq[t]);
    }
  }
  return labels_.size();
}

void TextMlp::forward_cached() const {
  const std::size_t rows = slot_ids_[0].size();
  embedded_.ensure_shape(rows, context_ * embed_dim_);
  for (std::size_t j = 0; j < context_; ++j) {
    embed_.forward(slot_ids_[j], embedded_, j * embed_dim_);
  }
  hidden_layer_.forward(embedded_, hidden_pre_);
  ops::tanh_forward(hidden_pre_, hidden_act_);
  out_layer_.forward(hidden_act_, logits_);
}

double TextMlp::forward_backward(const data::ClientData& client,
                                 std::span<const std::size_t> idx) {
  FEDTUNE_CHECK(!idx.empty());
  const std::size_t positions = gather(client, idx);
  forward_cached();
  ops::softmax_rows(logits_, probs_);

  // Rows out to positions. Loss and backward pass run per position in the
  // order of a per-position forward pass, so every sum over positions (the
  // weight gradients, the embedding rows) adds the same terms in the same
  // order as if each position had its own forward row.
  copy_rows(probs_, position_rows_, grad_logits_);
  copy_rows(hidden_act_, position_rows_, position_act_);
  copy_rows(embedded_, position_rows_, position_embedded_);
  const double loss = ops::cross_entropy_from_probs(labels_, grad_logits_);

  out_layer_.backward(position_act_, grad_logits_, &grad_hidden_);
  ops::tanh_backward(position_act_, grad_hidden_, grad_pre_);
  hidden_layer_.backward(position_embedded_, grad_pre_, &grad_embed_);
  position_ids_.resize(positions);
  for (std::size_t j = 0; j < context_; ++j) {
    for (std::size_t p = 0; p < positions; ++p) {
      position_ids_[p] = slot_ids_[j][position_rows_[p]];
    }
    embed_.backward(position_ids_, grad_embed_, j * embed_dim_);
  }
  return loss;
}

void TextMlp::count_by_context(std::span<const data::ClientData> clients,
                               std::span<const std::size_t> which,
                               std::span<Count> counts) const {
  reset_rows();

  // Pass 1: one forward row per distinct context.
  for (const std::size_t k : which) {
    const data::ClientData& client = clients[k];
    if (client.num_examples() == 0) continue;
    FEDTUNE_CHECK_MSG(client.seq_len > context_,
                      "sequences too short for context window");
    for (std::size_t s = 0; s < client.num_examples(); ++s) {
      const auto seq = client.sequence(s);
      check_context_tokens(seq);
      for (std::size_t t = context_; t < client.seq_len; ++t) {
        context_row(seq, t);
      }
    }
  }

  if (!seen_codes_.empty()) {
    forward_cached();
    predictions_.resize(seen_codes_.size());
    for (std::size_t r = 0; r < predictions_.size(); ++r) {
      predictions_[r] = static_cast<std::int32_t>(ops::argmax_row(logits_, r));
    }
  }

  // Pass 2: each position's prediction against its label, per client.
  // Pass 1 checked and saw every context, so this only looks rows up
  // (storing each position's row would cost 4 bytes per evaluated token).
  for (std::size_t i = 0; i < which.size(); ++i) {
    const data::ClientData& client = clients[which[i]];
    counts[i] = {0, 0};
    for (std::size_t s = 0; s < client.num_examples(); ++s) {
      const auto seq = client.sequence(s);
      for (std::size_t t = context_; t < client.seq_len; ++t) {
        counts[i].first +=
            predictions_[context_row_[context_code(seq, t)]] != seq[t];
      }
      counts[i].second += client.seq_len - context_;
    }
  }
}

std::pair<std::size_t, std::size_t> TextMlp::errors(
    const data::ClientData& client) const {
  if (num_contexts_ == 0) return errors_per_position(client);
  const std::size_t which = 0;
  Count count;
  count_by_context({&client, 1}, {&which, 1}, {&count, 1});
  return count;
}

void TextMlp::error_rates(std::span<const data::ClientData> clients,
                          std::span<const std::size_t> which,
                          std::span<double> out) const {
  if (num_contexts_ == 0) return Model::error_rates(clients, which, out);
  FEDTUNE_CHECK(out.size() == which.size());
  std::vector<Count> counts(which.size());
  count_by_context(clients, which, counts);
  for (std::size_t i = 0; i < which.size(); ++i) out[i] = rate(counts[i]);
}

TextMlp::Count TextMlp::errors_per_position(
    const data::ClientData& client) const {
  const std::size_t n = client.num_examples();
  if (n == 0) return {0, 0};
  std::size_t wrong = 0, total = 0;
  // Chunked evaluation bounds the scratch matrices on large clients.
  constexpr std::size_t kChunk = 256;
  std::vector<std::size_t> idx;
  for (std::size_t start = 0; start < n; start += kChunk) {
    const std::size_t end = std::min(n, start + kChunk);
    idx.resize(end - start);
    for (std::size_t i = start; i < end; ++i) idx[i - start] = i;
    gather(client, idx);
    forward_cached();
    wrong += ops::count_errors(logits_, labels_);
    total += labels_.size();
  }
  return {wrong, total};
}

}  // namespace fedtune::nn
