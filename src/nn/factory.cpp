#include "nn/factory.hpp"

#include "nn/mlp.hpp"
#include "nn/text_models.hpp"

namespace fedtune::nn {

std::unique_ptr<Model> make_default_model(const data::FederatedDataset& ds) {
  if (ds.task == data::TaskKind::kClassification) {
    return std::make_unique<MlpClassifier>(
        ds.input_dim, std::vector<std::size_t>{32, 32}, ds.num_classes);
  }
  return std::make_unique<TextMlp>(ds.vocab_size(), /*context=*/2,
                                   /*embed_dim=*/8, /*hidden_dim=*/24);
}

}  // namespace fedtune::nn
