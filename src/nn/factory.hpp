// Default model architectures per dataset, mirroring the paper's choices at
// laptop scale: a 2-hidden-layer network for image classification (standing
// in for the 2-layer CNN) and a windowed embedding LM for next-token
// prediction.
#pragma once

#include <memory>

#include "data/client_data.hpp"
#include "nn/model.hpp"

namespace fedtune::nn {

// Fast default used by config pools and benches.
std::unique_ptr<Model> make_default_model(const data::FederatedDataset& ds);

}  // namespace fedtune::nn
