#include "nn/gradcheck.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace fedtune::nn {

GradCheckResult gradient_check(Model& model, const data::ClientData& client,
                               std::span<const std::size_t> idx, Rng& rng,
                               std::size_t max_params, double step) {
  const std::size_t n = model.num_params();
  FEDTUNE_CHECK(n > 0);

  model.zero_grad();
  model.forward_backward(client, idx);
  // Snapshot analytic grads and params (forward_backward may reuse scratch).
  std::vector<float> analytic(model.grads().begin(), model.grads().end());
  std::vector<float> original(model.params().begin(), model.params().end());

  std::vector<std::size_t> which;
  if (max_params == 0 || max_params >= n) {
    which.resize(n);
    for (std::size_t i = 0; i < n; ++i) which[i] = i;
  } else {
    which = rng.sample_without_replacement(n, max_params);
  }

  GradCheckResult result;
  double sum_rel = 0.0;
  for (std::size_t pi : which) {
    auto params = model.params();
    params[pi] = original[pi] + static_cast<float>(step);
    model.zero_grad();
    const double loss_plus = model.forward_backward(client, idx);
    params[pi] = original[pi] - static_cast<float>(step);
    model.zero_grad();
    const double loss_minus = model.forward_backward(client, idx);
    params[pi] = original[pi];

    const double numeric = (loss_plus - loss_minus) / (2.0 * step);
    const double a = static_cast<double>(analytic[pi]);
    const double rel =
        std::abs(a - numeric) / (std::abs(a) + std::abs(numeric) + 1e-8);
    result.max_rel_error = std::max(result.max_rel_error, rel);
    sum_rel += rel;
  }
  result.checked = which.size();
  result.mean_rel_error =
      which.empty() ? 0.0 : sum_rel / static_cast<double>(which.size());

  // Restore exact original parameters.
  std::copy(original.begin(), original.end(), model.params().begin());
  return result;
}

}  // namespace fedtune::nn
