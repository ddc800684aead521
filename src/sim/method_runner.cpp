#include "sim/method_runner.hpp"

#include "common/check.hpp"
#include "hpo/bohb.hpp"
#include "hpo/hyperband.hpp"
#include "hpo/random_search.hpp"
#include "hpo/successive_halving.hpp"
#include "hpo/tpe.hpp"

namespace fedtune::sim {

std::string method_name(Method m) {
  switch (m) {
    case Method::kRandomSearch: return "RS";
    case Method::kTpe: return "TPE";
    case Method::kHyperband: return "HB";
    case Method::kBohb: return "BOHB";
  }
  return "?";
}

std::vector<Method> all_methods() {
  return {Method::kRandomSearch, Method::kTpe, Method::kHyperband,
          Method::kBohb};
}

core::DpStyle dp_style_for(Method) {
  // Per-evaluation Laplace for every method, with M = the method's own
  // planned evaluation count. This is what drives the paper's Observation 6:
  // HB/BOHB make an order of magnitude more (low-fidelity) evaluations than
  // RS/TPE, so their per-evaluation budget eps/M is far smaller and their
  // rung selections get scrambled. (DpStyle::kOneShotTopK remains available
  // as the alternative selection-only mechanism of Qiao et al.)
  return core::DpStyle::kPerEvaluation;
}

std::unique_ptr<hpo::Tuner> make_pool_tuner(
    Method method, const std::vector<hpo::Config>& configs,
    const core::PoolEvalView& view, std::size_t rs_configs, Rng rng) {
  FEDTUNE_CHECK(configs.size() == view.num_configs());
  const std::size_t max_rounds = view.checkpoints().back();
  const std::size_t r0 = view.checkpoints().front();
  hpo::SearchSpace space = hpo::appendix_b_space();
  hpo::CandidatePool pool{configs};

  switch (method) {
    case Method::kRandomSearch: {
      auto rs = std::make_unique<hpo::RandomSearch>(std::move(space),
                                                    rs_configs, max_rounds, rng);
      rs->set_candidate_pool(std::move(pool));
      return rs;
    }
    case Method::kTpe: {
      auto tpe = std::make_unique<hpo::Tpe>(std::move(space), rs_configs,
                                            max_rounds, hpo::TpeOptions{}, rng);
      tpe->set_candidate_pool(std::move(pool));
      return tpe;
    }
    case Method::kHyperband: {
      hpo::HyperbandOptions opts{3, r0, max_rounds};
      auto hb = std::make_unique<hpo::Hyperband>(std::move(space), opts, rng);
      hb->set_candidate_pool(std::move(pool));
      return hb;
    }
    case Method::kBohb: {
      hpo::BohbOptions opts;
      opts.hyperband = {3, r0, max_rounds};
      auto bohb = std::make_unique<hpo::Bohb>(std::move(space), opts, rng);
      bohb->set_candidate_pool(std::move(pool));
      return bohb;
    }
  }
  FEDTUNE_CHECK_MSG(false, "unknown method");
  return nullptr;
}

std::unique_ptr<hpo::Tuner> make_pool_sha_tuner(
    const std::vector<hpo::Config>& configs, const core::PoolEvalView& view,
    std::size_t n0, Rng rng) {
  FEDTUNE_CHECK(configs.size() == view.num_configs());
  FEDTUNE_CHECK(n0 > 0);
  hpo::ShaBracketParams params;
  params.n0 = n0;
  params.eta = 3;
  params.r0 = view.checkpoints().front();
  params.max_rounds = view.checkpoints().back();
  return std::make_unique<hpo::SuccessiveHalving>(
      params, hpo::uniform_pool_provider(configs), rng);
}

core::TuneResult run_pool_method(Method method,
                                 const std::vector<hpo::Config>& configs,
                                 const core::PoolEvalView& view,
                                 const core::NoiseModel& noise,
                                 std::size_t rs_configs, std::uint64_t seed) {
  Rng rng(seed);
  std::unique_ptr<hpo::Tuner> tuner =
      make_pool_tuner(method, configs, view, rs_configs, rng.split(1));
  core::PoolTrialRunner runner(view);
  core::DriverOptions opts;
  opts.noise = noise;
  opts.dp_style = dp_style_for(method);
  opts.seed = rng.split(2).seed();
  return core::run_tuning(*tuner, runner, opts);
}

std::size_t method_total_rounds(Method method, const core::PoolEvalView& view,
                                std::size_t rs_configs) {
  const std::size_t max_rounds = view.checkpoints().back();
  switch (method) {
    case Method::kRandomSearch:
    case Method::kTpe:
      return rs_configs * max_rounds;
    case Method::kHyperband:
    case Method::kBohb: {
      hpo::HyperbandOptions opts{3, view.checkpoints().front(), max_rounds};
      std::size_t total = 0;
      for (const auto& b : hpo::hyperband_brackets(opts)) {
        total += hpo::sha_schedule(b).total_training_rounds;
      }
      return total;
    }
  }
  return rs_configs * max_rounds;
}

}  // namespace fedtune::sim
