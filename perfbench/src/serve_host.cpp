// serve-host: the traced stand-in for the primary fedtune_studyd in the
// serve-pair workload's traced run.
//
// It wires the same library objects the daemon's roster mode wires
// (StudyManager with the synth-small pool, ServiceHandler with a cluster
// context, JournalReplicator as the journal sink, net::Server on one
// EventLoop) and wraps two seams from the outside: the Server's handler
// (per-verb handle time) and ManagerOptions::journal_sink (time spent in
// JournalReplicator::on_mutation). Samples carry their CLOCK_MONOTONIC
// time so run.py can keep those inside the reference step's window. They
// are written to --out when the host is stopped with SIGTERM.
#include <sys/resource.h>

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>

#include "cluster/placement.hpp"
#include "cluster/replica_store.hpp"
#include "cluster/replicator.hpp"
#include "common/env.hpp"
#include "core/config_pool.hpp"
#include "data/synth_image.hpp"
#include "hpo/search_space.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "nn/factory.hpp"
#include "service/service_handler.hpp"
#include "service/study_manager.hpp"
#include "util.hpp"

namespace perfbench {

using namespace fedtune;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

// The daemon's built-in synth-small pool, built with the daemon's settings
// so the traced host serves the same substrate.
std::shared_ptr<const service::PoolResources> synth_small_pool() {
  data::SynthImageConfig cfg;
  cfg.name = "synth-small";
  cfg.num_train_clients = 30;
  cfg.num_eval_clients = 10;
  cfg.mean_examples = 40.0;
  cfg.input_dim = 16;
  cfg.seed = 4;
  const data::FederatedDataset ds = data::make_synth_image(cfg);
  const auto arch = nn::make_default_model(ds);
  core::PoolBuildOptions opts;
  opts.num_configs = 8;
  opts.checkpoints = {1, 3, 9};
  opts.trainer.clients_per_round = 8;
  opts.store_params = false;
  const core::ConfigPool pool =
      core::ConfigPool::build(ds, *arch, hpo::appendix_b_space(), opts);
  auto res = std::make_shared<service::PoolResources>();
  res->configs = pool.configs();
  res->view = pool.view();
  return res;
}

// Timestamped samples: (seconds since `base`, microseconds).
struct Series {
  std::vector<double> t, us;
};

}  // namespace

int cmd_serve_host(const Args& a) {
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGPIPE, SIG_IGN);
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    ::setrlimit(RLIMIT_NOFILE, &lim);
  }
  const double base = now_s();
  std::map<std::string, Series> handle;
  Series mutation;
  std::mutex mutation_mu;  // the sink may run on scheduler threads

  cluster::Roster roster = cluster::Roster::load(a.need("cluster-file"));
  const std::string self = a.need("self");
  const cluster::ClusterMember* me = roster.find(self);
  if (me == nullptr) throw std::invalid_argument("--self not in roster");
  const std::string host = me->host;
  const std::uint16_t port = me->port;

  service::ManagerOptions mopts;
  mopts.journal_dir = a.need("journal-dir");
  mopts.rounds_per_slice = 9;
  mopts.max_studies = static_cast<std::size_t>(std::stoull(a.need("max-studies")));
  auto replicas = std::make_unique<cluster::ReplicaStore>(mopts.journal_dir);
  cluster::ReplicatorOptions ropts;
  ropts.self_id = self;
  const std::string journal_dir = mopts.journal_dir;
  ropts.read_journal = [journal_dir](const std::string& study) {
    return Env::real().read_file(journal_dir + "/" + study + ".journal");
  };
  auto replicator =
      std::make_unique<cluster::JournalReplicator>(std::move(roster), std::move(ropts));
  mopts.journal_sink = [&, rep = replicator.get()](const std::string& study,
                                                    const service::JournalMutation& m) {
    const double t0 = now_s();
    rep->on_mutation(study, m);
    const double t1 = now_s();
    std::lock_guard<std::mutex> lock(mutation_mu);
    mutation.t.push_back(t0 - base);
    mutation.us.push_back(1e6 * (t1 - t0));
  };

  service::StudyManager manager(mopts);
  manager.register_pool("synth-small", synth_small_pool());
  manager.resume_all();
  service::ServiceHandler handler(manager, "synth-small");
  service::ClusterContext cctx;
  cctx.replicas = replicas.get();
  cctx.placement = &replicator->placement();
  cctx.self_id = self;
  handler.set_cluster(cctx);

  net::EventLoop loop;
  net::Server server(loop, net::ServerOptions{},
                     [&](const std::string& line, std::uint64_t, bool* keep_running) {
                       const double t0 = now_s();
                       std::string resp = handler.handle(line, keep_running);
                       const double t1 = now_s();
                       Series& s = handle[line.substr(0, line.find(' '))];
                       s.t.push_back(t0 - base);
                       s.us.push_back(1e6 * (t1 - t0));
                       return resp;
                     });
  if (!server.listen_tcp(host, port)) {
    std::cerr << "serve-host: cannot listen on " << host << ":" << port << "\n";
    return 1;
  }
  {
    std::ofstream pf(a.need("port-file"), std::ios::trunc);
    pf << server.tcp_port() << "\n";
  }
  while (!g_stop && !server.stopping()) {
    if (loop.run_once(200) < 0) break;
  }
  server.shutdown(200);
  replicator->flush(2.0);
  replicator->stop();

  Json verbs;
  for (const auto& [verb, s] : handle) {
    verbs.obj(verb, Json().arr("t", s.t).arr("us", s.us));
  }
  std::lock_guard<std::mutex> lock(mutation_mu);
  Json out;
  out.num("base", base)
      .obj("handle_us", verbs)
      .obj("on_mutation_us", Json().arr("t", mutation.t).arr("us", mutation.us));
  out.write(a.need("out"));
  return 0;
}

}  // namespace perfbench
