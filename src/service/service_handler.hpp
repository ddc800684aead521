// ServiceHandler — the StudyService verb dispatcher, factored out of the
// fedtune_studyd daemon so the network layer (net/server.hpp), the daemon
// binary, and the tests all drive the exact same request semantics.
//
// One request line in, one response line out (`ok ...` / `err ...`; the
// single multi-line exception is `metrics`, which answers `ok lines=N`
// followed by N raw Prometheus exposition lines). The handler owns no
// transport: it is a pure mapping from (line, manager state) to (response,
// manager state), so a request arriving in a frame over TCP or a Unix
// socket, or through a direct in-process call, is handled identically —
// which is what keeps kill/resume over any transport bitwise-identical to a
// serial run.
//
// Verb grammar: src/README.md §Network protocol.
#pragma once

#include <string>
#include <vector>

#include "service/study_manager.hpp"

namespace fedtune::cluster {
class Placement;
class ReplicaStore;
}  // namespace fedtune::cluster

namespace fedtune::service {

// Wiring that turns a handler into a cluster member: where follower copies
// of peer journals live, and the placement function used by the
// `cluster-info` verb. All pointers are borrowed and must outlive the
// handler; a default-constructed context (all null) means "not clustered" —
// every repl-* verb then answers `err not a cluster member`.
struct ClusterContext {
  cluster::ReplicaStore* replicas = nullptr;
  const cluster::Placement* placement = nullptr;
  std::string self_id;
};

class ServiceHandler {
 public:
  // `manager` outlives the handler. `default_pool` is the pool assigned to
  // create-study requests without an explicit pool= option. `metrics_file`
  // (optional) is rewritten by the `metrics` verb and flush_observability();
  // `trace_out` (optional) is the default target of `trace-export`.
  ServiceHandler(StudyManager& manager, std::string default_pool,
                 std::string metrics_file = "", std::string trace_out = "");

  // Handles one request line; returns the response line (without '\n').
  // `running` is cleared by `shutdown`. Never throws: handler exceptions
  // collapse to one-line `err ...` responses.
  std::string handle(const std::string& line, bool* running);

  // Final flush: persist the metrics exposition and the trace timeline so a
  // clean shutdown leaves both artifacts on disk without an explicit
  // request.
  void flush_observability();

  StudyManager& manager() { return manager_; }

  // Enables the cluster verbs (repl-append/repl-ack/repl-snapshot/promote/
  // cluster-info) and auto-promotion: a study-scoped verb for a study this
  // instance only holds a replica of first promotes that replica (journal
  // replay, zero live re-evaluations) and then serves the verb — which is
  // exactly what a failed-over client's first request does.
  void set_cluster(ClusterContext ctx) { cluster_ = ctx; }
  const ClusterContext& cluster() const { return cluster_; }

  // Hex-float-exact trajectory line for a session — the bitwise kill/resume
  // fingerprint (`trace` verb); exposed for tests that compare transports.
  static std::string format_trace(const StudySession& s);

 private:
  std::string metrics();
  std::string trace_export(const std::vector<std::string>& words);
  std::string cache_stats();
  std::string create_study(const std::vector<std::string>& words);
  std::string repl_append(const std::vector<std::string>& words);
  std::string repl_ack(const std::vector<std::string>& words);
  std::string repl_snapshot(const std::vector<std::string>& words);
  std::string promote(const std::string& name);
  std::string cluster_info(const std::vector<std::string>& words);
  // The one way a request brings a study into memory: the live session,
  // else a held replica promoted into the journal path, else the journal
  // resumed (StudyManager::find_or_resume); nullptr when there is neither.
  StudySession* take_over(const std::string& name);
  static std::string status(const StudySession& s);
  static std::string best(const StudySession& s);
  static std::string ask(StudySession& s);
  static std::string tell(StudySession& s,
                          const std::vector<std::string>& words);
  static std::string drive(StudySession& s,
                           const std::vector<std::string>& words);

  StudyManager& manager_;
  std::string default_pool_;
  std::string metrics_file_;  // rewritten by `metrics` and at shutdown
  std::string trace_out_;     // default target of `trace-export`
  ClusterContext cluster_;
};

}  // namespace fedtune::service
