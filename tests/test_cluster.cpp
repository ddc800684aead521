// Horizontal StudyService tests: consistent-hash placement (determinism,
// line-order independence, spread, single-member stability under roster
// growth), the ReplicaStore's strict-contiguity append contract (loss,
// reorder and duplication rejected with the replica's actual size), the
// journal-sink byte-identity invariant (applying the mutation stream yields
// a bitwise copy of the journal), promotion at every mutation boundary with
// a bitwise-identical trace and zero live re-evaluations, snapshot
// catch-up after an offset mismatch through a real JournalReplicator,
// promote's error reporting, and socket end-to-end replication + failover
// against a live follower daemon.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.hpp"
#include "cluster/replica_store.hpp"
#include "cluster/replicator.hpp"
#include "core/config_pool.hpp"
#include "hpo/search_space.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#include "nn/factory.hpp"
#include "service/service_handler.hpp"
#include "service/study_manager.hpp"
#include "test_util.hpp"

namespace fedtune::cluster {
namespace {

using service::JournalMutation;

// ---------------------------------------------------------------------------
// Hashing and roster parsing

TEST(Fnv1a64, MatchesReferenceVectors) {
  // Published FNV-1a 64-bit vectors — the ring hash must be stable across
  // platforms, builds, and time, or a mixed-version fleet disagrees on
  // placement.
  EXPECT_EQ(fnv1a64(""), 14695981039346656037ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(RosterParse, ParsesCommentsBlanksAndSortsById) {
  const Roster r = Roster::parse(
      "# fleet roster\n"
      "\n"
      "zeta 10.0.0.3:9003\n"
      "alpha 10.0.0.1:9001\n"
      "mid 10.0.0.2:9002\n",
      "test");
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.members()[0].id, "alpha");
  EXPECT_EQ(r.members()[1].id, "mid");
  EXPECT_EQ(r.members()[2].id, "zeta");
  EXPECT_EQ(r.members()[0].endpoint(), "10.0.0.1:9001");
  ASSERT_NE(r.find("zeta"), nullptr);
  EXPECT_EQ(r.find("zeta")->port, 9003);
  EXPECT_EQ(r.find("nope"), nullptr);
}

TEST(RosterParse, RejectsMalformedLines) {
  // Missing endpoint.
  EXPECT_THROW(Roster::parse("a\n", "t"), std::invalid_argument);
  // Extra field.
  EXPECT_THROW(Roster::parse("a 1.2.3.4:1 junk\n", "t"),
               std::invalid_argument);
  // No colon / empty host / empty port.
  EXPECT_THROW(Roster::parse("a 1.2.3.4\n", "t"), std::invalid_argument);
  EXPECT_THROW(Roster::parse("a :9001\n", "t"), std::invalid_argument);
  EXPECT_THROW(Roster::parse("a 1.2.3.4:\n", "t"), std::invalid_argument);
  // Non-numeric, out-of-range, and trailing-junk ports.
  EXPECT_THROW(Roster::parse("a h:port\n", "t"), std::invalid_argument);
  EXPECT_THROW(Roster::parse("a h:70000\n", "t"), std::invalid_argument);
  EXPECT_THROW(Roster::parse("a h:12x\n", "t"), std::invalid_argument);
  // Duplicate ids.
  EXPECT_THROW(Roster::parse("a h:1\na h:2\n", "t"), std::invalid_argument);
  // Unreadable file.
  EXPECT_THROW(Roster::load("/nonexistent/fedtune/roster.txt"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Placement

std::vector<std::string> study_names(std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back("study-" + std::to_string(i));
  }
  return names;
}

TEST(PlacementTest, DeterministicAndLineOrderIndependent) {
  const Placement p1(Roster::parse("a h1:1\nb h2:2\nc h3:3\n", "t"));
  const Placement p2(Roster::parse("c h3:3\na h1:1\nb h2:2\n", "t"));
  ASSERT_EQ(p1.roster().members().size(), p2.roster().members().size());
  for (const std::string& s : study_names(200)) {
    const StudyPlacement a = p1.place(s);
    const StudyPlacement b = p2.place(s);
    EXPECT_EQ(a.primary.id, b.primary.id) << s;
    ASSERT_TRUE(a.follower.has_value());
    ASSERT_TRUE(b.follower.has_value());
    EXPECT_EQ(a.follower->id, b.follower->id) << s;
    // Repeated placement of the same name never changes.
    EXPECT_EQ(p1.place(s).primary.id, a.primary.id);
  }
}

TEST(PlacementTest, FollowerIsAlwaysADistinctMember) {
  for (int members = 2; members <= 5; ++members) {
    std::string text;
    for (int i = 0; i < members; ++i) {
      text += "m";
      text += std::to_string(i);
      text += " h:";
      text += std::to_string(9000 + i);
      text += "\n";
    }
    const Placement p(Roster::parse(text, "t"));
    for (const std::string& s : study_names(200)) {
      const StudyPlacement sp = p.place(s);
      ASSERT_TRUE(sp.follower.has_value());
      EXPECT_NE(sp.primary.id, sp.follower->id) << s;
    }
  }
}

TEST(PlacementTest, SingleMemberRosterHasNoFollower) {
  const Placement p(Roster::parse("only h:1\n", "t"));
  const StudyPlacement sp = p.place("s");
  EXPECT_EQ(sp.primary.id, "only");
  EXPECT_FALSE(sp.follower.has_value());
  EXPECT_FALSE(p.replica_target("s", "only").has_value());
}

TEST(PlacementTest, VirtualNodesSpreadPrimariesEvenly) {
  const Placement p(Roster::parse("a h:1\nb h:2\nc h:3\nd h:4\n", "t"));
  std::map<std::string, std::size_t> counts;
  const std::size_t n = 2000;
  for (const std::string& s : study_names(n)) ++counts[p.primary(s).id];
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [id, count] : counts) {
    // Perfect split is 500; 64 vnodes keeps each member within a loose
    // 3x band of fair share (the test pins "not arbitrarily lopsided",
    // not a distribution tail).
    EXPECT_GT(count, n / 4 / 3) << id;
    EXPECT_LT(count, n * 3 / 4) << id;
  }
}

TEST(PlacementTest, GrowingTheRosterOnlyMovesStudiesOntoTheNewMember) {
  const Placement before(Roster::parse("a h:1\nb h:2\nc h:3\nd h:4\n", "t"));
  const Placement after(
      Roster::parse("a h:1\nb h:2\nc h:3\nd h:4\ne h:5\n", "t"));
  std::size_t moved = 0;
  const std::size_t n = 2000;
  for (const std::string& s : study_names(n)) {
    const std::string p0 = before.primary(s).id;
    const std::string p1 = after.primary(s).id;
    if (p0 != p1) {
      // The consistent-hashing contract: a changed primary can only be the
      // member that joined.
      EXPECT_EQ(p1, "e") << s << " moved " << p0 << " -> " << p1;
      ++moved;
    }
  }
  // Roughly 1/5 of studies move to the new member; far from a reshuffle.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, n / 2);
}

TEST(PlacementTest, ReplicaTargetPairsPrimaryAndFollower) {
  const Placement p(Roster::parse("a h:1\nb h:2\nc h:3\n", "t"));
  for (const std::string& s : study_names(100)) {
    const StudyPlacement sp = p.place(s);
    ASSERT_TRUE(sp.follower.has_value());
    // The primary replicates to its follower.
    const auto from_primary = p.replica_target(s, sp.primary.id);
    ASSERT_TRUE(from_primary.has_value());
    EXPECT_EQ(from_primary->id, sp.follower->id);
    // Anyone else (follower or off-placement member) replicates to the
    // rightful primary.
    const auto from_follower = p.replica_target(s, sp.follower->id);
    ASSERT_TRUE(from_follower.has_value());
    EXPECT_EQ(from_follower->id, sp.primary.id);
  }
}

// ---------------------------------------------------------------------------
// Hex codec

TEST(HexCodec, RoundTripsAllByteValues) {
  std::string bytes;
  for (int i = 0; i < 256; ++i) bytes.push_back(static_cast<char>(i));
  const std::string hex = hex_encode(bytes);
  ASSERT_EQ(hex.size(), bytes.size() * 2);
  // Lowercase, and never whitespace — the verb grammar splits on spaces.
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << c;
  }
  const auto back = hex_decode(hex);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, bytes);
  EXPECT_EQ(hex_encode(""), "");
  ASSERT_TRUE(hex_decode("").has_value());
}

TEST(HexCodec, RejectsOddLengthAndNonHex) {
  EXPECT_FALSE(hex_decode("a").has_value());
  EXPECT_FALSE(hex_decode("abc").has_value());
  EXPECT_FALSE(hex_decode("zz").has_value());
  EXPECT_FALSE(hex_decode("0g").has_value());
  EXPECT_FALSE(hex_decode(" 00").has_value());
}

// ---------------------------------------------------------------------------
// ReplicaStore

std::string temp_dir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("fedtune_cluster_" + tag + "_" + std::to_string(::getpid()) + "_" +
        std::to_string(counter++)))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::string read_file_or_empty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(ReplicaStoreTest, StrictContiguityRejectsLossReorderAndDuplication) {
  const std::string dir = temp_dir("store");
  ReplicaStore store(dir);
  EXPECT_FALSE(store.has("s"));
  EXPECT_EQ(store.size("s"), 0u);

  EXPECT_EQ(store.append("s", 0, "abc"), 3u);
  EXPECT_EQ(store.append("s", 3, "defg"), 7u);
  EXPECT_TRUE(store.has("s"));
  EXPECT_EQ(store.size("s"), 7u);

  // A duplicated frame (base behind), a lost frame (base ahead), and a
  // reorder are all the same mismatch; the message carries the actual size
  // so the primary can resync.
  try {
    store.append("s", 3, "defg");
    FAIL() << "duplicate append accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("have=7"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(store.append("s", 12, "late"), std::invalid_argument);
  // The replica is untouched by rejected appends.
  EXPECT_EQ(store.size("s"), 7u);
  EXPECT_EQ(read_file_or_empty(store.replica_path("s")), "abcdefg");

  // A non-zero base cannot create a replica out of thin air.
  EXPECT_THROW(store.append("fresh", 5, "x"), std::invalid_argument);

  std::filesystem::remove_all(dir);
}

TEST(ReplicaStoreTest, InstallReplacesAndPromoteMovesIntoLiveDir) {
  const std::string dir = temp_dir("promote");
  ReplicaStore store(dir);
  EXPECT_EQ(store.install("s", "snapshot-bytes"), 14u);
  // Install is idempotent wholesale replacement.
  EXPECT_EQ(store.install("s", "v2"), 2u);
  EXPECT_EQ(store.size("s"), 2u);

  const std::string live = dir + "/s.journal";
  store.promote("s", live);
  EXPECT_FALSE(store.has("s"));
  EXPECT_EQ(read_file_or_empty(live), "v2");

  // Promote with a LONGER live journal keeps the local file (this node is
  // already ahead; the replica is stale history).
  EXPECT_EQ(store.install("s", "x"), 1u);
  store.promote("s", live);
  EXPECT_FALSE(store.has("s"));
  EXPECT_EQ(read_file_or_empty(live), "v2");

  // Promote with a longer replica overwrites the shorter live file.
  EXPECT_EQ(store.install("s", "longer-than-v2"), 14u);
  store.promote("s", live);
  EXPECT_EQ(read_file_or_empty(live), "longer-than-v2");

  // No replica -> promote throws; remove is a no-op on absent replicas.
  EXPECT_THROW(store.promote("nope", dir + "/nope.journal"),
               std::invalid_argument);
  store.remove("nope");

  EXPECT_EQ(store.install("a", "1"), 1u);
  EXPECT_EQ(store.install("b", "2"), 1u);
  EXPECT_EQ(store.list(), (std::vector<std::string>{"a", "b"}));
  store.remove("a");
  EXPECT_EQ(store.list(), (std::vector<std::string>{"b"}));

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Socket plumbing

// One request "VERB ARGS..." to a loopback node on a fresh connection; ""
// when no answer arrived.
std::string request(std::uint16_t port, const std::string& line) {
  net::Client c;
  if (!c.connect_tcp("127.0.0.1", port, 10.0)) return "";
  const std::size_t sp = line.find(' ');
  return c.request(line.substr(0, sp),
                   sp == std::string::npos ? "" : line.substr(sp + 1))
      .value_or("");
}

// A StudyService node (manager + handler + server + event loop on a
// background thread) with the cluster context wired in — a follower a
// JournalReplicator can ship to and a client can fail over to.
class ClusterNode {
 public:
  ClusterNode(const service::ManagerOptions& mopts,
              std::shared_ptr<const service::PoolResources> pool)
      : replicas_(mopts.journal_dir) {
    manager_ = std::make_unique<service::StudyManager>(mopts);
    manager_->register_pool("p", std::move(pool));
    manager_->resume_all();
    handler_ = std::make_unique<service::ServiceHandler>(*manager_, "p");
    server_ = std::make_unique<net::Server>(
        loop_, net::ServerOptions{},
        [this](const std::string& line, std::uint64_t, bool* keep) {
          return handler_->handle(line, keep);
        });
  }
  ~ClusterNode() { stop(); }

  std::uint16_t listen() {
    if (!server_->listen_tcp("127.0.0.1", 0)) return 0;
    return server_->tcp_port();
  }

  // Call between listen() (which fixes the port the roster needs) and
  // start().
  void enable_cluster(const Placement* placement, std::string self_id) {
    handler_->set_cluster({&replicas_, placement, std::move(self_id)});
  }

  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed) && !server_->stopping()) {
        loop_.run_once(10);
      }
    });
  }

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    server_->shutdown(0);
  }

  ReplicaStore& replicas() { return replicas_; }

 private:
  net::EventLoop loop_;
  ReplicaStore replicas_;
  std::unique_ptr<service::StudyManager> manager_;
  std::unique_ptr<service::ServiceHandler> handler_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
};

// ---------------------------------------------------------------------------
// Fixture with the shared test pool

class ClusterFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::FederatedDataset dataset = testutil::small_image_dataset();
    const auto arch = nn::make_default_model(dataset);
    core::PoolBuildOptions opts;
    opts.num_configs = 8;
    opts.checkpoints = {1, 3, 9};
    opts.trainer.clients_per_round = 5;
    opts.store_params = false;
    opts.num_threads = 2;
    const core::ConfigPool built = core::ConfigPool::build(
        dataset, *arch, hpo::appendix_b_space(), opts);
    auto resources = std::make_shared<service::PoolResources>();
    resources->configs = built.configs();
    resources->view = built.view();
    pool_ = std::move(resources);
    std::signal(SIGPIPE, SIG_IGN);
  }

  void TearDown() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::string fresh_dir(const std::string& tag) {
    const std::string dir = temp_dir(tag);
    dirs_.push_back(dir);
    return dir;
  }

  service::ManagerOptions manager_options(const std::string& dir) {
    service::ManagerOptions opts;
    opts.journal_dir = dir;
    opts.rounds_per_slice = 9;
    return opts;
  }

  // Drives a managed study to completion through `handler` and returns its
  // hex-float trace line.
  static std::string drive_to_trace(service::ServiceHandler& handler,
                                    const std::string& name) {
    bool running = true;
    for (int i = 0; i < 500; ++i) {
      const std::string r = handler.handle("drive " + name + " 10", &running);
      if (r.rfind("ok", 0) != 0 ||
          r.find("state=finished") != std::string::npos) {
        break;
      }
    }
    return handler.handle("trace " + name, &running);
  }

  // Runs study m1 to completion in `dir`, recording the journal mutation
  // stream; returns the reference trace.
  static std::string run_reference_study(
      const service::ManagerOptions& base, const std::string& dir,
      std::vector<JournalMutation>* mutations, std::mutex* mu) {
    service::ManagerOptions mopts = base;
    mopts.journal_dir = dir;
    mopts.journal_sink = [mutations, mu](const std::string& study,
                                         const JournalMutation& m) {
      if (study != "m1") return;
      std::lock_guard<std::mutex> lock(*mu);
      mutations->push_back(m);
    };
    service::StudyManager mgr(mopts);
    mgr.register_pool("p", pool_);
    service::ServiceHandler handler(mgr, "p");
    bool running = true;
    EXPECT_EQ(handler.handle(kCreateM1, &running).rfind("ok", 0), 0u);
    return drive_to_trace(handler, "m1");
  }

  static constexpr const char* kCreateM1 =
      "create-study m1 method=rs configs=8 seed=17 eval-clients=4 epsilon=25";

  static std::shared_ptr<const service::PoolResources> pool_;
  std::vector<std::string> dirs_;
};

std::shared_ptr<const service::PoolResources> ClusterFixture::pool_;

// Applies mutations[0, count) the way a follower would, asserting the
// stream's offsets are perfectly contiguous.
std::string apply_prefix(const std::vector<JournalMutation>& mutations,
                         std::size_t count) {
  std::string buf;
  for (std::size_t i = 0; i < count; ++i) {
    const JournalMutation& m = mutations[i];
    if (m.kind == JournalMutation::Kind::kRewrite) {
      buf = m.bytes;
    } else {
      EXPECT_EQ(m.offset, buf.size()) << "mutation " << i;
      buf += m.bytes;
    }
  }
  return buf;
}

TEST_F(ClusterFixture, SinkStreamIsByteIdenticalToTheJournal) {
  const std::string dir = fresh_dir("sink");
  std::vector<JournalMutation> mutations;
  std::mutex mu;
  const std::string trace =
      run_reference_study(manager_options(dir), dir, &mutations, &mu);
  EXPECT_EQ(trace.rfind("ok", 0), 0u);
  ASSERT_FALSE(mutations.empty());
  // The first mutation is the wire-up rewrite of the fresh journal.
  EXPECT_EQ(mutations.front().kind, JournalMutation::Kind::kRewrite);
  const std::string replayed = apply_prefix(mutations, mutations.size());
  const std::string journal = read_file_or_empty(dir + "/m1.journal");
  ASSERT_FALSE(journal.empty());
  EXPECT_EQ(replayed, journal);
}

// The headline bitwise matrix: promote a replica truncated at EVERY
// mutation boundary, finish the study on the follower, and require the
// trace to be bitwise identical to the run that was never interrupted —
// with zero live re-evaluations at promotion time (pure journal replay).
TEST_F(ClusterFixture, PromoteAtEveryMutationBoundaryIsBitwiseIdentical) {
  const std::string dir = fresh_dir("matrix_ref");
  std::vector<JournalMutation> mutations;
  std::mutex mu;
  const std::string reference =
      run_reference_study(manager_options(dir), dir, &mutations, &mu);
  ASSERT_EQ(reference.rfind("ok", 0), 0u);
  ASSERT_GT(mutations.size(), 4u);

  const Roster roster = Roster::parse("a h:1\nb h:2\n", "t");
  const Placement placement(roster);

  for (std::size_t cut = 1; cut <= mutations.size(); ++cut) {
    SCOPED_TRACE("boundary " + std::to_string(cut) + "/" +
                 std::to_string(mutations.size()));
    const std::string bytes = apply_prefix(mutations, cut);
    const std::string dirB = fresh_dir("matrix_" + std::to_string(cut));
    ReplicaStore store(dirB);
    store.install("m1", bytes);

    service::StudyManager mgr(manager_options(dirB));
    mgr.register_pool("p", pool_);
    service::ServiceHandler handler(mgr, "p");
    handler.set_cluster({&store, &placement, "b"});

    bool running = true;
    const std::string promoted = handler.handle("promote m1", &running);
    ASSERT_EQ(promoted.rfind("ok promoted m1", 0), 0u) << promoted;
    // Journal replay only: the noisy evaluator performed no live
    // evaluations to reach the replicated state.
    EXPECT_NE(promoted.find(" live_evals=0"), std::string::npos) << promoted;
    // The replica was consumed by the promotion.
    EXPECT_FALSE(store.has("m1"));

    EXPECT_EQ(drive_to_trace(handler, "m1"), reference);
  }
}

TEST_F(ClusterFixture, ReplVerbsEnforceTheContiguityContract) {
  const std::string dir = fresh_dir("verbs");
  const Roster roster = Roster::parse("a h:1\nb h:2\n", "t");
  const Placement placement(roster);
  ReplicaStore store(dir);
  service::StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  service::ServiceHandler handler(mgr, "p");
  bool running = true;

  // Without a cluster context every repl verb refuses.
  EXPECT_EQ(handler.handle("repl-ack s", &running),
            "err not a cluster member");
  handler.set_cluster({&store, &placement, "b"});

  EXPECT_EQ(handler.handle("repl-ack ghost", &running), "ok offset=0");
  EXPECT_EQ(handler.handle("repl-append ghost 0 " + hex_encode("frame-1"),
                           &running),
            "ok acked=7");
  EXPECT_EQ(handler.handle("repl-append ghost 7 " + hex_encode("frame-2"),
                           &running),
            "ok acked=14");
  // Duplicate, lost, and reordered frames answer with the actual size.
  const std::string dup = handler.handle(
      "repl-append ghost 7 " + hex_encode("frame-2"), &running);
  EXPECT_EQ(dup.rfind("err repl offset mismatch have=14", 0), 0u) << dup;
  EXPECT_EQ(handler
                .handle("repl-append ghost 99 " + hex_encode("x"), &running)
                .rfind("err repl offset mismatch", 0),
            0u);
  EXPECT_EQ(handler.handle("repl-ack ghost", &running), "ok offset=14");

  // Snapshot replaces wholesale and resets the offset.
  EXPECT_EQ(handler.handle("repl-snapshot ghost " + hex_encode("fresh"),
                           &running),
            "ok acked=5");
  EXPECT_EQ(handler.handle("repl-ack ghost", &running), "ok offset=5");

  // Malformed arguments are rejected, not crashes.
  EXPECT_EQ(handler.handle("repl-append ghost 0", &running).rfind("err", 0),
            0u);
  EXPECT_EQ(
      handler.handle("repl-append ghost zero aa", &running).rfind("err", 0),
      0u);
  EXPECT_EQ(
      handler.handle("repl-append ghost 5 nothex!", &running).rfind("err", 0),
      0u);
  EXPECT_EQ(handler.handle("repl-snapshot ghost", &running).rfind("err", 0),
            0u);

  // A study that is ACTIVE here must never accept replicated bytes — that
  // is the dual-primary window, and the writer must be told to stop.
  EXPECT_EQ(
      handler.handle("create-study act external max-trials=2", &running)
          .rfind("ok", 0),
      0u);
  const std::string dual =
      handler.handle("repl-append act 0 " + hex_encode("x"), &running);
  EXPECT_NE(dual.find("dual primary"), std::string::npos) << dual;
  const std::string dual2 =
      handler.handle("repl-snapshot act " + hex_encode("x"), &running);
  EXPECT_NE(dual2.find("dual primary"), std::string::npos) << dual2;

  // cluster-info answers placement for a study and the roster without one.
  const std::string info = handler.handle("cluster-info m1", &running);
  EXPECT_EQ(info.rfind("ok", 0), 0u) << info;
  EXPECT_NE(info.find("primary="), std::string::npos) << info;
  EXPECT_EQ(handler.handle("cluster-info", &running).rfind("ok", 0), 0u);
}

// promote goes through the same takeover path as every study verb, so a
// journal that cannot come back reports why: a full manager or an
// unreadable journal is not "no replica or journal".
TEST_F(ClusterFixture, PromoteReportsTheRealFailure) {
  const std::string dir = fresh_dir("promote_err");
  const Roster roster = Roster::parse("a h:1\nb h:2\n", "t");
  const Placement placement(roster);
  ReplicaStore store(dir);
  service::ManagerOptions mopts = manager_options(dir);
  mopts.max_studies = 1;
  service::StudyManager mgr(mopts);
  mgr.register_pool("p", pool_);
  service::ServiceHandler handler(mgr, "p");
  handler.set_cluster({&store, &placement, "b"});
  bool running = true;

  ASSERT_EQ(handler.handle("create-study parked external max-trials=4",
                           &running),
            "ok created parked");
  ASSERT_EQ(handler.handle("suspend parked", &running),
            "ok suspended parked");
  ASSERT_EQ(handler.handle("create-study busy external max-trials=4",
                           &running),
            "ok created busy");
  // The one slot holds unfinished work, so the local journal cannot load.
  for (const char* verb : {"promote parked", "status parked"}) {
    const std::string full = handler.handle(verb, &running);
    EXPECT_EQ(full.rfind("err ", 0), 0u) << full;
    EXPECT_NE(full.find("study capacity reached (1)"), std::string::npos)
        << full;
  }

  ASSERT_EQ(handler.handle("suspend busy", &running), "ok suspended busy");
  {
    std::ofstream junk(dir + "/junk.journal", std::ios::binary);
    junk << "not a journal at all";
  }
  const std::string unreadable = handler.handle("promote junk", &running);
  EXPECT_EQ(unreadable.rfind("err ", 0), 0u) << unreadable;
  EXPECT_NE(unreadable.find("unknown journal magic"), std::string::npos)
      << unreadable;
  EXPECT_EQ(handler.handle("promote ghost", &running),
            "err no replica or journal for study 'ghost'");
  const std::string promoted = handler.handle("promote parked", &running);
  EXPECT_EQ(promoted.rfind("ok promoted parked steps=0", 0), 0u) << promoted;
}

// End-to-end over sockets: a primary's manager streams every journal
// mutation through a real JournalReplicator to a live follower daemon;
// after the primary "dies", the first client request on the follower
// promotes the replica and serves a bitwise-identical trace.
TEST_F(ClusterFixture, SocketReplicationThenFailoverIsBitwise) {
  const std::string dirA = fresh_dir("sock_a");
  const std::string dirB = fresh_dir("sock_b");

  ClusterNode follower(manager_options(dirB), pool_);
  const std::uint16_t port = follower.listen();
  ASSERT_NE(port, 0);
  const Roster roster(std::vector<ClusterMember>{
      {"a", "127.0.0.1", 1}, {"b", "127.0.0.1", port}});
  const Placement placement(roster);
  follower.enable_cluster(&placement, "b");
  follower.start();

  ReplicatorOptions ropts;
  ropts.self_id = "a";
  ropts.read_journal = [dirA](const std::string& study) {
    return read_file_or_empty(dirA + "/" + study + ".journal");
  };
  auto replicator = std::make_unique<JournalReplicator>(roster, ropts);

  service::ManagerOptions mopts = manager_options(dirA);
  mopts.journal_sink = [rep = replicator.get()](const std::string& study,
                                                const JournalMutation& m) {
    rep->on_mutation(study, m);
  };
  service::StudyManager mgr(mopts);
  mgr.register_pool("p", pool_);
  service::ServiceHandler handler(mgr, "p");
  bool running = true;
  ASSERT_EQ(handler.handle(kCreateM1, &running).rfind("ok", 0), 0u);
  const std::string reference = drive_to_trace(handler, "m1");
  ASSERT_EQ(reference.rfind("ok", 0), 0u);

  ASSERT_TRUE(replicator->flush(20.0));
  EXPECT_EQ(replicator->pending_frames(), 0u);

  // The follower's replica is a byte-exact copy of the primary's journal.
  const std::string journal = read_file_or_empty(dirA + "/m1.journal");
  ASSERT_FALSE(journal.empty());
  EXPECT_EQ(request(port, "repl-ack m1"),
            "ok offset=" + std::to_string(journal.size()));
  EXPECT_EQ(read_file_or_empty(follower.replicas().replica_path("m1")),
            journal);

  // Primary dies: stop replicating. The failed-over client's first request
  // auto-promotes the replica — zero live re-evaluations, identical trace.
  replicator->stop();
  EXPECT_EQ(request(port, "trace m1"), reference);
  const std::string promoted = request(port, "promote m1");
  EXPECT_EQ(promoted.rfind("ok promoted m1 already-active", 0), 0u)
      << promoted;
  EXPECT_NE(promoted.find("live_evals=0"), std::string::npos) << promoted;
  const std::string status = request(port, "status m1");
  EXPECT_NE(status.find("state=finished"), std::string::npos) << status;
}

// A follower that is behind (or has lost frames) answers the replicator's
// probe with a short offset; the replicator must catch it up with a fresh
// snapshot read through read_journal — chunked when the journal exceeds
// the batch cap.
TEST_F(ClusterFixture, OffsetMismatchTriggersChunkedSnapshotCatchUp) {
  const std::string dirB = fresh_dir("catchup_b");
  ClusterNode follower(manager_options(dirB), pool_);
  const std::uint16_t port = follower.listen();
  ASSERT_NE(port, 0);
  const Roster roster(std::vector<ClusterMember>{
      {"a", "127.0.0.1", 1}, {"b", "127.0.0.1", port}});
  const Placement placement(roster);
  follower.enable_cluster(&placement, "b");
  follower.start();

  // A 5000-byte "journal" forces snapshot + appends at a 512-byte cap.
  std::string journal;
  for (int i = 0; journal.size() < 5000; ++i) {
    journal += "record-" + std::to_string(i) + ";";
  }
  ReplicatorOptions ropts;
  ropts.self_id = "a";
  ropts.max_batch_bytes = 512;
  ropts.read_journal = [journal](const std::string&) { return journal; };
  JournalReplicator replicator(roster, ropts);

  // The primary believes the follower already holds everything up to
  // journal.size() and ships one tail frame. The follower has nothing: the
  // probe mismatch must trigger a full snapshot resync instead of a
  // corrupt tail-only replica.
  JournalMutation tail;
  tail.kind = JournalMutation::Kind::kAppend;
  tail.offset = journal.size();
  tail.bytes = "tail-frame";
  replicator.on_mutation("behind", tail);

  ASSERT_TRUE(replicator.flush(20.0));
  EXPECT_EQ(request(port, "repl-ack behind"),
            "ok offset=" + std::to_string(journal.size()));
  EXPECT_EQ(read_file_or_empty(follower.replicas().replica_path("behind")),
            journal);
}

// Steady-state streaming: appends flow through the replicator in batched
// frames and land contiguously; a rewrite mid-stream supersedes the queue.
TEST_F(ClusterFixture, AppendStreamAndRewriteSupersession) {
  const std::string dirB = fresh_dir("stream_b");
  ClusterNode follower(manager_options(dirB), pool_);
  const std::uint16_t port = follower.listen();
  ASSERT_NE(port, 0);
  const Roster roster(std::vector<ClusterMember>{
      {"a", "127.0.0.1", 1}, {"b", "127.0.0.1", port}});
  const Placement placement(roster);
  follower.enable_cluster(&placement, "b");
  follower.start();

  ReplicatorOptions ropts;
  ropts.self_id = "a";
  ropts.read_journal = [](const std::string&) { return std::string(); };
  JournalReplicator replicator(roster, ropts);

  std::string expect;
  JournalMutation m;
  m.kind = JournalMutation::Kind::kRewrite;
  m.bytes = "HEADER|";
  replicator.on_mutation("s", m);
  expect = m.bytes;
  for (int i = 0; i < 50; ++i) {
    JournalMutation a;
    a.kind = JournalMutation::Kind::kAppend;
    a.offset = expect.size();
    a.bytes = "frame" + std::to_string(i) + "|";
    expect += a.bytes;
    replicator.on_mutation("s", a);
  }
  ASSERT_TRUE(replicator.flush(20.0));
  EXPECT_EQ(read_file_or_empty(follower.replicas().replica_path("s")),
            expect);

  // A compaction-style rewrite replaces everything queued and on disk.
  JournalMutation rw;
  rw.kind = JournalMutation::Kind::kRewrite;
  rw.bytes = "COMPACTED";
  replicator.on_mutation("s", rw);
  ASSERT_TRUE(replicator.flush(20.0));
  EXPECT_EQ(read_file_or_empty(follower.replicas().replica_path("s")),
            "COMPACTED");
  replicator.stop();
}

}  // namespace
}  // namespace fedtune::cluster
