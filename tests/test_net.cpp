// Networked StudyService tests: frame codec round-trip and corruption
// rejection, partial-input framing over TCP and Unix sockets, rejection of
// non-frame bytes, auth and per-tenant quota enforcement at the connection
// layer, slow-reader backpressure disconnects that leave other tenants
// bitwise-unperturbed, cross-transport determinism for external ask/tell
// studies, kill/resume of TCP-served managed studies at several
// interruption points, and strict create-study integer parsing. Every
// socket-level test talks to the server through net::Client.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config_pool.hpp"
#include "hpo/search_space.hpp"
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/frame.hpp"
#include "net/quota.hpp"
#include "net/server.hpp"
#include "nn/factory.hpp"
#include "obs/metrics.hpp"
#include "service/service_handler.hpp"
#include "service/study_manager.hpp"
#include "test_util.hpp"

namespace fedtune::net {
namespace {

// ---------------------------------------------------------------------------
// Frame codec

TEST(FrameCodec, RoundTripAndIncrementalDecode) {
  Frame f;
  f.opcode = Opcode::kTell;
  f.tenant = 42;
  f.payload = "s1 7 0x1.8p-1";
  const std::string wire = encode_frame(f);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + f.payload.size());
  // The first wire byte is non-ASCII by design: text fails on byte one.
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), 0xCFu);

  // Every proper prefix is kNeedMore; the full buffer decodes exactly.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const DecodeResult r = decode_frame(std::string_view(wire).substr(0, len));
    ASSERT_EQ(r.status, DecodeStatus::kNeedMore) << "prefix " << len;
  }
  const DecodeResult r = decode_frame(wire);
  ASSERT_EQ(r.status, DecodeStatus::kFrame);
  EXPECT_EQ(r.consumed, wire.size());
  EXPECT_EQ(r.frame.opcode, Opcode::kTell);
  EXPECT_EQ(r.frame.tenant, 42u);
  EXPECT_EQ(r.frame.payload, f.payload);
  EXPECT_EQ(r.frame.version, kFrameVersion);

  // Empty payload round-trips too.
  Frame ping;
  ping.opcode = Opcode::kPing;
  const DecodeResult rp = decode_frame(encode_frame(ping));
  ASSERT_EQ(rp.status, DecodeStatus::kFrame);
  EXPECT_EQ(rp.frame.opcode, Opcode::kPing);
  EXPECT_TRUE(rp.frame.payload.empty());

  // Two back-to-back frames: the first decode consumes exactly one.
  const std::string both = wire + encode_frame(ping);
  const DecodeResult r1 = decode_frame(both);
  ASSERT_EQ(r1.status, DecodeStatus::kFrame);
  EXPECT_EQ(r1.consumed, wire.size());
}

TEST(FrameCodec, RejectsCorruption) {
  Frame f;
  f.opcode = Opcode::kStatus;
  f.tenant = 3;
  f.payload = "study-name";
  const std::string wire = encode_frame(f);

  // Text-protocol bytes are not a valid frame prefix: fail fast, byte one.
  EXPECT_EQ(decode_frame("ping\n").status, DecodeStatus::kBad);

  // Wrong magic byte.
  std::string bad = wire;
  bad[1] ^= 0x01;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Unknown version.
  bad = wire;
  bad[4] = static_cast<char>(kFrameVersion + 1);
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Nonzero reserved field.
  bad = wire;
  bad[6] = 0x01;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Declared payload above the cap is rejected from the header alone —
  // before any payload bytes arrive.
  bad = wire;
  bad[16] = static_cast<char>(0xFF);
  bad[17] = static_cast<char>(0xFF);
  bad[18] = static_cast<char>(0xFF);
  bad[19] = 0x00;
  EXPECT_EQ(decode_frame(bad.substr(0, kFrameHeaderSize)).status,
            DecodeStatus::kBad);

  // Payload corruption trips the CRC.
  bad = wire;
  bad[kFrameHeaderSize] ^= 0x20;
  EXPECT_EQ(decode_frame(bad).status, DecodeStatus::kBad);

  // Truncated payload is incomplete, not corrupt.
  EXPECT_EQ(decode_frame(wire.substr(0, wire.size() - 3)).status,
            DecodeStatus::kNeedMore);

  // A frame legal under the default cap but above a caller's smaller cap.
  EXPECT_EQ(decode_frame(wire, /*max_payload=*/4).status, DecodeStatus::kBad);
}

TEST(FrameCodec, VerbOpcodeTableIsABijection) {
  for (const Opcode op :
       {Opcode::kPing, Opcode::kList, Opcode::kPump, Opcode::kCacheStats,
        Opcode::kMetrics, Opcode::kShutdown, Opcode::kCreateStudy,
        Opcode::kAsk, Opcode::kTell, Opcode::kStatus, Opcode::kBest,
        Opcode::kTrace, Opcode::kSuspend, Opcode::kResume, Opcode::kDrive,
        Opcode::kTraceExport, Opcode::kHello}) {
    const char* verb = verb_for_opcode(op);
    ASSERT_NE(verb, nullptr) << static_cast<int>(op);
    const auto back = opcode_for_verb(verb);
    ASSERT_TRUE(back.has_value()) << verb;
    EXPECT_EQ(*back, op) << verb;
  }
  EXPECT_EQ(verb_for_opcode(Opcode::kOk), nullptr);
  EXPECT_EQ(verb_for_opcode(Opcode::kErr), nullptr);
  EXPECT_FALSE(opcode_for_verb("no-such-verb").has_value());
}

// ---------------------------------------------------------------------------
// Quotas and auth primitives

TEST(TokenBucket, EnforcesRateAgainstInjectedClock) {
  TokenBucket bucket(/*capacity=*/2.0, /*refill_per_sec=*/1.0, /*now_s=*/0.0);
  EXPECT_TRUE(bucket.try_consume(0.0));
  EXPECT_TRUE(bucket.try_consume(0.0));
  EXPECT_FALSE(bucket.try_consume(0.0));  // burst exhausted
  EXPECT_FALSE(bucket.try_consume(0.5));  // half a token refilled: not enough
  EXPECT_TRUE(bucket.try_consume(1.5));   // 1.5 tokens refilled
  EXPECT_FALSE(bucket.try_consume(1.5));
  // Refill is capped at capacity: a long idle period grants at most burst.
  EXPECT_TRUE(bucket.try_consume(100.0));
  EXPECT_TRUE(bucket.try_consume(100.0));
  EXPECT_FALSE(bucket.try_consume(100.0));
}

TEST(TokenBucket, NonPositiveRateIsUnlimited) {
  TokenBucket bucket(0.0, 0.0, 0.0);
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_consume(0.0));
}

// A positive rate with zero burst used to reject every request forever:
// the bucket could never accumulate a token past its own zero cap. The
// capacity is now clamped to one token, so the configured RATE still
// applies but the bucket is usable.
TEST(TokenBucket, ZeroBurstWithPositiveRateClampsToOneToken) {
  TokenBucket bucket(/*capacity=*/0.0, /*refill_per_sec=*/5.0, /*now_s=*/0.0);
  EXPECT_TRUE(bucket.try_consume(0.0));   // the clamped single token
  EXPECT_FALSE(bucket.try_consume(0.0));  // not unlimited
  EXPECT_FALSE(bucket.try_consume(0.1));  // half a token refilled
  EXPECT_TRUE(bucket.try_consume(0.25));  // rate still enforced at 5/s
  // Idle refill is capped at the clamped capacity, not unbounded.
  EXPECT_TRUE(bucket.try_consume(100.0));
  EXPECT_FALSE(bucket.try_consume(100.0));
  // Fractional burst below one token clamps the same way.
  TokenBucket frac(0.25, 2.0, 0.0);
  EXPECT_TRUE(frac.try_consume(0.0));
  EXPECT_FALSE(frac.try_consume(0.0));
}

TEST(TenantQuotas, ConcurrentStudyCapPerTenant) {
  QuotaOptions opts;
  opts.max_studies_per_tenant = 2;
  TenantQuotas q(opts);
  EXPECT_TRUE(q.admit_study(1));
  q.record_study(1, "a");
  q.record_study(1, "b");
  EXPECT_FALSE(q.admit_study(1));
  EXPECT_TRUE(q.admit_study(2));  // caps are per tenant, not global
  q.release_study(1, "a");
  EXPECT_TRUE(q.admit_study(1));
  // Releasing an unknown name is a no-op, not an underflow.
  q.release_study(1, "never-created");
  EXPECT_EQ(q.active_studies(1), 1u);
}

TEST(AuthTableTest, LoadParsesAndValidates) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("fedtune_auth_" + std::to_string(::getpid()) + ".txt"))
          .string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "# comment line\n"
        << "\n"
        << "7 sekrit\n"
        << "12 other-token\n";
  }
  const AuthTable table = AuthTable::load(path);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.open());
  EXPECT_TRUE(table.check(7, "sekrit"));
  EXPECT_FALSE(table.check(7, "wrong"));
  EXPECT_FALSE(table.check(99, "sekrit"));
  {
    std::ofstream out(path, std::ios::trunc);
    out << "7 token extra-field\n";
  }
  EXPECT_THROW(AuthTable::load(path), std::invalid_argument);
  {
    std::ofstream out(path, std::ios::trunc);
    out << "notanumber token\n";
  }
  EXPECT_THROW(AuthTable::load(path), std::invalid_argument);
  std::filesystem::remove(path);
  EXPECT_THROW(AuthTable::load(path), std::invalid_argument);
  // The empty table is open mode: everything checks out.
  AuthTable open_table;
  EXPECT_TRUE(open_table.open());
  EXPECT_TRUE(open_table.check(1, ""));
}

// ---------------------------------------------------------------------------
// Server harness

// One request "VERB ARGS..." over `c`; "" when no answer arrived (tests
// assert content).
std::string request(Client& c, const std::string& line) {
  const std::size_t sp = line.find(' ');
  return c.request(line.substr(0, sp),
                   sp == std::string::npos ? "" : line.substr(sp + 1))
      .value_or("");
}

std::string socket_path(const std::string& tag) {
  return (std::filesystem::temp_directory_path() /
          ("fedtune_net_" + tag + "_" + std::to_string(::getpid()) + ".sock"))
      .string();
}

// A Server + EventLoop running on a background thread. The StudyManager
// (when present) is only ever touched from the loop thread via the handler;
// the test thread drives it through sockets.
class ServerHarness {
 public:
  // Protocol-only harness: a canned handler, no StudyManager.
  ServerHarness(ServerOptions sopts, Server::Handler h) {
    server_ = std::make_unique<Server>(loop_, std::move(sopts), std::move(h));
  }

  // Service harness: the real verb dispatcher over a StudyManager with the
  // shared test pool registered as "p". The test-only request `ping blob`
  // answers 8 KiB (a deterministic backpressure hammer).
  ServerHarness(const service::ManagerOptions& mopts,
                std::shared_ptr<const service::PoolResources> pool,
                ServerOptions sopts) {
    manager_ = std::make_unique<service::StudyManager>(mopts);
    manager_->register_pool("p", std::move(pool));
    manager_->resume_all();
    handler_ = std::make_unique<service::ServiceHandler>(*manager_, "p");
    server_ = std::make_unique<Server>(
        loop_, std::move(sopts),
        [this](const std::string& line, std::uint64_t, bool* keep) {
          if (line == "ping blob") return "ok " + std::string(8192, 'x');
          return handler_->handle(line, keep);
        });
  }

  ~ServerHarness() { stop(); }

  std::uint16_t listen() {
    if (!server_->listen_tcp("127.0.0.1", 0)) return 0;
    return server_->tcp_port();
  }
  bool listen_unix(const std::string& path) {
    unix_path_ = path;
    return server_->listen_unix(path);
  }

  // Connects a blocking client (10 s io timeout) over TCP or the Unix
  // listener.
  bool connect(Client& c, bool via_unix = false) const {
    return via_unix ? c.connect_unix(unix_path_, 10.0)
                    : c.connect_tcp("127.0.0.1", server_->tcp_port(), 10.0);
  }

  void start() {
    thread_ = std::thread([this] {
      while (!stop_.load(std::memory_order_relaxed) && !server_->stopping()) {
        loop_.run_once(10);
      }
      stopping_.store(server_->stopping());
    });
  }

  // Joins the loop thread and tears the server down. After this the
  // manager (if any) is owned by the test thread again.
  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    server_->shutdown(0);
  }

  // Server::stopping() belongs to the loop thread; the test thread reads
  // this copy, published when the loop thread exits.
  bool stopping() const { return stopping_.load(); }

 private:
  EventLoop loop_;
  std::unique_ptr<service::StudyManager> manager_;
  std::unique_ptr<service::ServiceHandler> handler_;
  std::unique_ptr<Server> server_;
  std::string unix_path_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> stopping_{false};
};

// `ping whoami` is a test-only request: it reports the tenant the server
// attributed the request to.
Server::Handler ping_handler() {
  return [](const std::string& line, std::uint64_t tenant, bool* keep) {
    if (line == "ping") return std::string("ok pong");
    if (line == "ping whoami") return "ok tenant=" + std::to_string(tenant);
    if (line == "shutdown") {
      *keep = false;
      return std::string("ok bye");
    }
    return "err unknown verb '" + line + "'";
  };
}

class NetFixture : public ::testing::Test {
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

  std::string fresh_dir() {
    static int counter = 0;
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         ("fedtune_net_test_" + std::to_string(::getpid()) + "_" +
          std::to_string(counter++)))
            .string();
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  service::ManagerOptions manager_options(const std::string& dir) {
    service::ManagerOptions opts;
    opts.journal_dir = dir;
    opts.rounds_per_slice = 9;
    return opts;
  }

  // Runs `verbs` through a fresh in-process ServiceHandler (no network) and
  // returns the last response — the reference for cross-transport checks.
  std::string direct_last_response(const std::vector<std::string>& verbs) {
    service::StudyManager mgr(manager_options(fresh_dir()));
    mgr.register_pool("p", pool_);
    service::ServiceHandler handler(mgr, "p");
    bool running = true;
    std::string last;
    for (const std::string& v : verbs) last = handler.handle(v, &running);
    return last;
  }

  // Drives a managed study to completion over an established request
  // channel and returns its trace response.
  static std::string drive_to_trace(
      const std::function<std::string(const std::string&)>& request,
      const std::string& name) {
    for (int i = 0; i < 500; ++i) {
      const std::string r = request("drive " + name + " 10");
      if (r.rfind("ok", 0) != 0 ||
          r.find("state=finished") != std::string::npos) {
        break;
      }
    }
    return request("trace " + name);
  }

  static std::shared_ptr<const service::PoolResources> pool_;
  std::vector<std::string> dirs_;
};

std::shared_ptr<const service::PoolResources> NetFixture::pool_;

// ---------------------------------------------------------------------------
// Protocol-level server behavior (no StudyManager needed)

// A frame trickling in one byte per segment decodes identically to one
// arriving in a single read, over TCP and the Unix listener alike.
TEST(NetServer, BinaryFrameSplitAcrossSegments) {
  ServerHarness h(ServerOptions{}, ping_handler());
  ASSERT_NE(h.listen(), 0);
  ASSERT_TRUE(h.listen_unix(socket_path("split")));
  h.start();
  Frame f;
  f.opcode = Opcode::kPing;
  f.tenant = 9;
  const std::string wire = encode_frame(f);
  for (const bool via_unix : {false, true}) {
    SCOPED_TRACE(via_unix ? "unix" : "tcp");
    Client client;
    ASSERT_TRUE(h.connect(client, via_unix));
    for (const char c : wire) {
      ASSERT_TRUE(client.send_bytes(std::string(1, c)));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(client.read_response().value_or(""), "ok pong");
    // Same connection still works for a normally-framed request, and for
    // two requests pipelined into one segment.
    EXPECT_EQ(request(client, "ping"), "ok pong");
    ASSERT_TRUE(client.send_bytes(wire + wire));
    EXPECT_EQ(client.read_response().value_or(""), "ok pong");
    EXPECT_EQ(client.read_response().value_or(""), "ok pong");
  }
}

TEST(NetServer, GarbageAndCorruptFramesDontKillTheServer) {
  ServerOptions sopts;
  sopts.max_frame_payload = 1024;
  ServerHarness h(sopts, ping_handler());
  ASSERT_NE(h.listen(), 0);
  h.start();

  // Frame-looking garbage: first byte 0xCF, then junk.
  {
    Client bad;
    ASSERT_TRUE(h.connect(bad));
    ASSERT_TRUE(bad.send_bytes(std::string("\xCF\x00\x01\x02junkjunkjunk", 16)));
    const std::string r = bad.read_response().value_or("");
    EXPECT_TRUE(r.empty() || r.rfind("err", 0) == 0) << r;
  }
  // CRC mismatch.
  {
    Frame f;
    f.opcode = Opcode::kPing;
    f.payload = "xyz";
    std::string wire = encode_frame(f);
    wire[kFrameHeaderSize] ^= 0x01;
    Client bad;
    ASSERT_TRUE(h.connect(bad));
    ASSERT_TRUE(bad.send_bytes(wire));
    const std::string r = bad.read_response().value_or("");
    EXPECT_TRUE(r.empty() || r.rfind("err", 0) == 0) << r;
  }
  // Oversized declared payload (above the server's cap).
  {
    Frame f;
    f.opcode = Opcode::kPing;
    f.payload = std::string(2048, 'a');
    Client bad;
    ASSERT_TRUE(h.connect(bad));
    ASSERT_TRUE(bad.send_bytes(encode_frame(f)));
    const std::string r = bad.read_response().value_or("");
    EXPECT_TRUE(r.empty() || r.rfind("err", 0) == 0) << r;
  }
  // A newline-terminated text request is not a frame: exactly one kErr
  // `protocol` frame, then the server closes the connection.
  {
    obs::Counter& protocol_errors = obs::MetricsRegistry::global().counter(
        "fedtune_net_protocol_errors_total");
    const std::uint64_t before = protocol_errors.value();
    Client bad;
    ASSERT_TRUE(h.connect(bad));
    ASSERT_TRUE(bad.send_bytes("ping\n"));
    EXPECT_EQ(bad.read_response().value_or(""),
              "err protocol: bad frame magic");
    EXPECT_FALSE(bad.read_response().has_value());
    EXPECT_EQ(protocol_errors.value(), before + 1);
  }

  // After all of that, a healthy client is served normally.
  Client good;
  ASSERT_TRUE(h.connect(good));
  EXPECT_EQ(request(good, "ping"), "ok pong");
}

TEST(NetServer, AuthRequiredOnTcpAndPreTrustedOnUnix) {
  ServerOptions sopts;
  sopts.auth.add(7, "sekrit");
  ServerHarness h(sopts, ping_handler());
  ASSERT_NE(h.listen(), 0);
  ASSERT_TRUE(h.listen_unix(socket_path("auth")));
  h.start();

  // Pre-hello request on TCP: rejected and disconnected.
  {
    Client c;
    ASSERT_TRUE(h.connect(c));
    EXPECT_EQ(request(c, "ping"), "err auth required (send hello first)");
    EXPECT_FALSE(c.read_response().has_value());  // server closed it
  }
  // Wrong token.
  {
    Client c;
    ASSERT_TRUE(h.connect(c));
    EXPECT_EQ(c.hello(7, "wrong").value_or(""),
              "err auth failed for tenant 7");
  }
  // Unknown tenant.
  {
    Client c;
    ASSERT_TRUE(h.connect(c));
    EXPECT_EQ(c.hello(99, "sekrit").value_or(""),
              "err auth failed for tenant 99");
  }
  // Correct hello (token in the payload, tenant in the header): later
  // requests attribute to the authenticated tenant, whatever their header
  // says.
  {
    Client c;
    ASSERT_TRUE(h.connect(c));
    EXPECT_EQ(c.hello(7, "sekrit").value_or(""), "ok hello tenant=7");
    EXPECT_EQ(request(c, "ping"), "ok pong");
    c.set_tenant(0);
    EXPECT_EQ(request(c, "ping whoami"), "ok tenant=7");
  }
  // Unix connections are local and pre-trusted: no hello needed.
  {
    Client c;
    ASSERT_TRUE(h.connect(c, /*via_unix=*/true));
    EXPECT_EQ(request(c, "ping"), "ok pong");
  }
}

TEST(NetServer, RateQuotaEnforcedAgainstInjectedClock) {
  // The injected clock makes refill deterministic: no wall-time flakiness.
  auto fake_now = std::make_shared<std::atomic<double>>(0.0);
  ServerOptions sopts;
  sopts.quota.frames_per_sec = 1.0;
  sopts.quota.burst = 2.0;
  sopts.now_s = [fake_now] { return fake_now->load(); };
  ServerHarness h(sopts, ping_handler());
  ASSERT_NE(h.listen(), 0);
  h.start();
  Client c;
  ASSERT_TRUE(h.connect(c));
  EXPECT_EQ(request(c, "ping"), "ok pong");
  EXPECT_EQ(request(c, "ping"), "ok pong");
  EXPECT_EQ(request(c, "ping"), "err quota exceeded (rate)");
  fake_now->store(10.0);  // refill (capped at burst)
  EXPECT_EQ(request(c, "ping"), "ok pong");
  EXPECT_EQ(request(c, "ping"), "ok pong");
  EXPECT_EQ(request(c, "ping"), "err quota exceeded (rate)");
}

TEST(NetServer, ShutdownVerbStopsTheServer) {
  ServerHarness h(ServerOptions{}, ping_handler());
  ASSERT_NE(h.listen(), 0);
  h.start();
  Client c;
  ASSERT_TRUE(h.connect(c));
  EXPECT_EQ(request(c, "shutdown"), "ok bye");
  for (int i = 0; i < 100 && !h.stopping(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(h.stopping());
}

// ---------------------------------------------------------------------------
// Full service over the network

TEST_F(NetFixture, ExternalAskTellIdenticalAcrossTransportsAndDirect) {
  const std::vector<std::string> script = {
      "create-study e1 external seed=5 max-trials=3",
      "ask e1",
      "tell e1 0 0.5",
      "ask e1",
      "tell e1 1 0.25",
      "ask e1",
      "tell e1 2 0.125",
  };
  // Reference: the same verbs through a bare in-process handler.
  std::vector<std::string> ref_script = script;
  ref_script.push_back("trace e1");
  const std::string want = direct_last_response(ref_script);
  ASSERT_EQ(want.rfind("ok n=", 0), 0) << want;

  // Frames over TCP and over the Unix listener.
  for (const bool via_unix : {false, true}) {
    SCOPED_TRACE(via_unix ? "unix" : "tcp");
    ServerHarness h(manager_options(fresh_dir()), pool_, ServerOptions{});
    ASSERT_NE(h.listen(), 0);
    ASSERT_TRUE(h.listen_unix(socket_path("asktell")));
    h.start();
    Client c;
    ASSERT_TRUE(h.connect(c, via_unix));
    c.set_tenant(4);
    for (const std::string& v : script) {
      ASSERT_EQ(request(c, v).rfind("ok", 0), 0) << v;
    }
    EXPECT_EQ(request(c, "trace e1"), want);
  }
}

TEST_F(NetFixture, StudyQuotaGatesCreateAndReleasesOnSuspend) {
  ServerOptions sopts;
  sopts.quota.max_studies_per_tenant = 1;
  ServerHarness h(manager_options(fresh_dir()), pool_, sopts);
  ASSERT_NE(h.listen(), 0);
  h.start();
  Client a;
  ASSERT_TRUE(h.connect(a));
  a.set_tenant(1);
  EXPECT_EQ(request(a, "create-study q1 external max-trials=2")
                .rfind("ok created", 0),
            0);
  EXPECT_EQ(request(a, "create-study q2 external max-trials=2"),
            "err quota exceeded (max 1 concurrent studies per tenant)");
  // A different tenant is unaffected.
  a.set_tenant(2);
  EXPECT_EQ(request(a, "create-study q3 external max-trials=2")
                .rfind("ok created", 0),
            0);
  // Suspending releases the slot.
  a.set_tenant(1);
  EXPECT_EQ(request(a, "suspend q1"), "ok suspended q1");
  EXPECT_EQ(request(a, "create-study q4 external max-trials=2")
                .rfind("ok created", 0),
            0);
}

TEST_F(NetFixture, CreateStudyRejectsMalformedNumbers) {
  const std::string dir = fresh_dir();
  service::StudyManager mgr(manager_options(dir));
  mgr.register_pool("p", pool_);
  service::ServiceHandler handler(mgr, "p");
  bool running = true;
  // Every integer key parses strictly: no sign (-1 would wrap to an
  // uncapped SIZE_MAX), no trailing junk (8x is not 8), no empty value.
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"max-trials", "-1"}, {"configs", "8x"},      {"budget", "+9"},
      {"seed", ""},         {"eval-clients", "0x4"}, {"deadline", "1e3"},
  };
  for (const auto& [key, value] : bad) {
    EXPECT_EQ(handler.handle("create-study m1 external " + key + "=" + value,
                             &running),
              "err bad value for '" + key + "'")
        << key << "=" << value;
  }
  EXPECT_EQ(mgr.find("m1"), nullptr);
  EXPECT_FALSE(std::filesystem::exists(dir + "/m1.journal"));
  EXPECT_EQ(handler.handle("create-study m1 external configs=8 max-trials=3",
                           &running),
            "ok created m1");
  EXPECT_TRUE(std::filesystem::exists(dir + "/m1.journal"));
}

TEST_F(NetFixture, SlowReaderDisconnectedOthersBitwiseUnaffected) {
  obs::Counter& backpressure = obs::MetricsRegistry::global().counter(
      "fedtune_net_disconnects_total", {{"reason", "backpressure"}});
  const std::uint64_t before = backpressure.value();

  ServerOptions sopts;
  sopts.max_write_queue_bytes = 16 * 1024;  // ~2 blob responses
  sopts.sndbuf_bytes = 4096;                // keep the kernel buffer small
  ServerHarness h(manager_options(fresh_dir()), pool_, sopts);
  ASSERT_NE(h.listen(), 0);
  h.start();

  // The stalled reader: pipelines 64 blob requests (64 * ~8 KiB of
  // responses) and never reads a byte.
  Client slow;
  ASSERT_TRUE(h.connect(slow));
  Frame blob;
  blob.opcode = Opcode::kPing;
  blob.payload = "blob";
  std::string flood;
  for (int i = 0; i < 64; ++i) flood += encode_frame(blob);
  slow.send_bytes(flood);  // may itself fail once the server disconnects

  // The server must hit the write-queue cap and cut the connection without
  // stalling the loop.
  bool disconnected = false;
  for (int i = 0; i < 500; ++i) {
    if (backpressure.value() > before) {
      disconnected = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(disconnected) << "slow reader was never disconnected";

  // Meanwhile a healthy tenant's managed study runs to completion with a
  // trajectory bitwise-identical to an in-process run.
  Client healthy;
  ASSERT_TRUE(h.connect(healthy));
  const std::string create =
      "create-study s1 method=rs configs=8 seed=17 eval-clients=4 epsilon=25";
  ASSERT_EQ(request(healthy, create).rfind("ok created", 0), 0);
  const std::string got = drive_to_trace(
      [&healthy](const std::string& v) { return request(healthy, v); }, "s1");

  const std::string want = direct_last_response(
      {create, "drive s1 5000", "trace s1"});
  ASSERT_EQ(want.rfind("ok n=", 0), 0) << want;
  EXPECT_EQ(got, want);
}

TEST_F(NetFixture, KillResumeOverTcpBitwiseIdentical) {
  const std::string create =
      "create-study k1 method=sha configs=8 seed=17 eval-clients=4 epsilon=25";
  const std::string want = direct_last_response(
      {create, "drive k1 5000", "trace k1"});
  ASSERT_EQ(want.rfind("ok n=", 0), 0) << want;

  // Interrupt the TCP-served study at several tell boundaries: drive k
  // steps, tear the whole server down (no suspend — the journal is the only
  // survivor, as after SIGKILL), restart on the same journal dir, resume,
  // finish, and demand the bitwise-identical trajectory.
  for (const int kill_after : {1, 2, 4, 7}) {
    const std::string dir = fresh_dir();
    {
      ServerHarness h(manager_options(dir), pool_, ServerOptions{});
      ASSERT_NE(h.listen(), 0);
      h.start();
      Client c;
      ASSERT_TRUE(h.connect(c));
      ASSERT_EQ(request(c, create).rfind("ok created", 0), 0);
      ASSERT_EQ(request(c, "drive k1 " + std::to_string(kill_after))
                    .rfind("ok ran=", 0),
                0);
    }  // server + manager destroyed with the study mid-flight
    {
      ServerHarness h(manager_options(dir), pool_, ServerOptions{});
      ASSERT_NE(h.listen(), 0);
      h.start();
      Client c;
      ASSERT_TRUE(h.connect(c));
      ASSERT_EQ(request(c, "resume k1").rfind("ok resumed", 0), 0)
          << "kill_after=" << kill_after;
      const std::string got = drive_to_trace(
          [&c](const std::string& v) { return request(c, v); }, "k1");
      EXPECT_EQ(got, want) << "kill_after=" << kill_after;
    }
  }
}

}  // namespace
}  // namespace fedtune::net
