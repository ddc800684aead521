// serve-gen: the traffic generator for the serve-pair workload.
//
// One thread, one epoll, at most four pipelined binary-frame connections to
// the primary of a two-member roster. Every study name is chosen so the
// roster's consistent-hash placement puts it on --primary, so all traffic
// lands on one member and replicates to the other.
//
// Traffic. kSlots external studies of kTrialsPerStudy trials are spread
// over the connections. A trial is `ask`, then `tell` as soon as the ask's
// reply arrives; a trial with no idle study waits in a backlog. A study that
// has had all its tells answers `best` (checked against the minimum
// objective told), is suspended, and a fresh study is created in its slot.
// Each open study is also watched the way `fedtune_ctl wait` watches one: a
// `status` read every 100 ms, so reads arrive at kSlots * kPollHz per second
// whatever the trial rate.
//
// Commands come on stdin, one per line, and each is answered with one JSON
// line on stdout:
//
//   step NAME RATE SECONDS  open loop: trials at RATE/s plus the status
//                           reads, on a seeded fixed-rate schedule; latency
//                           is measured from each arrival's intended time,
//                           so a stall delays every arrival behind it (no
//                           coordinated omission). The answer holds every
//                           sample, the generator's lateness (processing
//                           minus intended time) and the backlog (waiting +
//                           in-flight trials) at the middle and end of the
//                           step; run.py judges the step.
//   burst TRIALS            closed loop on a fresh pair: each study slot
//                           runs an equal share of TRIALS back to back;
//                           answers the time from the first send to the
//                           last tell ack.
//   end                     answers the op counts, the best checks and the
//                           primary's `metrics` text, then exits.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/placement.hpp"
#include "common/rng.hpp"
#include "net/frame.hpp"
#include "util.hpp"

namespace perfbench {

using namespace fedtune;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// At most four connections (the benchmark's client budget on a 4-CPU host),
// 32 studies on each: enough idle studies that arrivals below saturation
// never wait for one.
constexpr std::size_t kConns = 4;
constexpr std::size_t kSlots = kConns * 32;
// The paper's random-search budget, K = 16 configs (sim::ExperimentOptions).
constexpr std::size_t kTrialsPerStudy = 16;
// `fedtune_ctl wait` polls `status` every 100 ms.
constexpr double kPollHz = 10.0;

enum class Kind : std::uint8_t { kCreate, kAsk, kTell, kStatus, kBest, kSuspend, kMetrics };

const char* verb_of(Kind k) {
  switch (k) {
    case Kind::kCreate: return "create-study";
    case Kind::kAsk: return "ask";
    case Kind::kTell: return "tell";
    case Kind::kStatus: return "status";
    case Kind::kBest: return "best";
    case Kind::kSuspend: return "suspend";
    case Kind::kMetrics: return "metrics";
  }
  return "?";
}

struct Pending {
  Kind kind;
  int slot;
  double intended;  // arrival's intended time (trials, reads)
  double sent;
  int step;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
};

enum class SlotState : std::uint8_t { kIdle, kTrial, kRecycle };

struct Slot {
  int conn = 0;
  std::string name;
  SlotState state = SlotState::kRecycle;
  std::size_t told = 0;
  double min_obj = kInf;
  long trial_id = 0;
  double intended = 0;  // current trial's arrival time
  int step = -1;
  std::uint64_t study_no = 0;
  std::size_t quota = 0;  // trials left for this slot in the current burst
};

struct StepStats {
  std::string name;
  double rate = 0, duration = 0;
  std::size_t trials = 0, reads = 0, failed = 0;
  std::vector<double> trial_ms, read_ms, late_ms;
  std::vector<double> trial_t, read_t;  // intended times, seconds after t0
  double backlog_mid = 0, backlog_end = 0;
  double t0 = 0, wall = 0;  // CLOCK_MONOTONIC start, seconds
  double last_ack = 0;      // time of the step's last trial reply
  SampleMap rtt_us;         // client-side round trip per verb
};

class Generator {
 public:
  explicit Generator(const Args& a)
      : seed_(a.u64("seed", 1)),
        placement_(cluster::Roster::load(a.need("roster"))),
        primary_(a.need("primary")),
        pick_rng_(Rng(seed_).split(7)) {
    const cluster::ClusterMember* m = placement_.roster().find(primary_);
    if (m == nullptr) throw std::invalid_argument("primary not in roster");
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    for (std::size_t c = 0; c < kConns; ++c) conns_.push_back(connect_to(m->host, m->port));
    slots_.resize(kSlots);
    for (std::size_t i = 0; i < slots_.size(); ++i) slots_[i].conn = int(i % kConns);
  }
  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ep_ >= 0) ::close(ep_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  void create_all() {
    for (std::size_t i = 0; i < slots_.size(); ++i) recycle(int(i), /*with_best=*/false);
    while (idle_.size() < slots_.size()) {
      if (!pump(now_s() + 5.0)) throw std::runtime_error("initial creates stalled");
    }
  }

  // Open-loop step: arrivals every 1/rate seconds for `duration` seconds.
  StepStats run_step(const std::string& name, double rate, double duration) {
    StepStats st;
    st.name = name;
    st.rate = rate;
    st.duration = duration;
    const int step = steps_run_++;
    Rng rng = Rng(seed_).split(1000 + std::uint64_t(step));
    // `rate` counts trials; the watchers' reads arrive on top of them.
    const double reads = double(kSlots) * kPollHz;
    const double arrivals = rate + reads;
    const double p_read = reads / arrivals;
    const auto n = static_cast<std::size_t>(std::llround(arrivals * duration));
    const double t0 = now_s() + 0.002;
    st.t0 = t0;
    cur_ = &st;
    cur_step_ = step;
    bool mid_done = false;
    std::size_t k = 0;
    while (k < n) {
      const double now = now_s();
      while (k < n && t0 + double(k) / arrivals <= now) {
        const double due = t0 + double(k) / arrivals;
        st.late_ms.push_back(1e3 * (now - due));
        if (rng.uniform() < p_read) {
          send_read(rng, due);
        } else {
          ++st.trials;
          backlog_.push_back(due);
        }
        ++k;
        if (!mid_done && k >= n / 2) {
          st.backlog_mid = double(backlog_.size() + in_flight_);
          mid_done = true;
        }
      }
      start_backlog();
      flush_all();
      const double next = k < n ? t0 + double(k) / arrivals : now;
      wait_events(next);
    }
    st.backlog_end = double(backlog_.size() + in_flight_);
    drain(now_s() + 3.0);
    st.wall = now_s() - t0;
    count_unserved(st);
    cur_ = nullptr;
    return st;
  }

  // Closed loop: `trials` trials due at once. The work is fixed: every
  // study slot runs the same number of trials back to back, so the number
  // of studies finished does not depend on reply timing. An untimed
  // prelude first has slot i tell i % kTrialsPerStudy trials, so the
  // burst's study turnovers are spread out rather than all at once.
  StepStats run_burst(std::size_t trials) {
    if (trials == 0 || trials % (kSlots * kTrialsPerStudy) != 0 || idle_.size() != kSlots) {
      throw std::invalid_argument("burst needs all studies idle and a multiple of " +
                                  std::to_string(kSlots * kTrialsPerStudy) + " trials");
    }
    StepStats prelude;
    run_quotas(prelude, [](std::size_t i) { return i % kTrialsPerStudy; });
    StepStats st;
    st.name = "burst";
    run_quotas(st, [&](std::size_t) { return trials / kSlots; });
    st.wall = st.last_ack - st.t0;
    return st;
  }

  // Waits for every outstanding request (study turnover included), then
  // scrapes the primary's `metrics`.
  std::string scrape_metrics() {
    const double deadline = now_s() + 5.0;
    while (outstanding() && pump(deadline)) {
    }
    send(-1, Kind::kMetrics, "", 0, now_s());
    metrics_.clear();
    while (outstanding() && pump(deadline)) {
    }
    return metrics_;
  }

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  std::size_t studies_created() const { return created_; }
  std::size_t tells_acked() const { return tells_; }
  std::size_t best_checked() const { return best_checked_; }

 private:
  Conn connect_to(const std::string& host, std::uint16_t port) {
    Conn c;
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(port);
    if (c.fd < 0 || ::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1 ||
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string why = std::strerror(errno);
      if (c.fd >= 0) ::close(c.fd);
      throw std::runtime_error("connect " + host + ":" + std::to_string(port) + ": " + why);
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = std::uint32_t(conns_.size());
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, c.fd, &ev);
    return c;
  }

  std::string next_name() {
    // Study names whose consistent-hash primary is --primary.
    while (true) {
      std::string name = "g";
      name += std::to_string(seed_);
      name += '_';
      name += std::to_string(name_no_++);
      if (placement_.primary(name).id == primary_) return name;
    }
  }

  void send(int slot, Kind kind, const std::string& args, double intended, double now) {
    const int ci = slot < 0 ? 0 : slots_[std::size_t(slot)].conn;
    Conn& c = conns_[std::size_t(ci)];
    net::Frame f;
    f.opcode = *net::opcode_for_verb(verb_of(kind));
    f.payload = args;
    c.out += net::encode_frame(f);
    c.pending.push_back({kind, slot, intended, now, cur_step_});
    ++attempted_;
  }

  void send_read(Rng& rng, double due) {
    // Reads target a random study that currently exists.
    for (int tries = 0; tries < 8; ++tries) {
      const auto i = std::size_t(rng.uniform_int(0, std::int64_t(slots_.size()) - 1));
      if (slots_[i].state != SlotState::kRecycle) {
        ++cur_->reads;
        send(int(i), Kind::kStatus, slots_[i].name, due, now_s());
        return;
      }
    }
  }

  void start_backlog() {
    const double now = now_s();
    if (burst_left_ > 0) {
      // Burst: every idle study with trials left in its quota starts one.
      for (std::size_t k = 0; k < idle_.size();) {
        const int i = idle_[k];
        if (slots_[std::size_t(i)].quota == 0) {
          ++k;
          continue;
        }
        idle_[k] = idle_.back();
        idle_.pop_back();
        --slots_[std::size_t(i)].quota;
        --burst_left_;
        begin_trial(i, cur_->t0, now);
      }
      return;
    }
    while (!backlog_.empty() && !idle_.empty()) {
      // A seeded random idle study, not the longest-idle one: FIFO order
      // would march every study through its lifecycle in lockstep and
      // turn study turnover into periodic create/suspend storms.
      const auto pick = std::size_t(pick_rng_.uniform_int(0, std::int64_t(idle_.size()) - 1));
      const int i = idle_[pick];
      idle_[pick] = idle_.back();
      idle_.pop_back();
      begin_trial(i, backlog_.front(), now);
      backlog_.pop_front();
    }
  }

  // Gives slot i quota(i) trials, runs them all and counts the unserved.
  template <typename Quota>
  void run_quotas(StepStats& st, Quota quota) {
    cur_ = &st;
    cur_step_ = steps_run_++;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      slots_[i].quota = quota(i);
      burst_left_ += slots_[i].quota;
    }
    st.trials = burst_left_;
    st.t0 = now_s();
    drain(st.t0 + 60.0);
    burst_left_ = 0;
    count_unserved(st);
    cur_ = nullptr;
  }

  void begin_trial(int i, double intended, double now) {
    Slot& s = slots_[std::size_t(i)];
    s.state = SlotState::kTrial;
    s.intended = intended;
    s.step = cur_step_;
    ++in_flight_;
    send(i, Kind::kAsk, s.name, s.intended, now);
  }

  void recycle(int i, bool with_best) {
    Slot& s = slots_[std::size_t(i)];
    s.state = SlotState::kRecycle;
    if (with_best) {
      send(i, Kind::kBest, s.name, 0, now_s());
    } else if (!s.name.empty()) {
      send(i, Kind::kSuspend, s.name, 0, now_s());
    } else {
      create(i);
    }
  }

  void create(int i) {
    Slot& s = slots_[std::size_t(i)];
    s.name = next_name();
    s.told = 0;
    s.min_obj = kInf;
    s.study_no = created_++;
    send(i, Kind::kCreate,
         s.name + " external seed=" + std::to_string(seed_ * 100003 + s.study_no) +
             " configs=" + std::to_string(kTrialsPerStudy) +
             " max-trials=" + std::to_string(kTrialsPerStudy),
         0, now_s());
  }

  // Trials still unserved after the drain deadline never met any limit:
  // they count as failed ops with infinite latency.
  void count_unserved(StepStats& st) {
    while (st.trial_ms.size() < st.trials) {
      st.trial_ms.push_back(kInf);
      st.trial_t.push_back(st.duration);
      ++st.failed;
      ++failed_;
      ++attempted_;
    }
  }

  void fail_op() {
    ++failed_;
    if (cur_ != nullptr) ++cur_->failed;
  }

  void finish_trial(Slot& s, double now, bool ok) {
    --in_flight_;
    if (cur_ != nullptr && s.step == cur_step_) {
      cur_->trial_ms.push_back(ok ? 1e3 * (now - s.intended) : kInf);
      cur_->trial_t.push_back(s.intended - cur_->t0);
      cur_->last_ack = now;
      if (!ok) ++cur_->failed;
    }
  }

  void on_reply(std::size_t ci, const net::Frame& f) {
    Conn& c = conns_[ci];
    if (c.pending.empty()) throw std::runtime_error("unsolicited reply");
    const Pending p = c.pending.front();
    c.pending.pop_front();
    const double now = now_s();
    const bool ok = f.opcode == net::Opcode::kOk;
    if (cur_ != nullptr) cur_->rtt_us[verb_of(p.kind)].push_back(1e6 * (now - p.sent));
    if (!ok) ++failed_;
    if (p.slot < 0) {
      metrics_ = f.payload;
      return;
    }
    Slot& s = slots_[std::size_t(p.slot)];
    switch (p.kind) {
      case Kind::kStatus:
        if (cur_ != nullptr && p.step == cur_step_) {
          if (ok) {
            cur_->read_ms.push_back(1e3 * (now - p.intended));
            cur_->read_t.push_back(p.intended - cur_->t0);
          } else {
            ++cur_->failed;
          }
        }
        return;
      case Kind::kAsk: {
        const std::size_t at = f.payload.find("id=");
        if (!ok || at == std::string::npos) {
          finish_trial(s, now, false);
          recycle(p.slot, false);
          return;
        }
        s.trial_id = std::stol(f.payload.substr(at + 3));
        // Objectives are a pure function of (seed, study, trial index).
        Rng r = Rng(seed_).split(s.study_no).split(s.told);
        char obj[40];
        std::snprintf(obj, sizeof(obj), "%.17g", r.uniform());
        s.min_obj = std::min(s.min_obj, std::strtod(obj, nullptr));
        send(p.slot, Kind::kTell, s.name + " " + std::to_string(s.trial_id) + " " + obj,
             s.intended, now);
        return;
      }
      case Kind::kTell:
        finish_trial(s, now, ok);
        if (!ok) {
          recycle(p.slot, false);
          return;
        }
        ++tells_;
        if (++s.told >= kTrialsPerStudy) {
          recycle(p.slot, true);
        } else {
          s.state = SlotState::kIdle;
          idle_.push_back(p.slot);
        }
        return;
      case Kind::kBest: {
        // `ok id=.. error=<hex float>` must name the minimum we told.
        const std::size_t at = f.payload.find("error=");
        const bool match = ok && at != std::string::npos &&
                           std::strtod(f.payload.c_str() + at + 6, nullptr) == s.min_obj;
        ++best_checked_;
        if (ok && !match) fail_op();
        send(p.slot, Kind::kSuspend, s.name, 0, now);
        return;
      }
      case Kind::kSuspend:
        create(p.slot);
        return;
      case Kind::kCreate:
        if (!ok) return;  // the slot stays out of service
        s.state = SlotState::kIdle;
        idle_.push_back(p.slot);
        return;
      case Kind::kMetrics:
        return;
    }
  }

  void flush_all() {
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                                 MSG_NOSIGNAL);
        if (w > 0) {
          c.out_off += std::size_t(w);
        } else if (w < 0 && errno == EINTR) {
          continue;
        } else if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          break;
        } else {
          throw std::runtime_error(std::string("send: ") + std::strerror(errno));
        }
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  // Waits for socket events until `until` (absolute), handling replies.
  void wait_events(double until) {
    const double dt = std::max(0.0, until - now_s());
    timespec ts{};
    ts.tv_sec = time_t(dt);
    ts.tv_nsec = long((dt - double(ts.tv_sec)) * 1e9);
    epoll_event evs[8];
    const int n = ::epoll_pwait2(ep_, evs, 8, &ts, nullptr);
    if (n < 0 && errno != EINTR) throw std::runtime_error("epoll_pwait2");
    for (int e = 0; e < n; ++e) read_conn(evs[e].data.u32);
  }

  void read_conn(std::size_t ci) {
    Conn& c = conns_[ci];
    char buf[65536];
    while (true) {
      const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
      if (r > 0) {
        c.in.append(buf, std::size_t(r));
        continue;
      }
      if (r < 0 && errno == EINTR) continue;
      if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      throw std::runtime_error("connection closed by server");
    }
    std::size_t off = 0;
    while (true) {
      // The `metrics` reply carries per-study series and outgrows the default
      // request cap.
      net::DecodeResult d = net::decode_frame(std::string_view(c.in).substr(off), 256u << 20);
      if (d.status == net::DecodeStatus::kNeedMore) break;
      if (d.status == net::DecodeStatus::kBad) throw std::runtime_error("bad frame: " + d.error);
      off += d.consumed;
      on_reply(ci, d.frame);
    }
    c.in.erase(0, off);
  }

  // One round of I/O; false once `deadline` has passed.
  bool pump(double deadline) {
    start_backlog();
    flush_all();
    wait_events(std::min(deadline, now_s() + 0.05));
    return now_s() < deadline;
  }

  // Serves what is queued until the backlog and in-flight trials are done.
  void drain(double deadline) {
    while ((!backlog_.empty() || burst_left_ > 0 || in_flight_ > 0 || pending_reads()) &&
           pump(deadline)) {
    }
    start_backlog();
    flush_all();
  }

  bool pending_reads() const {
    for (const Conn& c : conns_) {
      for (const Pending& p : c.pending) {
        if (p.kind == Kind::kStatus && p.step == cur_step_) return true;
      }
    }
    return false;
  }

  bool outstanding() const {
    for (const Conn& c : conns_) {
      if (!c.pending.empty()) return true;
    }
    return false;
  }

  std::uint64_t seed_;
  cluster::Placement placement_;
  std::string primary_;
  int ep_ = -1;
  std::vector<Conn> conns_;
  std::vector<Slot> slots_;
  std::vector<int> idle_;
  Rng pick_rng_;
  std::deque<double> backlog_;  // intended times of waiting trials
  std::size_t burst_left_ = 0;  // burst trials not yet started
  std::size_t in_flight_ = 0;
  StepStats* cur_ = nullptr;
  int cur_step_ = -1;
  int steps_run_ = 0;
  std::uint64_t name_no_ = 0;
  std::size_t created_ = 0, tells_ = 0, best_checked_ = 0;
  std::size_t attempted_ = 0, failed_ = 0;
  std::string metrics_;
};

Json step_json(const StepStats& s) {
  Json j;
  j.str("name", s.name)
      .num("rate", s.rate)
      .num("duration_s", s.duration)
      .num("wall_s", s.wall)
      .num("trials", double(s.trials))
      .num("failed", double(s.failed));
  if (s.name == "burst") return j;  // its latencies only count from t0
  j.num("t0", s.t0)
      .num("reads", double(s.reads))
      .num("backlog_mid", s.backlog_mid)
      .num("backlog_end", s.backlog_end)
      .arr("trial_ms", s.trial_ms)
      .arr("read_ms", s.read_ms)
      .arr("late_ms", s.late_ms)
      .arr("trial_t", s.trial_t)
      .arr("read_t", s.read_t)
      .obj("rtt_us", samples_json(s.rtt_us));
  return j;
}

void answer(const Json& j) {
  std::cout << j.text() << std::endl;
}

}  // namespace

int cmd_serve_gen(const Args& a) {
  Generator g(a);
  g.create_all();
  for (std::string line; std::getline(std::cin, line);) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "step") {
      std::string name;
      double rate = 0, seconds = 0;
      if (!(in >> name >> rate >> seconds)) throw std::invalid_argument("bad step: " + line);
      answer(step_json(g.run_step(name, rate, seconds)));
    } else if (cmd == "burst") {
      std::size_t trials = 0;
      if (!(in >> trials)) throw std::invalid_argument("bad burst: " + line);
      answer(step_json(g.run_burst(trials)));
    } else if (cmd == "end") {
      const std::string metrics = g.scrape_metrics();
      answer(Json()
                 .num("attempted", double(g.attempted()))
                 .num("failed", double(g.failed()))
                 .num("studies_created", double(g.studies_created()))
                 .num("tells_acked", double(g.tells_acked()))
                 .num("best_checked", double(g.best_checked()))
                 .str("primary_metrics", metrics));
      return 0;
    } else {
      throw std::invalid_argument("unknown command: " + line);
    }
  }
  throw std::runtime_error("stdin closed before `end`");
}

}  // namespace perfbench
