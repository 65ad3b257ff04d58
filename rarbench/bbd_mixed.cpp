// bbd_mixed: a forked bbd serving a three-domain world on a private UNIX
// socket, driven by one thread of this process over two pipelined
// connections (window 8 each).
// Each connection churns flows in its own aggregate tunnel; every
// kRarEvery-th batch also sets up and releases one hop-by-hop RAR. Every
// op is timed from call_async() to its wait() returning, so pipelined
// latencies include queueing, as an operator sees them.
#include <optional>

#include "daemon.hpp"
#include "inproc.hpp"
#include "net/bbd_protocol.hpp"
#include "workloads.hpp"

namespace rarbench {

using namespace e2e;

namespace {

constexpr std::size_t kDomains = 3;
constexpr std::size_t kConnections = 2;
constexpr std::uint64_t kDepth = 8;
constexpr std::size_t kLivePerTunnel = 512;
constexpr double kAggregate = 10e9;
/// The user pool. Minting it (two key pairs per user) is most of the
/// set-up and makes it long enough, about 2 s, for one cold timing of it to
/// average over the host's sub-second swings in speed.
constexpr std::size_t kUsers = 1024;
/// Per connection and window: this many batches of kDepth reserves then
/// kDepth releases; every kRarEvery-th batch swaps one flow for a RAR.
constexpr std::size_t kBatchesPerWindow = 8;
/// A flow pipelined beside a RAR waits about twice as long as one that is
/// not, so the share of batches with a RAR in them must stay well below
/// half, or the median flow_us sits on the step between the two: with the
/// connections taking turns, a RAR in one batch of every kRarEvery per
/// connection puts one in a quarter of all batches.
constexpr std::size_t kRarEvery = 8;
/// Windows of fixed work per --seconds (~12 ms each at the fast speed);
/// the daemon retains memory per flow, which bounds the work.
constexpr std::size_t kWindowsPerSecond = 24;
constexpr std::size_t kPings = 256;
constexpr std::size_t kSizeProbes = 4;


/// A RAR as the benchmark asks for it.
struct RarAsk {
  std::string user;
  double rate = 0;
  TimeInterval interval;
  SimTime at = 0;
};

net::BbdRequest flow_request(const std::string& tunnel, const std::string& dn,
                             const FlowSpec& f) {
  net::BbdRequest req;
  req.op = net::BbdOp::kTunnelReserve;
  req.stra = tunnel;
  req.strb = dn;
  req.f64a = f.rate;
  req.u64a = static_cast<std::uint64_t>(f.interval.start);
  req.u64b = static_cast<std::uint64_t>(f.interval.end);
  return req;
}

net::BbdRequest flow_release(const std::string& tunnel, const std::string& sub) {
  net::BbdRequest req;
  req.op = net::BbdOp::kTunnelRelease;
  req.stra = tunnel;
  req.strb = sub;
  return req;
}

net::BbdRequest rar_request(const RarAsk& ask) {
  net::BbdRequest req;
  req.op = net::BbdOp::kReserve;
  req.stra = ask.user;
  req.f64a = ask.rate;
  req.u64a = static_cast<std::uint64_t>(ask.interval.start);
  req.u64b = static_cast<std::uint64_t>(ask.interval.end);
  req.f64b = static_cast<double>(ask.at);
  return req;
}

net::BbdRequest rar_release(const Bytes& reply_bytes) {
  net::BbdRequest req;
  req.op = net::BbdOp::kRelease;
  req.stra = "hopbyhop";
  req.bytes = reply_bytes;
  return req;
}

/// One fleet connection: its client, its tunnel, its seeded stream, its
/// share of the ledger, and what it measured in the current window. A batch
/// is two pipelined halves (kDepth reserves, then as many releases), each
/// sent in full before its responses are collected, so the main thread can
/// keep both connections' windows full at once.
struct Connection {
  explicit Connection(std::size_t index, std::uint64_t seed,
                      Clock::time_point epoch)
      : index(index), rng(seed * 1000003 + index), spans(epoch) {}

  std::size_t index;
  std::optional<net::BbdClient> client;
  TunnelRef tunnel;
  Rng rng;
  Ledger ledger;
  std::vector<std::string> live;
  std::uint64_t batches = 0;
  std::uint64_t next_id = 0;
  SpanLog spans;
  const std::vector<std::string>* users = nullptr;
  const std::vector<std::string>* domains = nullptr;

  // Current window.
  std::vector<double> samples[kKinds];
  std::uint64_t ops = 0;
  // Whole run.
  double wait_us = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failed operations
  std::vector<std::string> wrong;   // replies that fail a check

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }

  /// The half-batch in flight.
  struct InFlight {
    int kind = kFlow;
    const char* name = "";
    std::optional<net::BbdClient::Call> call;
    Clock::time_point start;
    std::uint64_t id = 0;
    std::uint32_t root = 0;
    FlowSpec flow;              // reserves of a flow
    std::optional<RarAsk> rar;  // the RAR reserve
    std::string victim;         // releases of a flow
  };
  std::vector<InFlight> inflight;
  std::optional<std::pair<std::string, Bytes>> granted_rar;

  void send(net::BbdRequest req, InFlight op) {
    // Connections number their requests apart from each other and from the
    // in-process replays (which start at 1).
    op.id = (static_cast<std::uint64_t>(index + 1) << 48) | ++next_id;
    op.root = spans.begin(op.name, op.id);
    op.start = Clock::now();
    const std::uint32_t s = spans.begin("net.call_async", op.id, op.root);
    auto call = client->call_async(std::move(req));
    spans.end(s);
    if (call.ok()) {
      op.call = call.value();
    } else {
      fail(std::string(op.name) + ": " + call.error().to_text());
    }
    inflight.push_back(std::move(op));
  }

  /// Wait for every call in flight, in order; nullopt where one failed.
  std::vector<std::optional<net::BbdResponse>> collect() {
    std::vector<std::optional<net::BbdResponse>> out(inflight.size());
    for (std::size_t k = 0; k < inflight.size(); ++k) {
      InFlight& op = inflight[k];
      if (!op.call.has_value()) continue;
      const auto w0 = Clock::now();
      const std::uint32_t s = spans.begin("net.wait", op.id, op.root);
      auto res = client->wait(*op.call);
      spans.end(s);
      spans.end(op.root);
      const auto w1 = Clock::now();
      wait_us += us_between(w0, w1);
      if (!res.ok()) {
        fail(std::string(op.name) + ": " + res.error().to_text());
        continue;
      }
      samples[op.kind].push_back(us_between(op.start, w1));
      ++ops;
      out[k] = std::move(res.value());
    }
    return out;
  }

  void send_flow_reserve() {
    InFlight op;
    op.name = "op.flow";
    op.flow = draw_flow(rng, 1000, kHorizon, minutes(1), hours(4));
    send(flow_request(tunnel.id, tunnel.user_dn, op.flow), std::move(op));
  }

  /// First half: kDepth reserves, one of them a RAR every kRarEvery batches.
  void send_reserves() {
    inflight.clear();
    // The connections take turns, so one RAR at a time is in the daemon.
    if ((batches++ + index * kRarEvery / kConnections) % kRarEvery == 0) {
      InFlight op;
      op.kind = kRar;
      op.name = "op.rar_setup";
      RarAsk ask;
      ask.user = (*users)[rng.next_below(users->size())];
      const FlowSpec f = draw_flow(rng, 1000, kHorizon, minutes(10), hours(6));
      ask.rate = f.rate;
      ask.interval = f.interval;
      ask.at = static_cast<SimTime>((static_cast<std::uint64_t>(index) << 40) |
                                    ++next_id);
      op.rar = ask;
      send(rar_request(ask), std::move(op));
    }
    while (inflight.size() < kDepth) send_flow_reserve();
  }

  void collect_reserves() {
    auto replies = collect();
    for (std::size_t k = 0; k < replies.size(); ++k) {
      if (!replies[k].has_value()) continue;
      const InFlight& op = inflight[k];
      auto reply = sig::RarReply::decode(replies[k]->bytes);
      if (!reply.ok()) {
        wrong.push_back("undecodable reply: " + reply.error().to_text());
        continue;
      }
      if (op.rar.has_value()) {
        if (!reply->granted) {
          fail("RAR denied: " + reply->denial.to_text());
          continue;
        }
        if (const Failures bad = check_grant(reply.value(), *domains); !bad.empty()) {
          wrong.push_back("RAR: " + bad.front());
          continue;
        }
        const std::string key = format(
            "c%zu-rar-%llu", index, static_cast<unsigned long long>(op.rar->at));
        ledger.add_reservation(key, {op.rar->rate, op.rar->interval, kDomains});
        granted_rar.emplace(key, std::move(replies[k]->bytes));
        continue;
      }
      if (!reply->granted) {
        fail("flow denied: " + reply->denial.to_text());
        continue;
      }
      if (const Failures bad = check_grant(reply.value(), {}); !bad.empty()) {
        wrong.push_back("flow: " + bad.front());
        continue;
      }
      const std::string& sub = reply->handles[0].second;
      ledger.add_flow(tunnel.id, sub, op.flow.rate, op.flow.interval);
      live.push_back(sub);
    }
  }

  /// Second half: release the RAR, and random live flows down to the
  /// live-set size.
  void send_releases() {
    inflight.clear();
    if (granted_rar.has_value()) {
      InFlight op;
      op.kind = kRelease;
      op.name = "op.rar_release";
      send(rar_release(granted_rar->second), std::move(op));
    }
    while (live.size() > kLivePerTunnel) {
      const std::size_t v = rng.next_below(live.size());
      InFlight op;
      op.kind = kRelease;
      op.name = "op.flow_release";
      op.victim = std::move(live[v]);
      live[v] = std::move(live.back());
      live.pop_back();
      net::BbdRequest req = flow_release(tunnel.id, op.victim);
      send(std::move(req), std::move(op));
    }
  }

  void collect_releases() {
    auto released = collect();
    for (std::size_t k = 0; k < released.size(); ++k) {
      if (!released[k].has_value()) continue;
      if (inflight[k].victim.empty()) {
        ledger.drop_reservation(granted_rar->first);
        granted_rar.reset();
      } else {
        ledger.drop_flow(tunnel.id, inflight[k].victim);
      }
    }
  }
};

/// The daemon's registry, read through kMetricQuery.
SeriesReader daemon_reader(net::BbdClient& control) {
  return [&control](const std::string& name, const obs::Labels& labels,
                    const std::string& field) -> double {
    auto v = control.metric(name, net::render_label_list(labels), field);
    return v.ok() ? v.value() : 0;
  };
}

/// The checks' view of the daemon: kStats, and admission probes through
/// the control connection.
Observed observe_daemon(net::BbdClient& control,
                        const std::vector<Connection*>& conns) {
  Observed o;
  o.committed_at = [&control](SimTime t) {
    auto s = control.stats(t);
    return s.ok() ? s->committed : -1.0;
  };
  o.reservations = [&control]() -> std::size_t {
    auto s = control.stats(0);
    return s.ok() ? s->reservations : static_cast<std::size_t>(-1);
  };
  o.try_flow = [&control, conns](const std::string& id, double rate,
                                 TimeInterval iv) {
    for (const Connection* c : conns) {
      if (c->tunnel.id != id) continue;
      auto outcome = control.tunnel_reserve(id, c->tunnel.user_dn, rate, iv, 0);
      if (!outcome.ok() || !outcome->reply.granted) return false;
      (void)control.tunnel_release(id, outcome->reply.handles[0].second);
      return true;
    }
    return false;
  };
  return o;
}

Ledger merged(const std::vector<Connection*>& conns, const Ledger& base) {
  Ledger all = base;
  for (const Connection* c : conns) {
    for (const auto& [key, e] : c->ledger.reservations()) {
      all.add_reservation(key, e);
    }
    for (const auto& [tunnel, subs] : c->ledger.flows()) {
      for (const auto& [sub, e] : subs) {
        all.add_flow(tunnel, sub, e.rate, e.interval);
      }
    }
  }
  return all;
}

/// rar_bytes for the daemon, whose replies do not carry the RAR's size: the
/// signalling-fabric bytes of one 3-domain hop-by-hop RAR setup (request
/// and reply on every hop, as sealed), read through kMetricQuery around
/// serial kReserve calls on the control connection, each probe released at
/// once. The median over kSizeProbes.
double fabric_bytes_per_rar(net::BbdClient& control, const SeriesReader& reader,
                            const std::string& user, Report& report) {
  std::vector<double> sizes;
  for (std::size_t i = 0; i < kSizeProbes; ++i) {
    net::BbdClient::ReserveArgs args;
    args.user = user;
    args.rate = 100 * kRateQuantum;
    args.interval = {hours(1), hours(2)};
    args.at = static_cast<SimTime>((std::uint64_t{kConnections} << 40) | (i + 1));
    const double before = reader("e2e_sig_fabric_bytes_total", {}, "counter");
    auto out = control.reserve(args);
    const double after = reader("e2e_sig_fabric_bytes_total", {}, "counter");
    if (!out.ok() || !out->reply.granted) {
      report.check(false, "size probe RAR not granted");
      continue;
    }
    sizes.push_back(after - before);
    report.check(control.release("hopbyhop", out->reply_bytes).ok(),
                 "size probe RAR released");
  }
  return median(sizes);
}

}  // namespace

Report run_bbd_mixed(const RunConfig& cfg) {
  Report report;
  // Fork first: the child must not inherit threads or a large heap.
  std::unique_ptr<Daemon> daemon = Daemon::launch();
  const std::string dpid = std::to_string(static_cast<long>(daemon->pid()));

  auto control_r = daemon->connect(1);
  if (!control_r.ok()) throw std::runtime_error("connect: " + control_r.error().to_text());
  net::BbdClient control = std::move(control_r.value());

  kit::ChainWorldConfig wc;
  wc.domains = kDomains;
  wc.domain_capacity = 100e9;
  wc.sla_rate = 100e9;
  const auto cfg_start = Clock::now();
  if (!control.configure(wc.domains, 0, 0, wc.domain_capacity, wc.sla_rate).ok()) {
    throw std::runtime_error("configure failed");
  }
  const double world_build_s = us_between(cfg_start, Clock::now()) / 1e6;
  std::vector<std::string> domains;
  for (std::size_t i = 0; i < kDomains; ++i) {
    domains.push_back(kit::ChainWorld::domain_name(i));
  }

  std::vector<std::string> user_names;
  for (std::size_t c = 0; c < kConnections; ++c) {
    user_names.push_back(format("tunnel-op%zu", c));
  }
  std::vector<std::string> rar_users;
  for (std::size_t i = 0; i < kUsers; ++i) {
    rar_users.push_back(format("u%04zu", i));
    user_names.push_back(rar_users.back());
  }
  std::map<std::string, std::string> dns;
  for (const std::string& name : user_names) {
    auto dn = control.make_user(name, 0);
    if (!dn.ok()) throw std::runtime_error("make_user: " + dn.error().to_text());
    dns[name] = dn.value();
  }

  Ledger base;
  std::vector<std::unique_ptr<Connection>> owned;
  std::vector<Connection*> conns;
  for (std::size_t c = 0; c < kConnections; ++c) {
    owned.push_back(std::make_unique<Connection>(c, cfg.seed, cfg.process_start));
    Connection& conn = *owned.back();
    conns.push_back(&conn);
    conn.users = &rar_users;
    conn.domains = &domains;
    net::BbdClient::ReserveArgs agg;
    agg.user = user_names[c];
    agg.rate = kAggregate;
    agg.interval = kHorizon;
    agg.is_tunnel = true;
    auto established = control.reserve(agg);
    if (!established.ok() || !established->reply.granted) {
      throw std::runtime_error("tunnel not established");
    }
    conn.tunnel.id = established->reply.tunnel_id;
    conn.tunnel.user_dn = dns[user_names[c]];
    conn.tunnel.aggregate = kAggregate;
    conn.tunnel.interval = kHorizon;
    conn.tunnel.reply = established->reply;
    base.add_reservation(conn.tunnel.id, {kAggregate, kHorizon, kDomains});
    auto client = daemon->connect(kDepth);
    if (!client.ok() || !client->hello(false).ok() ||
        client->pipeline_window() != kDepth) {
      throw std::runtime_error("fleet connection failed");
    }
    conn.client.emplace(std::move(client.value()));
  }
  // Prefill each tunnel to its live set, pipelined.
  for (Connection* c : conns) {
    while (c->live.size() < kLivePerTunnel) {
      c->inflight.clear();
      for (std::uint64_t k = 0; k < kDepth; ++k) c->send_flow_reserve();
      c->collect_reserves();
    }
    if (c->failed != 0 || !c->wrong.empty()) {
      throw std::runtime_error("prefill failed");
    }
    c->ops = 0;
    for (auto& s : c->samples) s.clear();
    c->wait_us = 0;
  }

  const auto reader = daemon_reader(control);
  const CounterSnapshot before = CounterSnapshot::read(reader, domains);
  const double cpu_before = cpu_seconds(dpid);
  const double setup_s = us_between(cfg.process_start, Clock::now()) / 1e6;

  // Timed phase: each window is kBatchesPerWindow batches on every
  // connection, driven together from this thread.
  const std::size_t windows = static_cast<std::size_t>(cfg.seconds) * kWindowsPerSecond;
  WindowSeries series;
  std::uint64_t ops = 0;
  const Pacer pacer(cfg.seconds, windows);
  for (std::size_t w = 0; w < windows; ++w) {
    pacer.wait_for(w);
    const bool traced = cfg.trace && w % 2 == 0;
    WindowSeries::Window& window = series.open(traced);
    for (Connection* c : conns) {
      c->spans.set_enabled(traced);
      c->ops = 0;
      for (auto& s : c->samples) s.clear();
    }
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < kBatchesPerWindow; ++b) {
      for (Connection* c : conns) c->send_reserves();
      for (Connection* c : conns) c->collect_reserves();
      for (Connection* c : conns) c->send_releases();
      for (Connection* c : conns) c->collect_releases();
    }
    window.us = us_between(t0, Clock::now());
    for (Connection* c : conns) {
      window.ops += c->ops;
      for (int k = 0; k < kKinds; ++k) {
        window.samples[k].insert(window.samples[k].end(), c->samples[k].begin(),
                                 c->samples[k].end());
      }
    }
    ops += window.ops;
  }
  const double phase_s = pacer.elapsed_s();
  const double daemon_cpu_s = cpu_seconds(dpid) - cpu_before;
  const double rss_mb = rss_hwm_mb(dpid);
  const CounterSnapshot delta = CounterSnapshot::read(reader, domains).minus(before);
  // Serial pings on the control connection, after the counters are read.
  std::vector<double> pings;
  if (cfg.trace) {
    for (std::size_t p = 0; p < kPings; ++p) {
      const auto p0 = Clock::now();
      if (control.ping().ok()) pings.push_back(us_between(p0, Clock::now()));
    }
  }

  double wait_us = 0;
  for (Connection* c : conns) {
    wait_us += c->wait_us;
    report.failed += c->failed;
    for (const std::string& e : c->errors) report.note("FAILED OPERATION: " + e);
    for (const std::string& e : c->wrong) report.check(false, e);
  }
  report.attempted = ops + report.failed;

  const double rar_bytes = fabric_bytes_per_rar(control, reader, rar_users.front(), report);

  // State checks against the ledger (kStats), the admission bounds, the
  // drain, and the daemon's shutdown.
  const Observed observed = observe_daemon(control, conns);
  std::vector<SimTime> probes;
  {
    const Ledger all = merged(conns, base);
    probes = all.probe_times(cfg.seed, 16, kHorizon.end);
    for (const auto& f : check_state(all, observed, probes)) report.check(false, f);
    Rng probe_rng(cfg.seed ^ 0xb0b0);
    for (const Connection* c : conns) {
      const FlowSpec probe = draw_flow(probe_rng, 1, kHorizon, hours(1), hours(8));
      for (const auto& f : check_admission_bound(all, observed, c->tunnel.id,
                                                 kAggregate, probe.interval)) {
        report.check(false, f);
      }
    }
  }
  for (Connection* c : conns) {
    for (const std::string& sub : c->live) {
      if (c->client->tunnel_release(c->tunnel.id, sub).ok()) {
        c->ledger.drop_flow(c->tunnel.id, sub);
      }
    }
    c->live.clear();
    auto reply_bytes = c->tunnel.reply.encode();
    if (control.release("hopbyhop", reply_bytes).ok()) {
      base.drop_reservation(c->tunnel.id);
    }
  }
  for (const auto& f : check_drained(merged(conns, base), observed, probes)) {
    report.check(false, f);
  }
  for (Connection* c : conns) c->client.reset();
  report.check(daemon->shutdown(control), "daemon shut down on kShutdown");

  report.note(format("%zu windows of %zu batches x %zu connections (depth %llu, "
                     "a RAR every %zu batches), %.2f s",
                     windows, kBatchesPerWindow, kConnections,
                     static_cast<unsigned long long>(kDepth), kRarEvery, phase_s));
  if (!cfg.trace) {
    report_end_to_end(report, series, setup_s, rss_mb, rar_bytes);
    return report;
  }

  const double n = static_cast<double>(ops);
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  report.layer("kit.world_build_s", world_build_s, "s");
  report.layer("crypto.modexp_per_op", ratio(delta.modexp, n), "count");
  report.layer("crypto.signs_per_op", ratio(delta.signs, n), "count");
  report.layer("crypto.mont_ctx_miss_per_op", ratio(delta.mont_ctx_miss, n), "count");
  report.layer("crypto.verify_hit_ratio", ratio(delta.verify_hit, delta.verify_lookups), "ratio");
  report.layer("crypto.verify_lookups_per_op", ratio(delta.verify_lookups, n), "count");
  report.layer("crypto.chain_hit_ratio", ratio(delta.chain_hit, delta.chain_lookups), "ratio");
  report.layer("crypto.chain_lookups_per_op", ratio(delta.chain_lookups, n), "count");
  report.layer("sig.fabric_msgs_per_op", ratio(delta.fabric_msgs, n), "count");
  report.layer("sig.fabric_bytes_per_op", ratio(delta.fabric_bytes, n), "bytes");
  report.layer("policy.decisions_per_op", ratio(delta.policy_decisions, n), "count");
  report.layer("bb.admission_us_mean", ratio(delta.admission_us_sum, delta.admission_count), "us");
  report.layer("bb.pool_boundaries", delta.pool_boundaries, "count");
  report.layer("bb.pool_commits_per_op", ratio(delta.pool_commits, n), "count");
  report.layer("obs.audit_records_per_op", ratio(delta.audit_records, n), "count");
  report.layer("net.ping_us", median(pings), "us");
  report.layer("net.frames_per_op", ratio(delta.net_frames, n), "count");
  report.layer("net.bytes_per_op", ratio(delta.net_bytes, n), "bytes");
  report.layer("net.daemon_cpu_us_per_op", ratio(daemon_cpu_s * 1e6, n), "us");
  double busy_s = 0;
  for (const auto& w : series.all()) busy_s += w.us / 1e6;
  report.layer("net.daemon_cores_busy", ratio(daemon_cpu_s, busy_s), "cores");
  report.layer("net.client_wait_us", ratio(wait_us, n), "us");
  // The engine runs inside the daemon, where neither its calls nor its
  // trace recorders can be observed from outside.
  report_absent_layers(report, {"sig.build_request_us", "sig.reserve_us",
                                "sig.release_us", "sig.rar_decode_us",
                                "sig.verify_rar_us", "sig.append_layer_us",
                                "sig.rar_encode_us", "sig.flow_reserve_us",
                                "sig.flow_release_us", "policy.decide_us",
                                "obs.spans_retained"});
  SpanLog spans(cfg.process_start);
  for (const Connection* c : conns) spans.absorb(c->spans);
  report_trace(report, series, kFlow, "flow_us", spans, cfg);
  return report;
}

}  // namespace rarbench
