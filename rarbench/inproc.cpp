#include "inproc.hpp"

#include <stdexcept>

#include "sig/context_builder.hpp"
#include "sig/delegation.hpp"
#include "sig/trust.hpp"

namespace rarbench {

using namespace e2e;

std::unique_ptr<kit::ChainWorld> build_world(
    const kit::ChainWorldConfig& config, double* seconds) {
  const auto start = Clock::now();
  auto world = std::make_unique<kit::ChainWorld>(config);
  *seconds = us_between(start, Clock::now()) / 1e6;
  return world;
}

TunnelRef establish_tunnel(kit::ChainWorld& world,
                           const std::string& user_name, double rate,
                           TimeInterval interval, Ledger& ledger) {
  const kit::WorldUser user = world.make_user(user_name, 0);
  bb::ResSpec spec = world.spec(user, rate, interval);
  spec.is_tunnel = true;
  auto msg = world.engine().build_user_request(user.credentials(), spec, 0);
  if (!msg.ok()) throw std::runtime_error(msg.error().to_text());
  auto outcome = world.engine().reserve(msg.value(), 0);
  if (!outcome.ok() || !outcome->reply.granted) {
    throw std::runtime_error(
        "tunnel " + user_name + " denied: " +
        (outcome.ok() ? outcome->reply.denial.to_text()
                      : outcome.error().to_text()));
  }
  TunnelRef ref;
  ref.id = outcome->reply.tunnel_id;
  ref.user_dn = user.dn.to_string();
  ref.aggregate = rate;
  ref.interval = interval;
  ref.reply = outcome->reply;
  ledger.add_reservation(ref.id, {rate, interval, world.names().size()});
  return ref;
}

Observed observe_world(kit::ChainWorld& world,
                       const std::vector<TunnelRef>& tunnels, SimTime at) {
  Observed o;
  kit::ChainWorld* w = &world;
  o.committed_at = [w](SimTime t) { return w->total_committed_at(t); };
  o.reservations = [w] { return w->total_reservations(); };
  o.active_flows = [w](const std::string& id) -> std::size_t {
    const auto info = w->engine().tunnel_info(id);
    return info.has_value() ? info->active_flows : 0;
  };
  o.tunnel_pool_at = [w, tunnels](const std::string& id, SimTime t) {
    std::vector<double> out;
    for (const TunnelRef& ref : tunnels) {
      if (ref.id != id) continue;
      const auto info = w->engine().tunnel_info(id);
      if (!info.has_value()) return std::vector<double>{-1};
      // Both end domains hold a pool for the tunnel; each broker keeps one
      // tunnel per aggregate, found by its authorized user.
      for (std::size_t i = 0; i < w->names().size(); ++i) {
        const std::string& domain = w->names()[i];
        if (domain != info->source_domain &&
            domain != info->destination_domain) {
          continue;
        }
        for (const bb::Tunnel* tunnel : w->broker(i).all_tunnels()) {
          if (tunnel->spec().user == ref.user_dn) {
            out.push_back(tunnel->allocated_peak({t, t + 1}));
          }
        }
      }
    }
    return out;
  };
  o.try_flow = [w, tunnels, at](const std::string& id, double rate,
                                TimeInterval iv) {
    for (const TunnelRef& ref : tunnels) {
      if (ref.id != id) continue;
      auto outcome = w->engine().reserve_in_tunnel(id, ref.user_dn, rate, iv, at);
      if (!outcome.ok() || !outcome->reply.granted) return false;
      (void)w->engine().release_in_tunnel(id, outcome->reply.handles[0].second);
      return true;
    }
    return false;
  };
  return o;
}

FlowSpec draw_flow(Rng& rng, std::uint64_t max_quanta, TimeInterval within,
                   SimTime min_len, SimTime max_len) {
  FlowSpec f;
  f.rate = static_cast<double>(uniform(rng, 1, max_quanta)) * kRateQuantum;
  const SimTime len = static_cast<SimTime>(uniform(
      rng, static_cast<std::uint64_t>(min_len),
      static_cast<std::uint64_t>(max_len)));
  const SimTime latest_start = within.end - len;
  f.interval.start = within.start + static_cast<SimTime>(uniform(
      rng, 0, static_cast<std::uint64_t>(latest_start - within.start)));
  f.interval.end = f.interval.start + len;
  return f;
}

std::optional<LiveRar> EngineCalls::setup_rar(const kit::WorldUser& user,
                                               const sig::UserCredentials& cred,
                                               const FlowSpec& f,
                                               WindowSeries::Window* window) {
  const std::uint64_t id = ++request_;
  const SimTime at = static_cast<SimTime>(id);
  const bb::ResSpec spec = world_.spec(user, f.rate, f.interval);
  const SpanLog::Scope op(spans_, "op.rar_setup", id);
  const auto t0 = Clock::now();
  auto msg = [&] {
    const SpanLog::Scope s(spans_, kSpanBuild, id, op.id());
    return world_.engine().build_user_request(cred, spec, at);
  }();
  Result<sig::HopByHopEngine::Outcome> outcome =
      msg.ok() ? [&] {
        const SpanLog::Scope s(spans_, kSpanReserve, id, op.id());
        return world_.engine().reserve(msg.value(), at);
      }()
               : Result<sig::HopByHopEngine::Outcome>(msg.error());
  const double us = us_between(t0, Clock::now());
  if (!outcome.ok() || !outcome->reply.granted) {
    report_.fail_op("RAR " + std::to_string(id) + ": " +
                    (outcome.ok() ? outcome->reply.denial.to_text()
                                  : outcome.error().to_text()));
    return std::nullopt;
  }
  if (const Failures bad = check_grant(outcome->reply, world_.names());
      !bad.empty()) {
    report_.check(false, "RAR " + std::to_string(id) + ": " + bad.front());
    return std::nullopt;
  }
  if (window != nullptr) window->samples[kRar].push_back(us);
  rar_bytes_.push_back(static_cast<double>(outcome->final_wire_bytes));
  LiveRar rar{"rar-" + std::to_string(id), std::move(outcome->reply)};
  ledger_.add_reservation(rar.key, {f.rate, f.interval, world_.names().size()});
  return rar;
}

void EngineCalls::release_rar(const LiveRar& rar,
                               WindowSeries::Window* window) {
  const std::uint64_t id = ++request_;
  const SpanLog::Scope op(spans_, "op.rar_release", id);
  const auto t0 = Clock::now();
  Status released = [&] {
    const SpanLog::Scope s(spans_, kSpanRelease, id, op.id());
    return world_.engine().release_end_to_end(rar.reply);
  }();
  const double us = us_between(t0, Clock::now());
  if (!released.ok()) {
    report_.fail_op("release " + rar.key + ": " + released.error().to_text());
    return;
  }
  if (window != nullptr) window->samples[kRelease].push_back(us);
  ledger_.drop_reservation(rar.key);
}

std::optional<std::string> EngineCalls::reserve_flow(
    const TunnelRef& tunnel, const FlowSpec& f, WindowSeries::Window* window) {
  const std::uint64_t id = ++request_;
  const SpanLog::Scope op(spans_, "op.flow", id);
  const auto t0 = Clock::now();
  auto outcome = [&] {
    const SpanLog::Scope s(spans_, kSpanFlowReserve, id, op.id());
    return world_.engine().reserve_in_tunnel(tunnel.id, tunnel.user_dn, f.rate,
                                             f.interval, 0);
  }();
  const double us = us_between(t0, Clock::now());
  if (!outcome.ok() || !outcome->reply.granted) {
    report_.fail_op("flow " + std::to_string(id) + " not granted");
    return std::nullopt;
  }
  if (const Failures bad = check_grant(outcome->reply, {}); !bad.empty()) {
    report_.check(false, "flow " + std::to_string(id) + ": " + bad.front());
    return std::nullopt;
  }
  if (window != nullptr) window->samples[kFlow].push_back(us);
  std::string sub = outcome->reply.handles[0].second;
  ledger_.add_flow(tunnel.id, sub, f.rate, f.interval);
  return sub;
}

void EngineCalls::release_flow(const TunnelRef& tunnel,
                                const std::string& sub,
                                WindowSeries::Window* window) {
  const std::uint64_t id = ++request_;
  const SpanLog::Scope op(spans_, "op.flow_release", id);
  const auto t0 = Clock::now();
  Status released = [&] {
    const SpanLog::Scope s(spans_, kSpanFlowRelease, id, op.id());
    return world_.engine().release_in_tunnel(tunnel.id, sub);
  }();
  const double us = us_between(t0, Clock::now());
  if (!released.ok()) {
    report_.fail_op("flow release " + sub + ": " + released.error().to_text());
    return;
  }
  if (window != nullptr) window->samples[kRelease].push_back(us);
  ledger_.drop_flow(tunnel.id, sub);
}

void replay_destination_stages(kit::ChainWorld& world,
                               const std::vector<kit::WorldUser>& users,
                               Rng& rng, SpanLog& spans,
                               std::uint64_t first_request) {
  const std::size_t last = world.names().size() - 1;
  for (std::size_t r = 0; r < kReplays; ++r) {
    const std::uint64_t request = first_request + r;
    const kit::WorldUser& user = users[rng.next_below(users.size())];
    const FlowSpec f = draw_flow(rng, 1000, kHorizon, minutes(10), hours(6));
    const SimTime at = static_cast<SimTime>(request);
    bb::ResSpec spec = world.spec(user, f.rate, f.interval);
    auto built = world.engine().build_user_request(user.credentials(), spec, at);
    if (!built.ok()) continue;
    sig::RarMessage msg = std::move(built.value());
    const SpanLog::Scope root(spans, "replay.rar_path", request);
    for (std::size_t k = 0; k < last; ++k) {
      bb::BandwidthBroker& from = world.broker(k);
      bb::BandwidthBroker& to = world.broker(k + 1);
      sig::BrokerLayer layer;
      layer.upstream_certificate = k == 0 ? user.identity_cert.encode()
                                          : world.broker(k - 1).certificate().encode();
      layer.downstream_dn = to.dn().to_string();
      layer.signer_dn = from.dn().to_string();
      const auto& caps = k == 0 ? msg.user_layer().capability_certs
                                : msg.broker_layers().back().capability_certs;
      auto parent = crypto::Certificate::decode(caps.back());
      if (parent.ok()) {
        layer.capability_certs.push_back(
            from.sign_certificate(sig::build_delegation(
                                      parent.value(), to.dn(), to.public_key(),
                                      "", parent->validity(),
                                      from.next_certificate_serial()))
                .encode());
      }
      msg.append_broker_layer(std::move(layer),
                              [&from](BytesView tbs) { return from.sign(tbs); });
      const Bytes wire = msg.encode();
      const bool destination = k + 1 == last;
      Result<sig::RarMessage> decoded = [&] {
        const SpanLog::Scope s(spans, destination ? "sig.rar_decode" : "replay.upstream_hop",
                               request, root.id());
        return sig::RarMessage::decode(wire);
      }();
      if (!decoded.ok()) break;
      Result<sig::VerifiedRar> verified = [&] {
        const SpanLog::Scope s(spans, destination ? "sig.verify_rar" : "replay.upstream_hop",
                               request, root.id());
        return sig::verify_rar(decoded.value(), from.certificate(), to.dn(),
                               to.trust_store(), sig::TrustPolicy{}, at);
      }();
      if (!verified.ok() || !destination) continue;
      {
        sig::ContextInputs inputs;
        inputs.broker = &to;
        inputs.spec = &verified->res_spec;
        inputs.user_dn = verified->user_dn;
        inputs.at = at;
        inputs.augmentations = &verified->augmentations;
        inputs.group_server = &world.group_server();
        const std::vector<std::string> groups = {"Atlas", "physicists"};
        inputs.relevant_groups = &groups;
        const policy::EvalContext ctx = sig::build_policy_context(inputs);
        const SpanLog::Scope s(spans, "policy.decide", request, root.id());
        (void)to.policy_server().decide(ctx);
      }
      sig::RarMessage forwarded = decoded.value();
      {
        sig::BrokerLayer onward;
        onward.upstream_certificate = from.certificate().encode();
        onward.downstream_dn = from.dn().to_string();
        onward.signer_dn = to.dn().to_string();
        const SpanLog::Scope s(spans, "sig.append_layer", request, root.id());
        forwarded.append_broker_layer(std::move(onward),
                                      [&to](BytesView tbs) { return to.sign(tbs); });
      }
      const SpanLog::Scope s(spans, "sig.rar_encode", request, root.id());
      (void)forwarded.encode();
    }
  }
}

void report_engine_layers(Report& report,
                          const std::map<std::string, SpanLog::SelfTime>& st) {
  report.layer("sig.build_request_us", span_median_us(st, kSpanBuild), "us");
  report.layer("sig.reserve_us", span_median_us(st, kSpanReserve), "us");
  report.layer("sig.release_us", span_median_us(st, kSpanRelease), "us");
  report.layer("sig.rar_decode_us", span_median_us(st, "sig.rar_decode"), "us");
  report.layer("sig.verify_rar_us", span_median_us(st, "sig.verify_rar"), "us");
  report.layer("sig.append_layer_us", span_median_us(st, "sig.append_layer"), "us");
  report.layer("sig.rar_encode_us", span_median_us(st, "sig.rar_encode"), "us");
  report.layer("sig.flow_reserve_us", span_median_us(st, kSpanFlowReserve), "us");
  report.layer("sig.flow_release_us", span_median_us(st, kSpanFlowRelease), "us");
  report.layer("policy.decide_us", span_median_us(st, "policy.decide"), "us");
}

void report_inproc_layers(Report& report, const CounterSnapshot& d,
                          const CounterSnapshot& phase, double ops,
                          kit::ChainWorld& world, double world_build_s) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
  report.layer("kit.world_build_s", world_build_s, "s");
  report.layer("crypto.modexp_per_op", ratio(d.modexp, ops), "count");
  report.layer("crypto.signs_per_op", ratio(d.signs, ops), "count");
  report.layer("crypto.mont_ctx_miss_per_op", ratio(d.mont_ctx_miss, ops),
               "count");
  report.layer("crypto.verify_hit_ratio", ratio(d.verify_hit, d.verify_lookups),
               "ratio");
  report.layer("crypto.verify_lookups_per_op", ratio(d.verify_lookups, ops),
               "count");
  report.layer("crypto.chain_hit_ratio", ratio(d.chain_hit, d.chain_lookups),
               "ratio");
  report.layer("crypto.chain_lookups_per_op", ratio(d.chain_lookups, ops),
               "count");
  report.layer("sig.fabric_msgs_per_op", ratio(d.fabric_msgs, ops), "count");
  report.layer("sig.fabric_bytes_per_op", ratio(d.fabric_bytes, ops), "bytes");
  report.layer("policy.decisions_per_op", ratio(d.policy_decisions, ops),
               "count");
  report.layer("bb.admission_us_mean",
               ratio(phase.admission_us_sum, phase.admission_count), "us");
  report.layer("bb.pool_boundaries", d.pool_boundaries, "count");
  report.layer("bb.pool_commits_per_op", ratio(d.pool_commits, ops), "count");
  std::size_t spans = world.tracer().span_count();
  for (std::size_t i = 0; i < world.names().size(); ++i) {
    spans += world.domain_tracer(i).span_count();
  }
  report.layer("obs.spans_retained", static_cast<double>(spans), "count");
  report.layer("obs.audit_records_per_op", ratio(d.audit_records, ops),
               "count");
  report.note(format(
      "counters over %.0f main ops: modexp %.0f, signs %.0f, verify cache "
      "%.0f hits / %.0f lookups, chain cache %.0f hits / %.0f lookups, "
      "policy decisions %.0f, admissions %.0f",
      ops, d.modexp, d.signs, d.verify_hit, d.verify_lookups, d.chain_hit,
      d.chain_lookups, d.policy_decisions, d.admission_count));
}

void report_absent_layers(Report& report,
                          const std::vector<std::string>& names) {
  for (const std::string& name : names) report.layer(name, 0, "");
}

double span_median_us(const std::map<std::string, SpanLog::SelfTime>& st,
                      const std::string& name) {
  const auto it = st.find(name);
  return it == st.end() ? 0 : median(it->second.durations);
}

}  // namespace rarbench
