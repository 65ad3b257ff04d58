// The checks' self-test: run a small in-process world, keep an honest
// ledger of it, and show that every check passes on that ledger and fails
// on a tampered copy.
#include <cstdio>

#include "inproc.hpp"
#include "workloads.hpp"

namespace rarbench {

using namespace e2e;

int self_test() {
  int bad = 0;
  auto expect = [&bad](bool should_fail, const Failures& failures,
                       const std::string& what) {
    const bool failed = !failures.empty();
    const bool ok = failed == should_fail;
    if (!ok) ++bad;
    std::printf("[%s] %s %s%s\n", ok ? "PASS" : "FAIL", what.c_str(),
                failed ? "fails: " : "passes",
                failed ? failures.front().c_str() : "");
  };

  kit::ChainWorldConfig wc;
  wc.domains = 3;
  wc.domain_capacity = 100e9;
  wc.sla_rate = 100e9;
  double build_s = 0;
  auto world = build_world(wc, &build_s);
  Ledger ledger;
  std::vector<TunnelRef> tunnels = {
      establish_tunnel(*world, "tunnel-op", 1e6, kHorizon, ledger)};
  const TunnelRef& tunnel = tunnels.front();
  const Observed observed = observe_world(*world, tunnels, 0);

  Rng rng(7);
  std::vector<std::string> subs;
  for (int i = 0; i < 8; ++i) {
    const FlowSpec f = draw_flow(rng, 100, kHorizon, hours(1), hours(8));
    auto out = world->engine().reserve_in_tunnel(tunnel.id, tunnel.user_dn,
                                                 f.rate, f.interval, 0);
    if (!out.ok() || !out->reply.granted) return 1;
    subs.push_back(out->reply.handles[0].second);
    ledger.add_flow(tunnel.id, subs.back(), f.rate, f.interval);
  }
  const kit::WorldUser user = world->make_user("alice", 0);
  std::vector<sig::RarReply> rars;
  for (int i = 0; i < 2; ++i) {
    const FlowSpec f = draw_flow(rng, 100, kHorizon, hours(1), hours(8));
    auto msg = world->engine().build_user_request(
        user.credentials(), world->spec(user, f.rate, f.interval), i);
    auto out = world->engine().reserve(msg.value(), i);
    if (!out.ok() || !out->reply.granted) return 1;
    rars.push_back(out->reply);
    ledger.add_reservation("rar-" + std::to_string(i), {f.rate, f.interval, 3});
  }
  const std::vector<SimTime> probes = ledger.probe_times(7, 16, kHorizon.end);
  const Ledger::Entry first_rar = ledger.reservations().at("rar-0");

  // check_state
  expect(false, check_state(ledger, observed, probes), "check_state, honest ledger,");
  {
    Ledger t = ledger;
    Ledger::Entry e = first_rar;
    e.rate += kRateQuantum;
    t.add_reservation("rar-0", e);
    expect(true, check_state(t, observed, probes), "check_state, a RAR's rate altered,");
  }
  {
    Ledger t = ledger;
    t.drop_reservation("rar-1");
    expect(true, check_state(t, observed, probes), "check_state, a RAR left out,");
  }
  {
    Ledger t = ledger;
    t.drop_flow(tunnel.id, subs[3]);
    expect(true, check_state(t, observed, probes), "check_state, a flow left out,");
  }
  {
    Ledger t = ledger;
    const auto& e = ledger.flows().at(tunnel.id).at(subs[2]);
    t.add_flow(tunnel.id, subs[2], e.rate + kRateQuantum, e.interval);
    Observed pools_only = observed;
    pools_only.active_flows = nullptr;
    expect(true, check_state(t, pools_only, probes),
           "check_state (tunnel pools alone), a flow's rate altered,");
  }

  // check_grant
  expect(false, check_grant(rars[0], world->names()), "check_grant, the reply as given,");
  {
    sig::RarReply t = rars[0];
    t.granted = false;
    expect(true, check_grant(t, world->names()), "check_grant, marked denied,");
  }
  {
    sig::RarReply t = rars[0];
    t.handles.pop_back();
    expect(true, check_grant(t, world->names()), "check_grant, a handle missing,");
  }
  {
    sig::RarReply t = rars[0];
    std::swap(t.handles[0], t.handles[1]);
    expect(true, check_grant(t, world->names()), "check_grant, handles out of path order,");
  }

  // check_no_rsa, on the program's counters around one flow, then around
  // one RAR (the tampered case: RSA on the path that must have none).
  {
    const auto reader = local_reader();
    CounterSnapshot before = CounterSnapshot::read(reader, world->names());
    const FlowSpec f = draw_flow(rng, 100, kHorizon, hours(1), hours(8));
    auto flow = world->engine().reserve_in_tunnel(tunnel.id, tunnel.user_dn,
                                                  f.rate, f.interval, 0);
    if (!flow.ok() || !flow->reply.granted) return 1;
    (void)world->engine().release_in_tunnel(tunnel.id,
                                            flow->reply.handles[0].second);
    CounterSnapshot d = CounterSnapshot::read(reader, world->names()).minus(before);
    expect(false, check_no_rsa(d.modexp, d.signs),
           "check_no_rsa, a flow reserved and released,");
    before = CounterSnapshot::read(reader, world->names());
    auto msg = world->engine().build_user_request(
        user.credentials(), world->spec(user, f.rate, f.interval), 5);
    auto rar = world->engine().reserve(msg.value(), 5);
    if (!rar.ok() || !rar->reply.granted) return 1;
    (void)world->engine().release_end_to_end(rar->reply);
    d = CounterSnapshot::read(reader, world->names()).minus(before);
    expect(true, check_no_rsa(d.modexp, d.signs),
           "check_no_rsa, a RAR counted in,");
  }

  // check_admission_bound
  const TimeInterval window{hours(2), hours(6)};
  expect(false, check_admission_bound(ledger, observed, tunnel.id, tunnel.aggregate, window),
         "check_admission_bound, honest ledger,");
  {
    Ledger t = ledger;
    t.add_flow(tunnel.id, "phantom", 50 * kRateQuantum, window);
    expect(true, check_admission_bound(t, observed, tunnel.id, tunnel.aggregate, window),
           "check_admission_bound, a phantom flow added,");
  }
  {
    Ledger t = ledger;
    for (const std::string& sub : subs) t.drop_flow(tunnel.id, sub);
    expect(true, check_admission_bound(t, observed, tunnel.id, tunnel.aggregate, window),
           "check_admission_bound, the live flows left out,");
  }

  // check_drained
  for (const std::string& sub : subs) {
    (void)world->engine().release_in_tunnel(tunnel.id, sub);
    ledger.drop_flow(tunnel.id, sub);
  }
  for (std::size_t i = 0; i < rars.size(); ++i) {
    (void)world->engine().release_end_to_end(rars[i]);
    ledger.drop_reservation("rar-" + std::to_string(i));
  }
  (void)world->engine().release_end_to_end(tunnel.reply);
  ledger.drop_reservation(tunnel.id);
  expect(false, check_drained(ledger, observed, probes), "check_drained, honest ledger,");
  {
    Ledger t = ledger;
    t.add_reservation("rar-0", first_rar);
    expect(true, check_drained(t, observed, probes), "check_drained, a RAR still listed,");
  }
  {
    // The program side of the drain: a reservation left behind.
    auto msg = world->engine().build_user_request(
        user.credentials(), world->spec(user, 5 * kRateQuantum, window), 9);
    auto out = world->engine().reserve(msg.value(), 9);
    expect(true, check_drained(ledger, observed, probes),
           "check_drained, the program still holding a RAR,");
    if (out.ok() && out->reply.granted) {
      (void)world->engine().release_end_to_end(out->reply);
    }
  }

  std::printf("self-test: %s\n", bad == 0 ? "every check fails on its tampered ledger"
                                          : "SOME CHECKS DID NOT BEHAVE");
  return bad == 0 ? 0 : 1;
}

}  // namespace rarbench
