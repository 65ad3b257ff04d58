#include "ledger.hpp"

#include <algorithm>
#include <cstdio>

#include "common/rng.hpp"

namespace rarbench {

namespace {

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.0f", v);
  return buf;
}

}  // namespace

double Ledger::committed_at(SimTime t) const {
  double sum = 0;
  for (const auto& [key, e] : reservations_) {
    if (e.interval.contains(t)) sum += e.rate * static_cast<double>(e.brokers);
  }
  return sum;
}

std::size_t Ledger::reservation_count() const {
  std::size_t n = 0;
  for (const auto& [key, e] : reservations_) n += e.brokers;
  return n;
}

double Ledger::tunnel_committed_at(const std::string& tunnel,
                                   SimTime t) const {
  const auto it = flows_.find(tunnel);
  if (it == flows_.end()) return 0;
  double sum = 0;
  for (const auto& [sub, e] : it->second) {
    if (e.interval.contains(t)) sum += e.rate;
  }
  return sum;
}

double Ledger::tunnel_headroom(const std::string& tunnel,
                               double aggregate_rate,
                               TimeInterval interval) const {
  // The flows' sum is a step function that only rises at a flow's start,
  // so its peak over the interval is at the interval start or at one of
  // those starts.
  double peak = tunnel_committed_at(tunnel, interval.start);
  const auto it = flows_.find(tunnel);
  if (it != flows_.end()) {
    for (const auto& [sub, e] : it->second) {
      if (interval.contains(e.interval.start)) {
        peak = std::max(peak, tunnel_committed_at(tunnel, e.interval.start));
      }
    }
  }
  return aggregate_rate - peak;
}

bool Ledger::empty() const {
  if (!reservations_.empty()) return false;
  for (const auto& [tunnel, subs] : flows_) {
    if (!subs.empty()) return false;
  }
  return true;
}

std::vector<SimTime> Ledger::probe_times(std::uint64_t seed,
                                         std::size_t count,
                                         SimTime horizon) const {
  e2e::Rng rng(seed ^ 0x70726f6265ull);
  std::vector<SimTime> out;
  for (std::size_t i = 0; i < count; ++i) {
    out.push_back(static_cast<SimTime>(
        rng.next_below(static_cast<std::uint64_t>(horizon))));
  }
  std::size_t taken = 0;
  for (const auto& [key, e] : reservations_) {
    if (taken++ == count) break;
    out.push_back(e.interval.start);
    out.push_back(e.interval.end - 1);
  }
  for (const auto& [tunnel, subs] : flows_) {
    taken = 0;
    for (const auto& [sub, e] : subs) {
      if (taken++ == count) break;
      out.push_back(e.interval.start);
      out.push_back(e.interval.end - 1);
    }
  }
  return out;
}

Failures check_state(const Ledger& ledger, const Observed& observed,
                     const std::vector<SimTime>& probes) {
  Failures out;
  if (observed.reservations) {
    const std::size_t got = observed.reservations();
    if (got != ledger.reservation_count()) {
      out.push_back("reservations: program " + std::to_string(got) +
                    ", ledger " + std::to_string(ledger.reservation_count()));
    }
  }
  if (observed.committed_at) {
    for (SimTime t : probes) {
      const double got = observed.committed_at(t);
      const double want = ledger.committed_at(t);
      if (got != want) {
        out.push_back("committed_at(" + std::to_string(t) + "): program " +
                      num(got) + ", ledger " + num(want));
        break;
      }
    }
  }
  for (const auto& [tunnel, subs] : ledger.flows()) {
    if (observed.active_flows) {
      const std::size_t got = observed.active_flows(tunnel);
      if (got != subs.size()) {
        out.push_back(tunnel + " active_flows: program " +
                      std::to_string(got) + ", ledger " +
                      std::to_string(subs.size()));
      }
    }
    if (observed.tunnel_pool_at) {
      for (SimTime t : probes) {
        const double want = ledger.tunnel_committed_at(tunnel, t);
        bool mismatch = false;
        for (double got : observed.tunnel_pool_at(tunnel, t)) {
          if (got != want) {
            out.push_back(tunnel + " pool at " + std::to_string(t) +
                          ": program " + num(got) + ", ledger " + num(want));
            mismatch = true;
          }
        }
        if (mismatch) break;
      }
    }
  }
  return out;
}

Failures check_grant(const e2e::sig::RarReply& reply,
                     const std::vector<std::string>& expected_domains) {
  if (!reply.granted) return {"denied: " + reply.denial.to_text()};
  if (expected_domains.empty()) {
    if (reply.handles.empty()) return {"grant without handles"};
    return {};
  }
  if (reply.handles.size() != expected_domains.size()) {
    return {"grant holds " + std::to_string(reply.handles.size()) +
            " handles, expected " + std::to_string(expected_domains.size())};
  }
  for (std::size_t i = 0; i < expected_domains.size(); ++i) {
    if (reply.handles[i].first != expected_domains[i] ||
        reply.handles[i].second.empty()) {
      return {"handle " + std::to_string(i) + " is for " +
              reply.handles[i].first + ", expected " + expected_domains[i]};
    }
  }
  return {};
}

Failures check_admission_bound(const Ledger& ledger, const Observed& observed,
                               const std::string& tunnel,
                               double aggregate_rate, TimeInterval interval) {
  const double headroom =
      ledger.tunnel_headroom(tunnel, aggregate_rate, interval);
  Failures out;
  if (headroom > 0 && !observed.try_flow(tunnel, headroom, interval)) {
    out.push_back(tunnel + ": a flow of the ledger's headroom " +
                  num(headroom) + " was denied");
  }
  if (observed.try_flow(tunnel, headroom + kRateQuantum, interval)) {
    out.push_back(tunnel + ": a flow of " + num(headroom + kRateQuantum) +
                  ", above the ledger's headroom, was granted");
  }
  return out;
}

Failures check_no_rsa(double modexp, double signs) {
  Failures out;
  if (modexp != 0 || signs != 0) {
    out.push_back("RSA ran where none should: " + num(modexp) +
                  " modexps, " + num(signs) + " signatures");
  }
  return out;
}

Failures check_drained(const Ledger& ledger, const Observed& observed,
                       const std::vector<SimTime>& probes) {
  Failures out;
  if (!ledger.empty()) out.push_back("ledger still holds live entries");
  if (observed.reservations && observed.reservations() != 0) {
    out.push_back("program still holds " +
                  std::to_string(observed.reservations()) + " reservations");
  }
  if (observed.committed_at) {
    for (SimTime t : probes) {
      if (observed.committed_at(t) != 0) {
        out.push_back("program still commits " +
                      num(observed.committed_at(t)) + " at " +
                      std::to_string(t));
        break;
      }
    }
  }
  return out;
}

}  // namespace rarbench
