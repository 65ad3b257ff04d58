// The benchmark's own record of what it reserved, and the correctness
// checks that compare the program's state against it. The expected values
// are computed here, apart from the program: from the rates and intervals
// the benchmark asked for and the replies it was given.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "sig/message.hpp"

namespace rarbench {

using e2e::SimTime;
using e2e::TimeInterval;

/// Rates are whole multiples of this, so every sum of them is exact in a
/// double and the checks compare with ==.
inline constexpr double kRateQuantum = 1000;

class Ledger {
 public:
  struct Entry {
    double rate = 0;
    TimeInterval interval;
    /// Brokers that hold a commitment for it (the path length).
    std::size_t brokers = 0;
  };

  /// An end-to-end reservation (a RAR or a tunnel aggregate), committed at
  /// `brokers` domains.
  void add_reservation(const std::string& key, Entry entry) {
    reservations_[key] = entry;
  }
  void drop_reservation(const std::string& key) { reservations_.erase(key); }

  /// A per-flow sub-reservation inside tunnel `tunnel`.
  void add_flow(const std::string& tunnel, const std::string& sub_id,
                double rate, TimeInterval interval) {
    flows_[tunnel][sub_id] = Entry{rate, interval, 0};
  }
  void drop_flow(const std::string& tunnel, const std::string& sub_id) {
    flows_[tunnel].erase(sub_id);
  }

  /// Bandwidth committed across every broker at `t`.
  double committed_at(SimTime t) const;
  /// Broker-held reservations (one per domain on each path).
  std::size_t reservation_count() const;
  /// Sum of the tunnel's live flow rates at `t`.
  double tunnel_committed_at(const std::string& tunnel, SimTime t) const;
  /// Aggregate rate minus the peak of the tunnel's flows over `interval`.
  double tunnel_headroom(const std::string& tunnel, double aggregate_rate,
                         TimeInterval interval) const;
  bool empty() const;

  /// Probe times: `count` seeded times in [0, horizon) plus the first and
  /// last instant of up to `count` live entries of each map (where the
  /// committed step functions change).
  std::vector<SimTime> probe_times(std::uint64_t seed, std::size_t count,
                                   SimTime horizon) const;

  const std::map<std::string, Entry>& reservations() const {
    return reservations_;
  }
  const std::map<std::string, std::map<std::string, Entry>>& flows() const {
    return flows_;
  }

 private:
  std::map<std::string, Entry> reservations_;
  std::map<std::string, std::map<std::string, Entry>> flows_;
};

/// What the checks read from the program. Functions left empty are not
/// observable on that deployment and their checks are skipped.
struct Observed {
  /// Bandwidth committed across every broker at t.
  std::function<double(SimTime)> committed_at;
  /// Broker-held reservations.
  std::function<std::size_t()> reservations;
  /// tunnel_info(tunnel).active_flows.
  std::function<std::size_t(const std::string&)> active_flows;
  /// Committed rate of the tunnel's pool at t, at each end domain.
  std::function<std::vector<double>(const std::string&, SimTime)>
      tunnel_pool_at;
  /// Ask for one flow in `tunnel`; true if granted (a granted probe is
  /// released again before returning).
  std::function<bool(const std::string&, double, TimeInterval)> try_flow;
};

/// Each check returns its failures; empty means it passed.
using Failures = std::vector<std::string>;

/// committed_at at every probe, the reservation count, and per tunnel the
/// active flow count and the pools' committed rate at every probe.
Failures check_state(const Ledger& ledger, const Observed& observed,
                     const std::vector<SimTime>& probes);

/// The reply is a grant holding one handle per expected domain, in path
/// order (`expected_domains` empty: any non-empty handle list).
Failures check_grant(const e2e::sig::RarReply& reply,
                     const std::vector<std::string>& expected_domains);

/// The admission bound of `tunnel`: a flow of exactly the ledger's headroom
/// over `interval` is granted, one a quantum larger is denied.
Failures check_admission_bound(const Ledger& ledger, const Observed& observed,
                               const std::string& tunnel,
                               double aggregate_rate, TimeInterval interval);

/// A phase that must run without public-key operations (tunnel per-flow
/// reservations) counted no modular exponentiation and no signature.
Failures check_no_rsa(double modexp, double signs);

/// After the drain: the ledger is empty, and the program holds no
/// reservation and no committed bandwidth at any probe.
Failures check_drained(const Ledger& ledger, const Observed& observed,
                       const std::vector<SimTime>& probes);

}  // namespace rarbench
