// NTP Pool monitoring model.
//
// The real pool only hands out servers whose monitoring score is above a
// threshold; unstable servers drop out of rotation (Appendix A.1.1 is
// built around this: "only stable servers that reliably answer NTP
// requests are a valuable addition"). The monitor periodically queries
// every registered server from a vantage address: a miss costs points, a
// valid response earns some back, capped at the pool's maximum of 20.
//
// The monitor also listens to the network's routing signal plane: a
// withdrawn route means a server is *unreachable*, not merely flaky, so it
// is demoted out of rotation immediately (no need to burn check rounds
// discovering the obvious) and its pre-withdrawal score is restored the
// moment the route re-converges.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "ntp/client.hpp"
#include "ntp/pool.hpp"
#include "simnet/network.hpp"

namespace tts::ntp {

struct PoolMonitorConfig {
  net::Ipv6Address vantage;              // monitoring station address
  simnet::SimDuration check_interval = simnet::minutes(15);
  simnet::SimDuration duration = simnet::days(28);
  /// Decay floor. The real pool bottoms out around -100; a higher floor
  /// bounds how long a recovered server needs to climb back into rotation
  /// (useful for fault-injection runs on short horizons).
  int min_score = -100;
};

class PoolMonitor {
 public:
  PoolMonitor(simnet::Network& network, NtpPool& pool,
              PoolMonitorConfig config);

  void start();

  std::uint64_t checks_run() const { return checks_; }
  std::uint64_t misses() const { return misses_; }
  /// Servers fast-demoted out of rotation by a route withdrawal /
  /// re-promoted into rotation by the re-announcement.
  std::uint64_t route_demotions() const { return route_demotions_; }
  std::uint64_t route_promotions() const { return route_promotions_; }

 private:
  void run_round();
  /// Route-plane reaction, invoked from the plane's barrier commit (so the
  /// direct set_monitor_score calls below are already quiescent).
  void on_route_transition(const net::Ipv6Prefix& prefix, simnet::RouteOp op);

  simnet::Network& network_;
  NtpPool& pool_;
  PoolMonitorConfig config_;
  NtpClient client_;
  simnet::EventQueue::CategoryId category_;
  std::uint16_t next_port_ = 20000;
  std::uint64_t checks_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t route_demotions_ = 0;
  std::uint64_t route_promotions_ = 0;
  /// Pre-withdrawal scores of servers inside a currently-withdrawn route,
  /// restored on re-announcement. Keyed lookups only — never iterated.
  std::unordered_map<net::Ipv6Address, int, net::Ipv6AddressHash>
      saved_scores_;
  bool started_ = false;
};

}  // namespace tts::ntp
