#include "ntp/monitor.hpp"

#include <algorithm>

#include "ntp/pool.hpp"

namespace tts::ntp {

namespace {

/// The pool's score cap, and the score change per outcome (the real pool:
/// roughly -5 per miss, +1 per valid response).
constexpr int kMaxScore = 20;
constexpr int kOnMiss = -5;
constexpr int kOnSuccess = 1;

}  // namespace

PoolMonitor::PoolMonitor(simnet::Network& network, NtpPool& pool,
                         PoolMonitorConfig config)
    : network_(network),
      pool_(pool),
      config_(std::move(config)),
      client_(network),
      category_(network.events().register_category("pool_monitor")) {
  network_.subscribe_routes([this](const net::Ipv6Prefix& prefix,
                                   simnet::RouteOp op, simnet::SimTime) {
    on_route_transition(prefix, op);
  });
}

void PoolMonitor::on_route_transition(const net::Ipv6Prefix& prefix,
                                      simnet::RouteOp op) {
  if (op == simnet::RouteOp::kWithdraw) {
    for (const auto& entry : pool_.servers()) {
      if (!prefix.contains(entry.address)) continue;
      if (saved_scores_.contains(entry.address)) continue;  // nested withdraw
      saved_scores_[entry.address] = entry.monitor_score;
      if (entry.monitor_score >= NtpPool::kRotationThreshold)
        ++route_demotions_;
      // Running inside the route plane's barrier commit: no shard executes,
      // so the rotation-score write is already at its quiescent point.
      pool_.set_monitor_score(  // ttslint: allow(barrier-only) reason=runs inside the route plane's barrier commit
          entry.address,
          std::min(entry.monitor_score, NtpPool::kRotationThreshold - 1));
    }
    return;
  }
  for (const auto& entry : pool_.servers()) {
    if (!prefix.contains(entry.address)) continue;
    auto saved = saved_scores_.find(entry.address);
    if (saved == saved_scores_.end()) continue;
    if (saved->second >= NtpPool::kRotationThreshold &&
        entry.monitor_score < NtpPool::kRotationThreshold)
      ++route_promotions_;
    pool_.set_monitor_score(  // ttslint: allow(barrier-only) reason=runs inside the route plane's barrier commit
        entry.address, saved->second);
    saved_scores_.erase(saved);
  }
}

void PoolMonitor::start() {
  if (started_) return;
  started_ = true;
  network_.events().schedule_in(config_.check_interval, category_, [this] {
    run_round();
  });
}

void PoolMonitor::run_round() {
  // Snapshot addresses: servers may be added while queries are in flight.
  std::vector<net::Ipv6Address> servers;
  for (const auto& entry : pool_.servers()) servers.push_back(entry.address);

  for (const auto& addr : servers) {
    ++checks_;
    std::uint16_t port = next_port_++;
    if (next_port_ < 20000) next_port_ = 20000;
    client_.query(
        config_.vantage, port, addr,
        [this, addr](std::optional<NtpQueryResult> result) {
          bool hit = result.has_value();
          if (!hit) ++misses_;
          // Scores are read by every device's resolve(): commit the
          // read-modify-write at the next window barrier, when no shard
          // is executing (immediate on an unsharded queue).
          network_.events().run_at_barrier([this, addr, hit] {
            // Find the current score (servers() order may have changed).
            int score = 0;
            for (const auto& entry : pool_.servers())
              if (entry.address == addr) score = entry.monitor_score;
            score = hit
                ? std::min(kMaxScore, score + kOnSuccess)
                : std::max(config_.min_score, score + kOnMiss);
            pool_.set_monitor_score(addr, score);
          });
        },
        simnet::sec(3));
  }

  if (network_.now() < config_.duration) {
    network_.events().schedule_in(config_.check_interval, category_,
                                  [this] { run_round(); });
  }
}

}  // namespace tts::ntp
