// The fault part of a scripted impairment scenario.
//
// A FaultScenario is a declarative script: prefix-scoped impairment rules
// with sim-time windows (extra loss, added latency/jitter, full blackhole,
// RST-on-connect, established-but-silent stall) plus host outages that take
// one address offline for a window (the pool-monitor demote/promote
// experiments schedule an NTP server outage this way). Rules additionally
// scope by direction (inbound into the prefix — the default —, outbound
// from it, or both) and by destination port, so asymmetric partial outages
// (a host that can send but not receive, a blackholed port 123) are
// expressible. Rules are evaluated in declaration order, delay rules
// accumulate, and the first matching terminal rule (loss hit, blackhole,
// RST, stall) decides the packet's fate. simnet::ImpairmentPlane
// (simnet/impairment.hpp) compiles the script and gives each send its
// verdict, after the route part of the same plane (route -> outage ->
// rules).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/ipv6.hpp"
#include "simnet/time.hpp"

namespace tts::simnet {

enum class FaultKind : std::uint8_t {
  kLoss,       ///< extra probabilistic loss (UDP drop / TCP SYN blackhole)
  kDelay,      ///< added one-way latency plus uniform jitter
  kBlackhole,  ///< every matching packet / connect vanishes
  kRst,        ///< TCP connects are refused after one RTT; UDP unaffected
  kStall,      ///< TCP establishes, then neither side's data ever arrives
};

/// Maximum representable sim time: an "until" of kFaultForever never expires.
inline constexpr SimTime kFaultForever =
    std::numeric_limits<SimTime>::max();

/// Which traffic direction a rule's prefix scopes.
enum class FaultDirection : std::uint8_t {
  kInbound,   ///< traffic *destined into* the prefix (the legacy semantic)
  kOutbound,  ///< traffic *originated from inside* the prefix
  kBoth,      ///< either direction matches
};

/// One impairment, scoped by `prefix` + `direction` (default: traffic
/// destined into `prefix`) and active while `from <= now < until`
/// (evaluated at send/connect time). A `from == until` window is
/// zero-width and never fires.
struct FaultRule {
  net::Ipv6Prefix prefix;
  FaultKind kind = FaultKind::kLoss;
  SimTime from = 0;
  SimTime until = kFaultForever;
  /// Per-packet / per-connect hit chance for kLoss (1.0 = drop everything).
  double probability = 1.0;
  /// kDelay: deterministic extra latency plus uniform jitter in [0, jitter).
  SimDuration added_latency = 0;
  SimDuration added_jitter = 0;
  /// Transport scoping: a rule may impair only UDP or only TCP.
  bool udp = true;
  bool tcp = true;
  /// Direction scoping: kOutbound models a host that can receive but whose
  /// own packets die in transit; kBoth impairs the prefix symmetrically.
  FaultDirection direction = FaultDirection::kInbound;
  /// Destination-port scoping: 0 matches any port; a nonzero value narrows
  /// the rule to traffic addressed to that port (e.g. 123 blackholes NTP
  /// while the rest of the prefix stays reachable).
  std::uint16_t dst_port = 0;

  bool active(SimTime now) const { return now >= from && now < until; }
  /// Does a packet src -> dst:port fall under this rule's scope? (Time and
  /// transport are checked separately.) An unknown source (::) never
  /// matches an outbound scope.
  bool matches(const net::Ipv6Address& src, const net::Ipv6Address& dst,
               std::uint16_t port) const {
    if (dst_port != 0 && port != dst_port) return false;
    switch (direction) {
      case FaultDirection::kInbound:
        return prefix.contains(dst);
      case FaultDirection::kOutbound:
        return !src.is_unspecified() && prefix.contains(src);
      case FaultDirection::kBoth:
        return prefix.contains(dst) ||
               (!src.is_unspecified() && prefix.contains(src));
    }
    return false;
  }
};

/// Take one host fully offline for a window: its inbound UDP blackholes and
/// TCP connects to it time out, exactly as if it had detached.
struct HostOutage {
  net::Ipv6Address host;
  SimTime from = 0;
  SimTime until = kFaultForever;

  bool active(SimTime now) const { return now >= from && now < until; }
};

struct FaultScenario {
  std::vector<FaultRule> rules;
  std::vector<HostOutage> outages;
  std::uint64_t seed = 0xfa017;

  bool empty() const { return rules.empty() && outages.empty(); }
};

/// The impairment plane, named for callers that use its fault part.
class ImpairmentPlane;
using FaultPlane = ImpairmentPlane;

}  // namespace tts::simnet

// The plane itself, so this header keeps giving its includers the whole
// FaultPlane API.
#include "simnet/impairment.hpp"
