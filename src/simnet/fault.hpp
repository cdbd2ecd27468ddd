// Deterministic, scenario-scripted fault injection for the simulated
// data plane.
//
// A FaultScenario is a declarative script: prefix-scoped impairment rules
// with sim-time windows (extra loss, added latency/jitter, full blackhole,
// RST-on-connect, established-but-silent stall) plus host outages that take
// one address offline for a window (the pool-monitor demote/promote
// experiments schedule an NTP server outage this way). Rules additionally
// scope by direction (inbound into the prefix — the default —, outbound
// from it, or both) and by destination port, so asymmetric partial outages
// (a host that can send but not receive, a blackholed port 123) are
// expressible. Network consults the installed FaultPlane on every UDP send
// and TCP connect — after the RoutePlane, whose whole-prefix withdrawals
// take precedence (route -> outage -> rules); rules are
// evaluated in declaration order, delay rules accumulate, and the first
// matching terminal rule (loss hit, blackhole, RST, stall) decides the
// packet's fate — all draws come from one seeded stream, so the same
// scenario under the same seed perturbs a run bit-identically.
//
// The plane compiles its script once, at construction, into three
// read-only PrefixIndex tables: destination-scoped rules (kInbound and
// kBoth), source-scoped rules (kOutbound and kBoth) and outage hosts (as
// /128s). A verdict probes each table once per distinct prefix length and
// visits only the rules whose prefix covers the packet, re-sorted into
// declaration order, so its cost does not grow with the rule count; rules
// that do not cover a packet never drew, so the draws, counters and flight
// events are exactly those of a walk over every rule.
//
// Every injected fault is counted (fault_* instruments) so a chaos harness
// can prove conservation: nothing the plane swallows goes unaccounted.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "net/ipv6.hpp"
#include "obs/metrics.hpp"
#include "simnet/prefix_index.hpp"
#include "simnet/shard.hpp"
#include "simnet/time.hpp"
#include "util/rng.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::simnet {

class EventQueue;

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

class FaultPlane {
 public:
  struct UdpVerdict {
    bool drop = false;
    SimDuration extra_latency = 0;
  };

  enum class TcpAction : std::uint8_t {
    kNone,       ///< connect proceeds normally
    kBlackhole,  ///< SYN vanishes: caller times out after connect_timeout
    kRst,        ///< refused after one RTT
    kStall,      ///< establishes, but the connection is marked stalled
  };
  struct TcpVerdict {
    TcpAction action = TcpAction::kNone;
    SimDuration extra_latency = 0;
  };

  /// Instruments are enrolled into `registry` (may be null) under fault_*
  /// names; the registry must outlive the plane.
  FaultPlane(FaultScenario scenario, obs::Registry* registry);
  ~FaultPlane();
  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  /// Verdict for one datagram src -> dst:dst_port sent at `now`. Draws
  /// from the sending domain's RNG stream; call exactly once per datagram.
  /// Domain 0 draws from the legacy single stream, so unsharded runs are
  /// unchanged.
  UdpVerdict on_udp(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                    std::uint16_t dst_port, SimTime now, DomainId domain = 0);
  /// Convenience for scope-free evaluation: unknown source (::, which
  /// never matches an outbound scope) and wildcard port 0 (which never
  /// matches a port-scoped rule).
  UdpVerdict on_udp(const net::Ipv6Address& dst, SimTime now,
                    DomainId domain = 0) {
    return on_udp(net::Ipv6Address{}, dst, 0, now, domain);
  }
  /// Verdict for one TCP connect src -> dst:dst_port at `now` (one RNG
  /// draw per matching loss rule, as for UDP).
  TcpVerdict on_tcp_connect(const net::Ipv6Address& src,
                            const net::Ipv6Address& dst,
                            std::uint16_t dst_port, SimTime now,
                            DomainId domain = 0);
  /// Convenience overload mirroring the UDP one.
  TcpVerdict on_tcp_connect(const net::Ipv6Address& dst, SimTime now,
                            DomainId domain = 0) {
    return on_tcp_connect(net::Ipv6Address{}, dst, 0, now, domain);
  }
  /// Provision one independent RNG stream per event domain so concurrent
  /// shards never contend on (or reorder draws from) a shared generator.
  /// Stream d >= 1 is seeded from scenario seed + "faultplane-domain"/d,
  /// making each domain's draw sequence shard-count-invariant.
  void configure_domains(DomainId domains);
  /// True when `host` is inside a scripted outage window at `now`.
  bool host_down(const net::Ipv6Address& host, SimTime now) const;
  /// Count one data delivery swallowed by a stalled connection.
  void note_stalled_data() { stall_data_dropped_.inc(); }

  /// Report every terminal injection (drop, blackhole, RST, stall, outage
  /// hit) to `recorder` as FlightKind::kFaultInjected, detail = the
  /// injection kind; a burst trigger on the recorder then dumps context
  /// when a scenario window opens. nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Schedule one domain-0 event per rule/outage window edge that records
  /// the opening (FlightKind::kFaultWindowOpen) and closing
  /// (kFaultWindowClose) in the attached flight recorder, so a chaos dump
  /// shows *why* injections started, not just that they did. No-op without
  /// a recorder; zero-width (from == until) and never-closing
  /// (kFaultForever) edges schedule nothing. Call once, at install time;
  /// the recorder must outlive the scheduled events.
  void arm_windows(EventQueue& events);

  const FaultScenario& scenario() const { return scenario_; }
  /// Footprint of the compiled rule and outage indexes.
  std::size_t index_bytes() const {
    return dst_rules_.bytes() + src_rules_.bytes() + outage_hosts_.bytes();
  }

  std::uint64_t udp_dropped() const { return udp_dropped_.value(); }
  std::uint64_t udp_host_down() const { return udp_host_down_.value(); }
  std::uint64_t tcp_blackholed() const { return tcp_blackholed_.value(); }
  std::uint64_t tcp_rst() const { return tcp_rst_.value(); }
  std::uint64_t tcp_stalled() const { return tcp_stalled_.value(); }
  std::uint64_t stall_data_dropped() const {
    return stall_data_dropped_.value();
  }
  std::uint64_t delays_injected() const { return delays_injected_.value(); }
  /// Verdicts asked for a domain beyond the configured RNG streams (a
  /// missing configure_domains call): a shard-invariance bug. Asserts in
  /// debug builds; release builds count and fall back to stream 0.
  std::uint64_t domain_fallbacks() const {
    return domain_fallback_.value();
  }

 private:
  /// Injection kinds as flight-recorder details (indexes fault_notes_).
  enum InjectNote : std::size_t {
    kNoteUdpDrop,
    kNoteUdpHostDown,
    kNoteTcpBlackhole,
    kNoteTcpRst,
    kNoteTcpStall,
    kNoteCount,
  };
  enum class Transport : std::uint8_t { kUdp, kTcp };
  /// The one verdict walk both transports share: host outage first, then
  /// the covering rules in declaration order. A UDP drop comes back as
  /// kBlackhole. The transport is a template argument so each
  /// instantiation's rule loop tests only its own flag, as fast as a walk
  /// written per transport.
  template <Transport kTransport>
  TcpVerdict walk(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                  std::uint16_t dst_port, SimTime now, DomainId domain);
  /// Count one terminal injection and report it to the flight recorder.
  void inject(obs::Counter& counter, InjectNote which);

  util::Rng& domain_rng(DomainId domain) {
    if (domain < rngs_.size()) return rngs_[domain];
    // A domain without its own stream would alias stream 0, silently
    // breaking shard-count invariance: loud in debug, counted in release.
    assert(!"fault verdict for a domain with no configured RNG stream");
    domain_fallback_.inc();
    return rngs_[0];
  }

  FaultScenario scenario_;
  /// Ids index scenario_.rules / scenario_.outages.
  PrefixIndex dst_rules_;     // kInbound + kBoth rules, matched on dst
  PrefixIndex src_rules_;     // kOutbound + kBoth rules, matched on src
  PrefixIndex outage_hosts_;  // one /128 per outage
  std::vector<util::Rng> rngs_;  // [0] = legacy "faultplane" stream
  obs::Registry* registry_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint32_t fault_notes_[kNoteCount] = {};
  bool windows_armed_ = false;

  obs::Counter udp_dropped_;      // loss + blackhole rules on datagrams
  obs::Counter udp_host_down_;    // datagrams to a host in outage
  obs::Counter tcp_blackholed_;   // blackhole rules + outages on connects
  obs::Counter tcp_rst_;          // RST-on-connect injections
  obs::Counter tcp_stalled_;      // connections established then stalled
  obs::Counter stall_data_dropped_;
  obs::Counter delays_injected_;  // packets/connects given extra latency
  obs::Counter domain_fallback_;  // see domain_fallbacks()
};

}  // namespace tts::simnet
