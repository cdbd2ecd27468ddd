// The one impairment plane: everything scripted that can happen to a packet
// besides its plain latency.
//
// A plane has two parts, each installed at most once: a route part
// (RouteScenario, simnet/route.hpp) and a fault part (FaultScenario,
// simnet/fault.hpp). Network asks the plane for one verdict per UDP send
// and one per TCP connect, decided in the order route -> outage -> rules:
//
//   - route: a destination whose longest-matching scripted prefix is
//     inside a down-window is unrouted. The packet vanishes, and nothing
//     is drawn for it.
//   - outage: a destination inside a HostOutage window is down.
//   - rules: the FaultRules covering the packet, in declaration order.
//     Loss and jitter draws come from the sending domain's own stream, so
//     the same scenario under the same seed perturbs a run bit-identically
//     at every shard count.
//
// Both parts compile once, at install, into read-only PrefixIndex tables:
// scripted route prefixes (longest match), destination-scoped rules
// (kInbound and kBoth), source-scoped rules (kOutbound and kBoth) and
// outage hosts (as /128s). A verdict probes each table once per distinct
// prefix length and visits only the rules whose prefix covers the packet,
// so its cost does not grow with the rule count. Rules that do not cover a
// packet never draw, so the draws, counters and flight events are exactly
// those of a walk over every rule. The route check takes no locks and
// draws nothing, so any shard executor may make it.
//
// The plane keeps one time-sorted list of window edges: route transitions
// plus rule and outage window opens and closes. arm() schedules them on
// domain 0. A route transition commits at the following window barrier:
// it bumps route_withdrawals / route_announcements, records a flight event
// and invokes subscribers (scan engines re-staging quarantined targets,
// the pool monitor re-scoring servers). Barrier sequences are a pure
// function of simulation content, so sharded runs stay bit-identical at
// shard counts 1/2/4. Rule and outage edges only record
// kFaultWindowOpen / kFaultWindowClose, so a chaos dump shows why
// injections started, not just that they did.
//
// Every injection is counted (fault_* and route_blackholed instruments), so
// a chaos harness can prove conservation: nothing the plane swallows goes
// unaccounted.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <utility>
#include <vector>

#include "net/ipv6.hpp"
#include "obs/metrics.hpp"
#include "simnet/fault.hpp"
#include "simnet/prefix_index.hpp"
#include "simnet/route.hpp"
#include "simnet/shard.hpp"
#include "simnet/time.hpp"
#include "util/rng.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::simnet {

class EventQueue;

class ImpairmentPlane {
 public:
  enum class TcpAction : std::uint8_t {
    kNone,       ///< connect proceeds normally
    kBlackhole,  ///< SYN vanishes: caller times out after connect_timeout
    kRst,        ///< refused after one RTT
    kStall,      ///< establishes, but the connection is marked stalled
  };
  struct TcpVerdict {
    TcpAction action = TcpAction::kNone;
    SimDuration extra_latency = 0;
    /// The route part blackholed the connect; nothing was drawn for it.
    bool unrouted = false;
  };
  struct UdpVerdict {
    bool drop = false;
    SimDuration extra_latency = 0;
    /// The route part dropped the datagram; nothing was drawn for it.
    bool unrouted = false;
  };

  /// Transition observer, invoked from the barrier commit of each
  /// effective route transition. `effective` is the scripted flip instant
  /// (the commit itself runs at the following barrier), so staging
  /// decisions keyed on it are shard-count-invariant.
  using TransitionFn = std::function<void(
      const net::Ipv6Prefix& prefix, RouteOp op, SimTime effective)>;

  /// A plane with neither part: every packet passes untouched.
  ImpairmentPlane() = default;
  /// Single-part planes, the part installed at construction.
  ImpairmentPlane(FaultScenario faults, obs::Registry* registry) {
    install(std::move(faults), registry);
  }
  ImpairmentPlane(RouteScenario routes, obs::Registry* registry) {
    install(std::move(routes), registry);
  }
  ~ImpairmentPlane();
  ImpairmentPlane(const ImpairmentPlane&) = delete;
  ImpairmentPlane& operator=(const ImpairmentPlane&) = delete;

  /// Compile one part and enroll its instruments (fault_* or route_*) into
  /// `registry`, which may be null and must outlive the plane. Redundant
  /// route events (a withdraw of a prefix already down, an announce of a
  /// live one) are dropped here. Each part installs once: a second install
  /// throws std::logic_error, because the first one's armed edges would
  /// still fire.
  void install(FaultScenario faults, obs::Registry* registry);
  void install(RouteScenario routes, obs::Registry* registry);
  bool has_faults() const { return has_faults_; }
  bool has_routes() const { return has_routes_; }

  /// The verdict for one datagram src -> dst:dst_port sent at `now` from
  /// `domain`. Call exactly once per datagram. Domain 0 draws from the
  /// legacy single stream, so unsharded runs are unchanged.
  UdpVerdict on_udp(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                    std::uint16_t dst_port, SimTime now, DomainId domain = 0);
  /// Scope-free evaluation: unknown source (::, which never matches an
  /// outbound scope) and wildcard port 0 (which never matches a
  /// port-scoped rule).
  UdpVerdict on_udp(const net::Ipv6Address& dst, SimTime now,
                    DomainId domain = 0) {
    return on_udp(net::Ipv6Address{}, dst, 0, now, domain);
  }
  /// The verdict for one TCP connect src -> dst:dst_port at `now`.
  TcpVerdict on_tcp_connect(const net::Ipv6Address& src,
                            const net::Ipv6Address& dst,
                            std::uint16_t dst_port, SimTime now,
                            DomainId domain = 0);
  TcpVerdict on_tcp_connect(const net::Ipv6Address& dst, SimTime now,
                            DomainId domain = 0) {
    return on_tcp_connect(net::Ipv6Address{}, dst, 0, now, domain);
  }

  /// Pure reachability query: true when `dst`'s longest-matching scripted
  /// prefix is inside a down-window at `now`. Unscripted space is always
  /// routed. Almost every query resolves "routed" on the index's coverage
  /// bit test, inline.
  bool withdrawn(const net::Ipv6Address& dst, SimTime now) const {
    if (!route_index_.may_cover(dst)) return false;
    return withdrawn_scripted(dst, now);
  }
  /// withdrawn(), plus one route_blackholed count when the packet dies.
  bool blackholes(const net::Ipv6Address& dst, SimTime now) {
    if (!withdrawn(dst, now)) return false;
    blackholed_.inc();
    return true;
  }
  /// True when `host` is inside a scripted outage window at `now`.
  bool host_down(const net::Ipv6Address& host, SimTime now) const;
  /// Count one data delivery swallowed by a stalled connection.
  void note_stalled_data() { stall_data_dropped_.inc(); }

  /// Provision one RNG stream per event domain, so concurrent shards never
  /// contend on (or reorder draws from) a shared generator. Stream d >= 1
  /// is seeded from the fault seed + "faultplane-domain"/d, making each
  /// domain's draws shard-count-invariant. May precede the fault install.
  void configure_domains(DomainId domains);

  /// Register a route transition observer (before events run).
  void subscribe(TransitionFn fn) { subscribers_.push_back(std::move(fn)); }

  /// Report every terminal injection (FlightKind::kFaultInjected, detail =
  /// its kind), route transition (kRouteWithdrawn / kRouteAnnounced, a/b =
  /// the prefix halves) and armed window edge to `recorder`. nullptr
  /// detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Schedule every installed part's edges not scheduled yet: route
  /// transitions (category "route") always, rule and outage window edges
  /// (category "fault_window") once a recorder is attached, since they
  /// only record. `events`, and the recorder, must outlive the plane.
  void arm(EventQueue& events);

  /// Effective (state-changing) route transitions.
  std::size_t transition_count() const { return transitions_; }
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
  std::uint64_t withdrawals() const { return withdrawals_.value(); }
  std::uint64_t announcements() const { return announcements_.value(); }
  std::uint64_t blackholed() const { return blackholed_.value(); }

 private:
  /// Flight-mark details, interned once in the recorder's Tracer (indexes
  /// notes_).
  enum Note : std::size_t {
    kNoteUdpDrop, kNoteUdpHostDown, kNoteTcpBlackhole, kNoteTcpRst,
    kNoteTcpStall, kNoteWithdraw, kNoteAnnounce, kNoteRuleWindow,
    kNoteOutageWindow, kNoteCount
  };
  enum class Transport : std::uint8_t { kUdp, kTcp };
  /// Where a window edge comes from; `index` indexes that source's list.
  enum class EdgeSource : std::uint8_t { kRoute, kRule, kOutage };
  /// One window edge. `opens` is a withdrawal for a route and a window
  /// open for a rule or an outage.
  struct Edge {
    SimTime at = 0;
    EdgeSource source = EdgeSource::kRoute;
    bool opens = true;
    std::uint32_t index = 0;
  };
  /// Down while from <= now < until.
  struct DownWindow {
    SimTime from = 0;
    SimTime until = kRouteForever;
  };
  struct Route {
    net::Ipv6Prefix prefix;
    std::vector<DownWindow> down;  // sorted, non-overlapping
  };

  /// The one verdict both transports share: route, then outage, then the
  /// covering rules in declaration order. A UDP drop comes back as
  /// kBlackhole. The transport is a template argument so each
  /// instantiation's rule loop tests only its own flag.
  template <Transport kTransport>
  TcpVerdict verdict(const net::Ipv6Address& src, const net::Ipv6Address& dst,
                     std::uint16_t dst_port, SimTime now, DomainId domain);
  /// Count one terminal injection and report it to the flight recorder.
  void inject(obs::Counter& counter, Note which);
  /// Slow half of withdrawn(): longest match + down-window probe.
  bool withdrawn_scripted(const net::Ipv6Address& dst, SimTime now) const;
  /// Merge one part's edges into edges_, keeping it sorted by time with
  /// ties in generation order.
  void add_edges(std::vector<Edge> edges);
  /// Enroll one part's counters into `registry` (when given).
  void enroll(obs::Registry* registry,
              std::initializer_list<std::pair<const obs::Counter*,
                                              const char*>> counters);
  /// Commit one route transition: count it, record the flight event,
  /// invoke subscribers. Mutates cross-domain-read reaction state
  /// downstream, so it must run between windows.
  // ttslint: barrier_only
  void commit(const Edge& edge);

  util::Rng& domain_rng(DomainId domain) {
    if (domain < rngs_.size()) return rngs_[domain];
    // A domain without its own stream would alias stream 0, silently
    // breaking shard-count invariance: loud in debug, counted in release.
    assert(!"fault verdict for a domain with no configured RNG stream");
    domain_fallback_.inc();
    return rngs_[0];
  }

  bool has_faults_ = false;
  bool has_routes_ = false;
  FaultScenario faults_;
  /// Ids index faults_.rules / faults_.outages.
  PrefixIndex dst_rules_;     // kInbound + kBoth rules, matched on dst
  PrefixIndex src_rules_;     // kOutbound + kBoth rules, matched on src
  PrefixIndex outage_hosts_;  // one /128 per outage
  std::vector<util::Rng> rngs_;  // [0] = legacy "faultplane" stream
  DomainId domains_ = 1;
  std::vector<Route> routes_;  // first-appearance order (deterministic)
  /// Scripted prefixes; each entry's id is its route's index into routes_.
  PrefixIndex route_index_;
  std::vector<Edge> edges_;
  std::size_t transitions_ = 0;  // route edges in edges_
  bool routes_armed_ = false;
  bool windows_armed_ = false;
  std::vector<TransitionFn> subscribers_;
  std::vector<obs::Registry*> registries_;
  obs::FlightRecorder* flight_ = nullptr;
  std::uint32_t notes_[kNoteCount] = {};

  obs::Counter udp_dropped_;      // loss + blackhole rules on datagrams
  obs::Counter udp_host_down_;    // datagrams to a host in outage
  obs::Counter tcp_blackholed_;   // blackhole rules + outages on connects
  obs::Counter tcp_rst_;          // RST-on-connect injections
  obs::Counter tcp_stalled_;      // connections established then stalled
  obs::Counter stall_data_dropped_;
  obs::Counter delays_injected_;  // packets/connects given extra latency
  obs::Counter domain_fallback_;  // see domain_fallbacks()
  obs::Counter withdrawals_;      // route transitions to down, at commit
  obs::Counter announcements_;    // route transitions back up, at commit
  obs::Counter blackholed_;       // sends/connects the route part killed
};

}  // namespace tts::simnet
