#include "simnet/impairment.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "obs/flight.hpp"
#include "simnet/event_queue.hpp"

namespace tts::simnet {
namespace {

/// The rule ids one verdict visits. A packet is rarely covered by more
/// than a few rules, so they collect inline and spill to the heap only
/// past kInline.
class RuleHits {
 public:
  void add(std::span<const std::uint32_t> ids) {
    for (std::uint32_t id : ids) {
      if (size_ == kInline) spill_.assign(inline_.begin(), inline_.end());
      if (size_ >= kInline)
        spill_.push_back(id);
      else
        inline_[size_] = id;
      ++size_;
    }
  }
  /// The ids in declaration order, each once: a kBoth rule covering both
  /// ends of a packet is found through both indexes.
  std::span<const std::uint32_t> in_order() {
    std::uint32_t* first = size_ > kInline ? spill_.data() : inline_.data();
    std::sort(first, first + size_);
    return {first, static_cast<std::size_t>(
                       std::unique(first, first + size_) - first)};
  }

 private:
  static constexpr std::size_t kInline = 16;
  std::array<std::uint32_t, kInline> inline_{};
  std::vector<std::uint32_t> spill_;
  std::size_t size_ = 0;
};

constexpr const char* kNoteText[] = {
    "udp_drop", "udp_host_down", "tcp_blackhole", "tcp_rst", "tcp_stall",
    "withdraw", "announce",      "rule_window",   "outage_window",
};

}  // namespace

ImpairmentPlane::~ImpairmentPlane() {
  for (obs::Registry* registry : registries_) registry->drop_owner(this);
}

void ImpairmentPlane::install(FaultScenario faults, obs::Registry* registry) {
  if (has_faults_)
    throw std::logic_error("ImpairmentPlane: faults installed twice");
  has_faults_ = true;
  faults_ = std::move(faults);
  std::vector<PrefixIndex::Entry> dst, src, hosts;
  std::vector<Edge> edges;
  auto window = [&edges](EdgeSource source, std::size_t i, SimTime from,
                         SimTime until) {
    if (from == until) return;  // zero-width: never fires, never logged
    auto index = static_cast<std::uint32_t>(i);
    edges.push_back(Edge{from, source, true, index});
    if (until != kFaultForever)
      edges.push_back(Edge{until, source, false, index});
  };
  for (std::size_t i = 0; i < faults_.rules.size(); ++i) {
    const FaultRule& rule = faults_.rules[i];
    auto id = static_cast<std::uint32_t>(i);
    if (rule.direction != FaultDirection::kOutbound)
      dst.emplace_back(rule.prefix, id);
    if (rule.direction != FaultDirection::kInbound)
      src.emplace_back(rule.prefix, id);
    window(EdgeSource::kRule, i, rule.from, rule.until);
  }
  for (std::size_t i = 0; i < faults_.outages.size(); ++i) {
    const HostOutage& outage = faults_.outages[i];
    hosts.emplace_back(net::Ipv6Prefix(outage.host, 128),
                       static_cast<std::uint32_t>(i));
    window(EdgeSource::kOutage, i, outage.from, outage.until);
  }
  dst_rules_ = PrefixIndex(std::move(dst));
  src_rules_ = PrefixIndex(std::move(src));
  outage_hosts_ = PrefixIndex(std::move(hosts));
  add_edges(std::move(edges));

  rngs_.push_back(util::Rng(faults_.seed).stream("faultplane"));
  configure_domains(domains_);
  enroll(registry, {{&udp_dropped_, "fault_udp_dropped"},
                    {&udp_host_down_, "fault_udp_host_down"},
                    {&tcp_blackholed_, "fault_tcp_blackholed"},
                    {&tcp_rst_, "fault_tcp_rst"},
                    {&tcp_stalled_, "fault_tcp_stalled"},
                    {&stall_data_dropped_, "fault_stall_data_dropped"},
                    {&delays_injected_, "fault_delays_injected"},
                    {&domain_fallback_, "fault_domain_fallback"}});
}

void ImpairmentPlane::install(RouteScenario routes, obs::Registry* registry) {
  if (has_routes_)
    throw std::logic_error("ImpairmentPlane: routes installed twice");
  has_routes_ = true;
  // Group the script per prefix, preserving first-appearance order so the
  // compiled tables are a pure function of the scenario, never of a hash.
  /// Keyed lookups only — never iterated.
  std::unordered_map<net::Ipv6Prefix, std::uint32_t, net::Ipv6PrefixHash>
      index_of;
  struct Scripted {
    SimTime effective;
    RouteOp op;
    std::size_t order;  // scenario position, the tie-break at equal times
  };
  std::vector<std::vector<Scripted>> per_route;
  std::vector<PrefixIndex::Entry> entries;  // (prefix, index into routes_)
  for (std::size_t i = 0; i < routes.events.size(); ++i) {
    const RouteEvent& ev = routes.events[i];
    auto [it, inserted] = index_of.try_emplace(
        ev.prefix, static_cast<std::uint32_t>(routes_.size()));
    if (inserted) {
      entries.emplace_back(ev.prefix, it->second);
      routes_.push_back(Route{ev.prefix, {}});
      per_route.emplace_back();
    }
    // Overflow-safe effective time: an origination near the horizon of
    // representable time saturates instead of wrapping.
    SimTime effective = ev.at > kRouteForever - routes.convergence
                            ? kRouteForever
                            : ev.at + routes.convergence;
    per_route[it->second].push_back(Scripted{effective, ev.op, i});
  }
  route_index_ = PrefixIndex(std::move(entries));

  // Compile each prefix's events into sorted, non-overlapping down-windows.
  // Prefixes start announced; redundant events (withdraw while down,
  // announce while up) change nothing and are dropped. Every down-window
  // edge is one committed transition.
  std::vector<Edge> edges;
  for (std::size_t r = 0; r < routes_.size(); ++r) {
    std::vector<Scripted>& script = per_route[r];
    std::sort(script.begin(), script.end(),
              [](const Scripted& a, const Scripted& b) {
                if (a.effective != b.effective)
                  return a.effective < b.effective;
                return a.order < b.order;
              });
    std::vector<DownWindow>& down = routes_[r].down;
    bool is_down = false;
    for (const Scripted& ev : script) {
      if (ev.op == RouteOp::kWithdraw && !is_down) {
        is_down = true;
        down.push_back(DownWindow{ev.effective, kRouteForever});
      } else if (ev.op == RouteOp::kAnnounce && is_down) {
        is_down = false;
        down.back().until = ev.effective;
        // A zero-width window (announce converging at the same instant as
        // the withdraw) never blackholes anything and commits nothing.
        if (down.back().until == down.back().from) down.pop_back();
      }
    }
    auto index = static_cast<std::uint32_t>(r);
    for (const DownWindow& w : down) {
      if (w.from < kRouteForever)
        edges.push_back(Edge{w.from, EdgeSource::kRoute, true, index});
      if (w.until < kRouteForever)
        edges.push_back(Edge{w.until, EdgeSource::kRoute, false, index});
    }
  }
  transitions_ = edges.size();
  add_edges(std::move(edges));
  enroll(registry, {{&withdrawals_, "route_withdrawals"},
                    {&announcements_, "route_announcements"},
                    {&blackholed_, "route_blackholed"}});
}

void ImpairmentPlane::add_edges(std::vector<Edge> edges) {
  edges_.insert(edges_.end(), edges.begin(), edges.end());
  std::stable_sort(edges_.begin(), edges_.end(),
                   [](const Edge& a, const Edge& b) { return a.at < b.at; });
}

void ImpairmentPlane::enroll(
    obs::Registry* registry,
    std::initializer_list<std::pair<const obs::Counter*, const char*>>
        counters) {
  if (!registry) return;
  registries_.push_back(registry);
  for (const auto& [counter, name] : counters)
    registry->enroll(*counter, name, {}, this);
}

void ImpairmentPlane::configure_domains(DomainId domains) {
  domains_ = std::max(domains_, domains);
  if (!has_faults_) return;
  util::Rng root(faults_.seed);
  while (rngs_.size() < domains_)
    rngs_.push_back(root.stream("faultplane-domain")
                        .stream(static_cast<std::uint64_t>(rngs_.size())));
}

void ImpairmentPlane::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  if (!flight_) return;
  for (std::size_t n = 0; n < kNoteCount; ++n)
    notes_[n] = flight_->tracer().intern(kNoteText[n]);
}

void ImpairmentPlane::inject(obs::Counter& counter, Note which) {
  counter.inc();
  if (flight_)
    flight_->record(obs::FlightKind::kFaultInjected, notes_[which]);
}

void ImpairmentPlane::arm(EventQueue& events) {
  const bool routes = has_routes_ && !routes_armed_ && transitions_ > 0;
  const bool windows = has_faults_ && flight_ && !windows_armed_;
  routes_armed_ |= routes;
  windows_armed_ |= windows;
  const EventQueue::CategoryId route_cat =
      routes ? events.register_category("route") : 0;
  const EventQueue::CategoryId window_cat =
      windows ? events.register_category("fault_window") : 0;
  for (const Edge& edge : edges_) {
    if (edge.source == EdgeSource::kRoute) {
      // The domain-0 event marks the effective instant; the state the rest
      // of the stack reacts to flips at the next window barrier, when
      // every domain is quiescent.
      if (routes)
        events.schedule_on(0, edge.at, route_cat, [this, &events, edge] {
          events.run_at_barrier([this, edge] { commit(edge); });
        });
      continue;
    }
    if (!windows) continue;
    // Window edges capture the recorder, never the plane.
    const bool rule = edge.source == EdgeSource::kRule;
    auto scope = static_cast<std::int64_t>(
        rule ? faults_.rules[edge.index].prefix.address().hi64()
             : faults_.outages[edge.index].host.hi64());
    events.schedule_on(
        0, edge.at, window_cat,
        [flight = flight_, opens = edge.opens, index = edge.index, scope,
         note = notes_[rule ? kNoteRuleWindow : kNoteOutageWindow]] {
          flight->record(opens ? obs::FlightKind::kFaultWindowOpen
                               : obs::FlightKind::kFaultWindowClose,
                         note, /*trace=*/0, index, scope);
        });
  }
}

void ImpairmentPlane::commit(const Edge& edge) {
  // A route edge that opens is a withdrawal.
  const net::Ipv6Prefix& prefix = routes_[edge.index].prefix;
  (edge.opens ? withdrawals_ : announcements_).inc();
  if (flight_)
    flight_->record(edge.opens ? obs::FlightKind::kRouteWithdrawn
                               : obs::FlightKind::kRouteAnnounced,
                    notes_[edge.opens ? kNoteWithdraw : kNoteAnnounce],
                    /*trace=*/0,
                    static_cast<std::int64_t>(prefix.address().hi64()),
                    static_cast<std::int64_t>(prefix.address().lo64()));
  const RouteOp op = edge.opens ? RouteOp::kWithdraw : RouteOp::kAnnounce;
  for (const TransitionFn& fn : subscribers_) fn(prefix, op, edge.at);
}

bool ImpairmentPlane::withdrawn_scripted(const net::Ipv6Address& dst,
                                         SimTime now) const {
  std::span<const std::uint32_t> route = route_index_.longest(dst);
  if (route.empty()) return false;  // one route per prefix: route[0]
  const std::vector<DownWindow>& down = routes_[route[0]].down;
  auto it = std::upper_bound(down.begin(), down.end(), now,
                             [](SimTime t, const DownWindow& w) {
                               return t < w.from;
                             });
  if (it == down.begin()) return false;
  --it;  // the last window with from <= now
  return now < it->until;
}

bool ImpairmentPlane::host_down(const net::Ipv6Address& host,
                                SimTime now) const {
  for (std::uint32_t id : outage_hosts_.longest(host))
    if (faults_.outages[id].active(now)) return true;
  return false;
}

template <ImpairmentPlane::Transport kTransport>
ImpairmentPlane::TcpVerdict ImpairmentPlane::verdict(
    const net::Ipv6Address& src, const net::Ipv6Address& dst,
    std::uint16_t dst_port, SimTime now, DomainId domain) {
  constexpr bool tcp = kTransport == Transport::kTcp;
  TcpVerdict verdict;
  // Reachability before impairment: unrouted packets die before any draw,
  // so the fault streams never see them.
  if (blackholes(dst, now)) {
    verdict.action = TcpAction::kBlackhole;
    verdict.unrouted = true;
    return verdict;
  }
  if (!has_faults_) return verdict;
  util::Rng& rng = domain_rng(domain);
  auto hit = [&](obs::Counter& counter, Note note, TcpAction action) {
    inject(counter, note);
    verdict.action = action;
    return verdict;
  };
  // A dropped datagram and a vanished SYN (a lost SYN looks like a
  // blackhole) are the same verdict, counted per transport.
  auto drop = [&] {
    return tcp ? hit(tcp_blackholed_, kNoteTcpBlackhole, TcpAction::kBlackhole)
               : hit(udp_dropped_, kNoteUdpDrop, TcpAction::kBlackhole);
  };
  if (host_down(dst, now))
    return tcp ? drop()
               : hit(udp_host_down_, kNoteUdpHostDown, TcpAction::kBlackhole);
  // Only rules whose prefix covers the packet can match; FaultRule::matches
  // is the scope contract the two indexes encode (the unknown source ::
  // never matches an outbound scope), leaving the port to check here.
  RuleHits hits;
  auto collect = [&hits](std::span<const std::uint32_t> ids) {
    hits.add(ids);
  };
  dst_rules_.for_each_covering(dst, collect);
  if (!src.is_unspecified()) src_rules_.for_each_covering(src, collect);
  for (std::uint32_t id : hits.in_order()) {
    const FaultRule& rule = faults_.rules[id];
    if (!(tcp ? rule.tcp : rule.udp) || !rule.active(now) ||
        (rule.dst_port != 0 && rule.dst_port != dst_port))
      continue;
    switch (rule.kind) {
      case FaultKind::kBlackhole:
        return drop();
      case FaultKind::kLoss:
        if (rng.chance(rule.probability)) return drop();
        break;
      case FaultKind::kRst:
        if (!tcp) break;  // TCP-only semantics; no effect on datagrams
        return hit(tcp_rst_, kNoteTcpRst, TcpAction::kRst);
      case FaultKind::kStall:
        if (!tcp) break;
        return hit(tcp_stalled_, kNoteTcpStall, TcpAction::kStall);
      case FaultKind::kDelay:
        verdict.extra_latency += rule.added_latency;
        if (rule.added_jitter > 0)
          verdict.extra_latency += static_cast<SimDuration>(
              rng.below(static_cast<std::uint64_t>(rule.added_jitter)));
        break;
    }
  }
  if (verdict.extra_latency > 0) delays_injected_.inc();
  return verdict;
}

ImpairmentPlane::UdpVerdict ImpairmentPlane::on_udp(
    const net::Ipv6Address& src, const net::Ipv6Address& dst,
    std::uint16_t dst_port, SimTime now, DomainId domain) {
  TcpVerdict v = verdict<Transport::kUdp>(src, dst, dst_port, now, domain);
  return UdpVerdict{v.action != TcpAction::kNone, v.extra_latency,
                    v.unrouted};
}

ImpairmentPlane::TcpVerdict ImpairmentPlane::on_tcp_connect(
    const net::Ipv6Address& src, const net::Ipv6Address& dst,
    std::uint16_t dst_port, SimTime now, DomainId domain) {
  return verdict<Transport::kTcp>(src, dst, dst_port, now, domain);
}

}  // namespace tts::simnet
