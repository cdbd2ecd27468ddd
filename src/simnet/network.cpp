#include "simnet/network.hpp"

#include <algorithm>
#include <cassert>

namespace tts::simnet {

namespace {

template <typename Fn>
using PortTable = std::vector<std::pair<std::uint16_t, Fn>>;

/// A copy of the handler bound to `port`, or an empty one. Callers copy
/// under maps_mu_ and run the copy unlocked: a handler may unbind itself.
template <typename Fn>
Fn bound_to(const PortTable<Fn>& table, std::uint16_t port) {
  for (const auto& [p, fn] : table)
    if (p == port) return fn;
  return {};
}

/// Bind `fn` to `port`, replacing an existing binding.
template <typename Fn>
void bind_port(PortTable<Fn>& table, std::uint16_t port, Fn fn) {
  for (auto& [p, slot] : table) {
    if (p == port) {
      slot = std::move(fn);
      return;
    }
  }
  table.emplace_back(port, std::move(fn));
}

template <typename Fn>
void unbind_port(PortTable<Fn>& table, std::uint16_t port) {
  std::erase_if(table, [port](const auto& b) { return b.first == port; });
}

}  // namespace

// ---------------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(Network* net, Endpoint client, Endpoint server,
                             SimDuration latency, DomainId client_dom,
                             DomainId server_dom, bool sharded)
    : net_(net),
      client_(std::move(client)),
      server_(std::move(server)),
      latency_(latency),
      sharded_(sharded) {
  dom_[0] = client_dom;
  dom_[1] = server_dom;
}

void TcpConnection::set_on_data(Side side, DataFn fn) {
  on_data_[static_cast<int>(side)] = std::move(fn);
}

void TcpConnection::set_on_close(Side side, CloseFn fn) {
  on_close_[static_cast<int>(side)] = std::move(fn);
}

void TcpConnection::send(Side from, std::vector<std::uint8_t> data) {
  int f = static_cast<int>(from);
  if (!open_[sharded_ ? f : 0]) return;
  if (stalled_) {
    // Fault-injected stall: the connection looks established, but payload
    // bytes silently vanish in both directions (counted by the plane).
    if (net_->fault_) net_->fault_->note_stalled_data();
    return;
  }
  int to = 1 - f;
  auto self = shared_from_this();
  // Data queued before a close is still delivered (TCP flushes the send
  // buffer before the FIN); the close notification is scheduled after it.
  net_->events_.schedule_on(
      dom_[to], net_->events_.now() + latency_, net_->packet_cat_,
      [self, to, data = std::move(data)]() mutable {
        if (self->on_data_[to]) self->on_data_[to](std::move(data));
      });
}

void TcpConnection::close(Side from) {
  int f = static_cast<int>(from);
  if (!open_[sharded_ ? f : 0]) return;
  open_[sharded_ ? f : 0] = false;
  auto self = shared_from_this();
  SimTime deliver_at = net_->events_.now() + latency_;
  if (stalled_) {
    // The FIN is swallowed like everything else: the peer never hears the
    // close. Still break the handler capture cycles (deferred one latency
    // so a close from inside a callback never drops the running closure's
    // own captures out from under it). Sharded: each side's handlers drop
    // on that side's own domain.
    if (sharded_) {
      net_->events_.schedule_on(dom_[f], deliver_at, net_->packet_cat_,
                                [self, f] { self->drop_side(f); });
    } else {
      net_->events_.schedule_on(0, deliver_at, net_->packet_cat_,
                                [self] { self->drop_handlers(); });
    }
    return;
  }
  int to = 1 - f;
  if (!sharded_) {
    net_->events_.schedule_on(0, deliver_at, net_->packet_cat_, [self, to] {
      // Move the peer's close handler out, then drop every handler before
      // invoking it: the handlers routinely capture the connection pointer,
      // and clearing them here breaks the shared_ptr cycle the moment the
      // close delivers. Data queued before the close was scheduled earlier
      // on the same event queue, so it has already been delivered.
      CloseFn fn = std::move(self->on_close_[to]);
      self->drop_handlers();
      if (fn) fn();
    });
    return;
  }
  // Sharded: the FIN hops to the peer's domain; this side's own handlers
  // drop via a same-domain event at the same instant.
  net_->events_.schedule_on(dom_[to], deliver_at, net_->packet_cat_,
                            [self, to] {
                              self->open_[to] = false;
                              CloseFn fn = std::move(self->on_close_[to]);
                              self->drop_side(to);
                              if (fn) fn();
                            });
  net_->events_.schedule_on(dom_[f], deliver_at, net_->packet_cat_,
                            [self, f] { self->drop_side(f); });
}

void TcpConnection::drop_handlers() {
  for (auto& fn : on_data_) fn = nullptr;
  for (auto& fn : on_close_) fn = nullptr;
}

void TcpConnection::drop_side(int side) {
  on_data_[side] = nullptr;
  on_close_[side] = nullptr;
}

// --------------------------------------------------------------------- Network

Network::Network(EventQueue& events, NetworkConfig config)
    : events_(events),
      config_(config),
      packet_cat_(events.register_category("packet")) {
  rngs_.emplace_back(config.seed);
}

Network::~Network() {
  // Connections that never closed (in-flight probes at the simulation
  // horizon) still hold user callbacks capturing their own shared_ptr;
  // break those cycles so nothing outlives the teardown.
  for (const auto& weak : live_tcp_)
    if (auto conn = weak.lock()) conn->drop_handlers();
}

void Network::set_shard_map(const ShardMap* map) {
  map_ = map;
  if (!map_) return;
  util::Rng root(config_.seed);
  for (DomainId d = static_cast<DomainId>(rngs_.size());
       d < map_->domain_count(); ++d)
    rngs_.push_back(root.stream("net-domain").stream(d));
  if (fault_) fault_->configure_domains(map_->domain_count());
}

util::Rng& Network::domain_rng() {
  DomainId d = events_.current_domain();
  return rngs_[d < rngs_.size() ? d : 0];
}

void Network::attach(const net::Ipv6Address& addr) {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  if (hosts_[addr].refs++ == 0) ++online_count_;
}

void Network::detach(const net::Ipv6Address& addr) {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  auto it = hosts_.find(addr);
  if (it == hosts_.end() || it->second.refs == 0) return;
  if (--it->second.refs > 0) return;
  --online_count_;
  hosts_.erase(it);  // and with it every binding on this address
}

bool Network::online(const net::Ipv6Address& addr) const {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  auto it = hosts_.find(addr);
  return it != hosts_.end() && it->second.refs > 0;
}

std::size_t Network::online_count() const {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  return online_count_;
}

void Network::drop_if_idle(HostMap::iterator it) {
  const Host& host = it->second;
  if (host.refs == 0 && host.udp.empty() && host.tcp.empty()) hosts_.erase(it);
}

SimDuration Network::base_latency(const net::Ipv6Address& a,
                                  const net::Ipv6Address& b) const {
  // Deterministic symmetric function of the unordered pair.
  std::uint64_t ha = a.hi64() ^ (a.lo64() * 0x9e3779b97f4a7c15ULL);
  std::uint64_t hb = b.hi64() ^ (b.lo64() * 0x9e3779b97f4a7c15ULL);
  std::uint64_t mixed = (ha ^ hb) * 0xbf58476d1ce4e5b9ULL;
  mixed ^= mixed >> 31;
  SimDuration span = config_.max_latency - config_.min_latency;
  if (span <= 0) return config_.min_latency;
  return config_.min_latency +
         static_cast<SimDuration>(mixed % static_cast<std::uint64_t>(span));
}

SimDuration Network::sample_latency(const net::Ipv6Address& a,
                                    const net::Ipv6Address& b,
                                    util::Rng& rng) {
  SimDuration lat = base_latency(a, b);
  if (config_.jitter > 0)
    lat += static_cast<SimDuration>(
        rng.below(static_cast<std::uint64_t>(config_.jitter)));
  return lat;
}

void Network::run_taps(TransportProto proto, const Endpoint& src,
                       const Endpoint& dst, std::size_t payload_size) {
  if (taps_.empty()) return;
  TapEvent ev{events_.now(), proto, src, dst, payload_size};
  for (const auto& tap : taps_)
    if (tap.prefix.contains(dst.addr)) tap.fn(ev);
}

void Network::bind_udp(const Endpoint& ep, UdpHandler handler) {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  bind_port(hosts_[ep.addr].udp, ep.port, std::move(handler));
}

void Network::unbind_udp(const Endpoint& ep) {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  auto it = hosts_.find(ep.addr);
  if (it == hosts_.end()) return;
  unbind_port(it->second.udp, ep.port);
  drop_if_idle(it);
}

void Network::send_udp(const Endpoint& src, const Endpoint& dst,
                       std::vector<std::uint8_t> payload) {
  udp_sent_.fetch_add(1, std::memory_order_relaxed);
  run_taps(TransportProto::kUdp, src, dst, payload.size());
  const SimTime now = events_.now();
  // Reachability before impairment (route -> outage -> rules): a datagram
  // into withdrawn space vanishes before any stochastic draw, so the
  // RNG stream is untouched and route-plane-off runs draw identically.
  if (route_ && route_->blackholes(dst.addr, now)) return;
  util::Rng& rng = domain_rng();
  if (config_.loss_rate > 0.0 && rng.chance(config_.loss_rate)) return;
  SimDuration lat = sample_latency(src.addr, dst.addr, rng);
  if (fault_) {
    FaultPlane::UdpVerdict verdict = fault_->on_udp(
        src.addr, dst.addr, dst.port, now, events_.current_domain());
    if (verdict.drop) return;
    lat += verdict.extra_latency;
  }
  DomainId dst_dom = map_ ? map_->domain_of(dst.addr) : 0;
  events_.schedule_on(
      dst_dom, now + lat, packet_cat_,
      [this, src, dst, payload = std::move(payload)] {
        UdpHandler handler;
        {
          std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
          auto it = hosts_.find(dst.addr);
          if (it != hosts_.end()) handler = bound_to(it->second.udp, dst.port);
        }
        // No binding: blackholed or refused — UDP stays silent.
        if (!handler) return;
        udp_delivered_.fetch_add(1, std::memory_order_relaxed);
        handler(Datagram{src, dst, payload});
      });
}

void Network::listen_tcp(const Endpoint& ep, TcpAcceptor acceptor) {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  bind_port(hosts_[ep.addr].tcp, ep.port, std::move(acceptor));
}

void Network::unlisten_tcp(const Endpoint& ep) {
  std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
  auto it = hosts_.find(ep.addr);
  if (it == hosts_.end()) return;
  unbind_port(it->second.tcp, ep.port);
  drop_if_idle(it);
}

bool Network::tcp_listener(const Endpoint& dst, TcpAcceptor& acceptor) {
  bool host_online = false;
  {
    std::lock_guard<std::mutex> lk(maps_mu_);  // ttslint: allow(thread-confine) reason=maps_mu_ protocol: host-table structure is touched from every domain
    auto it = hosts_.find(dst.addr);
    if (it != hosts_.end()) {
      host_online = it->second.refs > 0;
      acceptor = bound_to(it->second.tcp, dst.port);
    }
  }
  if (acceptor) return host_online;
  for (const auto& p : prefix_tcp_) {
    if (p.port == dst.port && p.prefix.contains(dst.addr)) {
      acceptor = p.acceptor;
      return true;
    }
  }
  return host_online;
}

void Network::connect_tcp(const Endpoint& src, const Endpoint& dst,
                          ConnectResult result,
                          std::optional<SimDuration> connect_timeout) {
  tcp_attempts_.fetch_add(1, std::memory_order_relaxed);
  run_taps(TransportProto::kTcp, src, dst, 0);

  SimDuration timeout = connect_timeout.value_or(config_.connect_timeout);
  const SimTime now = events_.now();
  // Reachability before impairment: a SYN into withdrawn space times out
  // exactly like a blackhole, before any stochastic draw.
  if (route_ && route_->blackholes(dst.addr, now)) {
    events_.schedule_in(timeout, packet_cat_,
                        [result] { result(nullptr, /*refused=*/false); });
    return;
  }
  util::Rng& rng = domain_rng();
  SimDuration lat = sample_latency(src.addr, dst.addr, rng);
  FaultPlane::TcpVerdict verdict;
  if (fault_) {
    verdict = fault_->on_tcp_connect(src.addr, dst.addr, dst.port, now,
                                     events_.current_domain());
    lat += verdict.extra_latency;
    if (verdict.action == FaultPlane::TcpAction::kBlackhole) {
      events_.schedule_in(timeout, packet_cat_,
                          [result] { result(nullptr, /*refused=*/false); });
      return;
    }
    if (verdict.action == FaultPlane::TcpAction::kRst) {
      events_.schedule_in(2 * lat, packet_cat_,
                          [result] { result(nullptr, /*refused=*/true); });
      return;
    }
  }
  bool stalled = verdict.action == FaultPlane::TcpAction::kStall;
  if (map_) {
    connect_tcp_sharded(src, dst, std::move(result), timeout, lat, stalled);
    return;
  }

  TcpAcceptor acceptor;
  if (!tcp_listener(dst, acceptor)) {
    // Blackhole: the connect attempt times out.
    events_.schedule_in(timeout, packet_cat_,
                        [result] { result(nullptr, /*refused=*/false); });
    return;
  }
  if (!acceptor) {
    // RST after one RTT.
    events_.schedule_in(2 * lat, packet_cat_,
                        [result] { result(nullptr, /*refused=*/true); });
    return;
  }

  tcp_established_.fetch_add(1, std::memory_order_relaxed);
  events_.schedule_in(2 * lat, packet_cat_,
                      [this, src, dst, lat, stalled, result, acceptor] {
    auto conn = TcpConnectionPtr(new TcpConnection(
        this, src, dst, lat, /*client_dom=*/0, /*server_dom=*/0,
        /*sharded=*/false));
    conn->stalled_ = stalled;
    track_connection(conn);
    // Server learns of the connection first (it must install handlers
    // before any client data can arrive — data takes >= lat anyway).
    acceptor(conn);
    result(conn, false);
  });
}

void Network::connect_tcp_sharded(const Endpoint& src, const Endpoint& dst,
                                  ConnectResult result, SimDuration timeout,
                                  SimDuration lat, bool stalled) {
  // SYN-arrival model: the destination's online/listener state belongs to
  // the destination's domain, so the lookups run there — one latency after
  // the send — and the outcome hops back to the caller's domain.
  DomainId caller_dom = events_.current_domain();
  DomainId server_dom = map_->domain_of(dst.addr);
  SimTime send_at = events_.now();
  events_.schedule_on(
      server_dom, send_at + lat, packet_cat_,
      [this, src, dst, lat, stalled, timeout, caller_dom, server_dom,
       send_at, result = std::move(result)] {
        TcpAcceptor acceptor;
        if (!tcp_listener(dst, acceptor)) {
          events_.schedule_on(caller_dom, send_at + timeout, packet_cat_,
                              [result] { result(nullptr, false); });
          return;
        }
        if (!acceptor) {
          events_.schedule_on(caller_dom, send_at + 2 * lat, packet_cat_,
                              [result] { result(nullptr, true); });
          return;
        }
        tcp_established_.fetch_add(1, std::memory_order_relaxed);
        auto conn = TcpConnectionPtr(new TcpConnection(
            this, src, dst, lat, caller_dom, server_dom, /*sharded=*/true));
        conn->stalled_ = stalled;
        track_connection(conn);
        // Server side accepts at SYN arrival; the client's result fires a
        // further latency later (the SYN-ACK), preserving the
        // acceptor-before-result ordering across domains.
        acceptor(conn);
        events_.schedule_on(caller_dom, send_at + 2 * lat, packet_cat_,
                            [conn, result] { result(conn, false); });
      });
}

void Network::install_faults(FaultScenario scenario, obs::Registry* registry,
                             obs::FlightRecorder* flight) {
  fault_ = std::make_unique<FaultPlane>(std::move(scenario), registry);
  if (flight) {
    fault_->set_flight_recorder(flight);
    fault_->arm_windows(events_);
  }
  if (map_) fault_->configure_domains(map_->domain_count());
}

void Network::install_routes(RouteScenario scenario, obs::Registry* registry,
                             obs::FlightRecorder* flight) {
  // Install-once: arming schedules transition events capturing the plane,
  // so a replacement would dangle them.
  assert(!route_ && "route plane may only be installed once");
  route_ = std::make_unique<RoutePlane>(std::move(scenario), registry);
  if (flight) route_->set_flight_recorder(flight);
  for (auto& fn : route_subs_) route_->subscribe(std::move(fn));
  route_subs_.clear();
  route_->arm(events_);
}

void Network::subscribe_routes(RoutePlane::TransitionFn fn) {
  if (route_)
    route_->subscribe(std::move(fn));
  else
    route_subs_.push_back(std::move(fn));
}

void Network::track_connection(const TcpConnectionPtr& conn) {
  std::lock_guard<std::mutex> lk(live_mu_);  // ttslint: allow(thread-confine) reason=live_mu_ protocol: connections register from any domain for ~Network teardown
  if (live_tcp_.size() >= live_tcp_prune_at_) {
    std::erase_if(live_tcp_,
                  [](const std::weak_ptr<TcpConnection>& w) {
                    return w.expired();
                  });
    live_tcp_prune_at_ = std::max<std::size_t>(64, 2 * live_tcp_.size());
  }
  live_tcp_.push_back(conn);
}

void Network::listen_tcp_prefix(const net::Ipv6Prefix& prefix,
                                std::uint16_t port, TcpAcceptor acceptor) {
  prefix_tcp_.push_back(PrefixTcp{prefix, port, std::move(acceptor)});
}

std::uint64_t Network::add_tap(const net::Ipv6Prefix& prefix, TapFn fn) {
  std::uint64_t id = next_tap_id_++;
  taps_.push_back(Tap{id, prefix, std::move(fn)});
  return id;
}

void Network::remove_tap(std::uint64_t id) {
  for (auto it = taps_.begin(); it != taps_.end(); ++it) {
    if (it->id == id) {
      taps_.erase(it);
      return;
    }
  }
}

}  // namespace tts::simnet
