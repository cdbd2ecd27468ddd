// The simulated IPv6 Internet data plane.
//
// Endpoints bind UDP ports or TCP listeners on addresses; senders address
// datagrams / connections to (address, port). Delivery is scheduled on the
// shared EventQueue with a deterministic per-pair latency plus jitter, and
// optional loss. Addresses must be brought online (`attach`) before they
// accept anything; traffic to offline addresses times out silently, traffic
// to online addresses without a matching listener is refused (RST/ICMP) —
// exactly the distinction an Internet scanner observes.
//
// Sharded runs (set_shard_map): deliveries are scheduled on the destination
// address's domain, stochastic draws (loss, jitter, fault verdicts) come
// from the sending domain's own RNG stream, and the per-address host table
// is mutex-guarded. The minimum one-way latency is the cross-shard lookahead the EventQueue's barrier
// protocol relies on.
//
// Taps: a tap observes every UDP datagram and TCP connection attempt whose
// destination falls inside a prefix, whether or not anything is bound there.
// The telescope experiment (Section 5) uses taps as its darknet capture.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/ipv6.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/fault.hpp"
#include "simnet/route.hpp"
#include "simnet/shard.hpp"
#include "util/rng.hpp"

namespace tts::simnet {

enum class TransportProto : std::uint8_t { kUdp, kTcp };

struct Endpoint {
  net::Ipv6Address addr;
  std::uint16_t port = 0;

  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

struct Datagram {
  Endpoint src;
  Endpoint dst;
  std::vector<std::uint8_t> payload;
};

/// Observed by taps for both UDP payloads and TCP connection attempts.
struct TapEvent {
  SimTime at = 0;
  TransportProto proto = TransportProto::kUdp;
  Endpoint src;
  Endpoint dst;
  std::size_t payload_size = 0;  // 0 for bare TCP connection attempts
};

class Network;

/// A bidirectional session-level TCP connection. Both sides hold a shared
/// handle; sends are delivered to the peer's on_data callback after the
/// path latency. Closing either side delivers on_close to the peer.
///
/// In sharded mode each side's state (its open flag and handlers) lives on
/// that side's domain: deliveries and close notifications hop domains like
/// any other packet, so each flag is only ever touched by its home domain.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using DataFn = std::function<void(std::vector<std::uint8_t>)>;
  using CloseFn = std::function<void()>;

  /// Which side of the connection the caller is.
  enum class Side : int { kClient = 0, kServer = 1 };

  void send(Side from, std::vector<std::uint8_t> data);
  void close(Side from);
  /// Client-side view of the connection (the single shared flag in legacy
  /// mode; the client domain's own flag in sharded mode).
  bool open() const { return open_[0]; }

  void set_on_data(Side side, DataFn fn);
  void set_on_close(Side side, CloseFn fn);

  const Endpoint& client() const { return client_; }
  const Endpoint& server() const { return server_; }

  /// True when a FaultPlane stall rule hit this connection at establishment:
  /// it looks open to both sides, but no data (or close notification) ever
  /// crosses it.
  bool stalled() const { return stalled_; }

 private:
  friend class Network;
  TcpConnection(Network* net, Endpoint client, Endpoint server,
                SimDuration latency, DomainId client_dom, DomainId server_dom,
                bool sharded);

  /// Drop both sides' callbacks. User callbacks routinely capture the
  /// connection's own shared_ptr, which forms a reference cycle
  /// (connection -> callback -> connection); resetting the handlers when
  /// the close delivers — or from ~Network for connections still open when
  /// the simulation is torn down — breaks the cycle so LeakSanitizer runs
  /// clean.
  void drop_handlers();
  void drop_side(int side);

  Network* net_;
  Endpoint client_;
  Endpoint server_;
  SimDuration latency_;
  // Legacy mode uses open_[0] as the one shared open flag (exact original
  // semantics); sharded mode keeps one flag per side, each touched only on
  // its own domain.
  bool open_[2] = {true, true};
  bool stalled_ = false;
  bool sharded_ = false;
  DomainId dom_[2] = {0, 0};
  DataFn on_data_[2];
  CloseFn on_close_[2];
};

using TcpConnectionPtr = std::shared_ptr<TcpConnection>;

struct NetworkConfig {
  /// Base one-way latency range; the per-pair base is a deterministic
  /// function of the address pair, jitter is sampled per packet.
  SimDuration min_latency = msec(5);
  SimDuration max_latency = msec(150);
  SimDuration jitter = msec(3);
  double loss_rate = 0.0;  // applied to UDP datagrams only
  /// How long a blackholed TCP connect waits before giving up — the
  /// network-wide default for connect_tcp callers that do not override it.
  SimDuration connect_timeout = sec(5);
  std::uint64_t seed = 0x7715c4a11ULL;
};

class Network {
 public:
  using UdpHandler = std::function<void(const Datagram&)>;
  /// Accept callback: receives the established connection (server side).
  using TcpAcceptor = std::function<void(TcpConnectionPtr)>;
  /// Connect result: the connection on success, nullptr + `refused` flag.
  using ConnectResult =
      std::function<void(TcpConnectionPtr, bool refused)>;
  using TapFn = std::function<void(const TapEvent&)>;

  Network(EventQueue& events, NetworkConfig config = {});
  /// Drops the callback handlers of every connection still open so their
  /// capture cycles cannot outlive the network (see
  /// TcpConnection::drop_handlers).
  ~Network();

  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }
  SimTime now() const { return events_.now(); }

  /// Partition the data plane by destination domain. The map must outlive
  /// the network and be set before any traffic flows; per-domain RNG
  /// streams are derived from the network seed so stochastic draws are a
  /// function of the sending domain, never of shard count.
  void set_shard_map(const ShardMap* map);
  const ShardMap* shard_map() const { return map_; }
  bool sharded() const { return map_ != nullptr; }

  // -- address lifecycle ----------------------------------------------------
  /// Bring an address online. Online addresses refuse unmatched traffic;
  /// offline ones blackhole it.
  void attach(const net::Ipv6Address& addr);
  /// Drop one claim on an address; the last one takes it offline and drops
  /// all its bindings, in O(ports bound on it). Detaching an address that
  /// is not attached is a no-op and leaves its bindings in place.
  void detach(const net::Ipv6Address& addr);
  bool online(const net::Ipv6Address& addr) const;
  std::size_t online_count() const;

  // -- UDP -------------------------------------------------------------------
  void bind_udp(const Endpoint& ep, UdpHandler handler);
  void unbind_udp(const Endpoint& ep);
  /// Fire-and-forget send; lost/blackholed datagrams vanish.
  void send_udp(const Endpoint& src, const Endpoint& dst,
                std::vector<std::uint8_t> payload);

  // -- TCP -------------------------------------------------------------------
  void listen_tcp(const Endpoint& ep, TcpAcceptor acceptor);
  void unlisten_tcp(const Endpoint& ep);
  /// Attempt a connection; result callback fires after one RTT on success
  /// or refusal. Blackholed attempts fire with (nullptr, refused=false)
  /// after `connect_timeout` (nullopt = the NetworkConfig default).
  void connect_tcp(const Endpoint& src, const Endpoint& dst,
                   ConnectResult result,
                   std::optional<SimDuration> connect_timeout = std::nullopt);

  // -- fault injection --------------------------------------------------------
  /// Install (or replace) the fault plane driving scripted impairments; see
  /// simnet/fault.hpp. Instruments enroll into `registry` when given;
  /// injections are reported to `flight` when given (see
  /// FaultPlane::set_flight_recorder).
  void install_faults(FaultScenario scenario,
                      obs::Registry* registry = nullptr,
                      obs::FlightRecorder* flight = nullptr);
  /// The installed plane (nullptr when no scenario is active).
  const FaultPlane* faults() const { return fault_.get(); }

  // -- routing signal plane ---------------------------------------------------
  /// Install the scripted BGP-style reachability plane (see
  /// simnet/route.hpp). Consulted before the FaultPlane on every UDP send
  /// and TCP connect — verdict precedence route -> outage -> rules — and
  /// its transitions commit at window barriers. Install-once, at setup
  /// time (before traffic flows); buffered subscribe_routes() callbacks
  /// attach here.
  void install_routes(RouteScenario scenario,
                      obs::Registry* registry = nullptr,
                      obs::FlightRecorder* flight = nullptr);
  /// The installed plane (nullptr when no route scenario is active).
  const RoutePlane* routes() const { return route_.get(); }
  /// True when `dst` sits in withdrawn (unrouted) space at `now`; always
  /// false without an installed plane. Pure — no counting, no draws.
  bool route_withdrawn(const net::Ipv6Address& dst, SimTime now) const {
    return route_ && route_->withdrawn(dst, now);
  }
  /// Observe route transitions at their barrier commits. Callable before
  /// install_routes (components subscribe at construction; the scenario
  /// often installs later, e.g. from Study on_built): subscriptions made
  /// early are buffered and attached on install.
  void subscribe_routes(RoutePlane::TransitionFn fn);

  // -- wildcard (aliased-region) listeners ------------------------------------
  /// Accept TCP to *every* address inside `prefix` on `port`. Models fully
  /// aliased hyperscaler regions where each address responds (the paper's
  /// 356 M Cloudfront responses). Exact-endpoint listeners take precedence.
  void listen_tcp_prefix(const net::Ipv6Prefix& prefix, std::uint16_t port,
                         TcpAcceptor acceptor);

  // -- taps ------------------------------------------------------------------
  /// Observe all traffic destined into `prefix`. Returns a tap id.
  /// Setup-time only: taps are read concurrently once a sharded run starts.
  std::uint64_t add_tap(const net::Ipv6Prefix& prefix, TapFn fn);
  void remove_tap(std::uint64_t id);

  // -- introspection ----------------------------------------------------------
  std::uint64_t udp_sent() const {
    return udp_sent_.load(std::memory_order_relaxed);
  }
  std::uint64_t udp_delivered() const {
    return udp_delivered_.load(std::memory_order_relaxed);
  }
  std::uint64_t tcp_attempts() const {
    return tcp_attempts_.load(std::memory_order_relaxed);
  }
  std::uint64_t tcp_established() const {
    return tcp_established_.load(std::memory_order_relaxed);
  }

  /// One-way latency for a src/dst pair (deterministic base component).
  SimDuration base_latency(const net::Ipv6Address& a,
                           const net::Ipv6Address& b) const;

 private:
  friend class TcpConnection;

  /// The sending domain's RNG stream (rngs_[0] — the legacy stream — when
  /// unsharded).
  util::Rng& domain_rng();
  SimDuration sample_latency(const net::Ipv6Address& a,
                             const net::Ipv6Address& b, util::Rng& rng);
  void run_taps(TransportProto proto, const Endpoint& src,
                const Endpoint& dst, std::size_t payload_size);
  void track_connection(const TcpConnectionPtr& conn);
  void connect_tcp_sharded(const Endpoint& src, const Endpoint& dst,
                           ConnectResult result, SimDuration timeout,
                           SimDuration lat, bool stalled);

  EventQueue& events_;
  NetworkConfig config_;
  /// rngs_[0] is the legacy stream (seeded exactly as before sharding
  /// existed); rngs_[d] for d > 0 are per-domain derived streams.
  std::vector<util::Rng> rngs_;
  const ShardMap* map_ = nullptr;
  /// Dispatch category for every delivery the network schedules (UDP
  /// deliveries, TCP connect outcomes, connection data/close).
  EventQueue::CategoryId packet_cat_;
  /// Scripted impairments (null = pristine network). Consulted on every
  /// UDP send and TCP connect; stalled connections swallow data through it.
  std::unique_ptr<FaultPlane> fault_;
  /// Scripted reachability (null = everything routed). Consulted before
  /// the fault plane; withdrawn destinations blackhole regardless of rules.
  std::unique_ptr<RoutePlane> route_;
  /// Transition subscriptions made before install_routes, attached then.
  std::vector<RoutePlane::TransitionFn> route_subs_;

  /// Everything the data plane knows about one address: its attach
  /// refcount (a device may attach an address it already owns; 0 means
  /// offline) and its (port, handler) bindings — a handful per host, so a
  /// linear scan beats a nested map. Offline entries exist only while they
  /// hold bindings — e.g. the ephemeral NTP poll port of a device that
  /// never attaches its address — and vanish with their last unbind.
  struct Host {
    std::uint32_t refs = 0;
    std::vector<std::pair<std::uint16_t, UdpHandler>> udp;
    std::vector<std::pair<std::uint16_t, TcpAcceptor>> tcp;
  };
  using HostMap =
      std::unordered_map<net::Ipv6Address, Host, net::Ipv6AddressHash>;

  /// Erase `it` once it is offline and holds no binding. Requires maps_mu_.
  void drop_if_idle(HostMap::iterator it);
  /// Whether `dst` is online; copies its acceptor into `acceptor`: the
  /// exact listener, else a wildcard prefix listener (whose region counts
  /// as online), else none.
  bool tcp_listener(const Endpoint& dst, TcpAcceptor& acceptor);

  /// Guards the host table below: any domain may insert or erase entries,
  /// so every access, lookups included, takes it.
  mutable std::mutex maps_mu_;  // ttslint: allow(thread-confine) reason=guards the host table against cross-domain insert/erase (documented above)
  HostMap hosts_;
  std::size_t online_count_ = 0;  // hosts_ entries with refs > 0

  struct Tap {
    std::uint64_t id;
    net::Ipv6Prefix prefix;
    TapFn fn;
  };
  std::vector<Tap> taps_;

  struct PrefixTcp {
    net::Ipv6Prefix prefix;
    std::uint16_t port;
    TcpAcceptor acceptor;
  };
  std::vector<PrefixTcp> prefix_tcp_;
  std::uint64_t next_tap_id_ = 1;

  /// Weak handles on every established connection, pruned amortised; used
  /// only by ~Network to break callback cycles of never-closed connections
  /// (e.g. probes still in flight when a run is truncated at its horizon).
  std::mutex live_mu_;  // ttslint: allow(thread-confine) reason=guards the live-connection roster appended from any domain
  std::vector<std::weak_ptr<TcpConnection>> live_tcp_;
  std::size_t live_tcp_prune_at_ = 64;

  // ttslint: allow(thread-confine) reason=relaxed delivery counter bumped on any domain, read post-run
  std::atomic<std::uint64_t> udp_sent_{0};
  // ttslint: allow(thread-confine) reason=relaxed delivery counter bumped on any domain, read post-run
  std::atomic<std::uint64_t> udp_delivered_{0};
  // ttslint: allow(thread-confine) reason=relaxed delivery counter bumped on any domain, read post-run
  std::atomic<std::uint64_t> tcp_attempts_{0};
  // ttslint: allow(thread-confine) reason=relaxed delivery counter bumped on any domain, read post-run
  std::atomic<std::uint64_t> tcp_established_{0};
};

}  // namespace tts::simnet
