// The simulated IPv6 Internet data plane.
//
// Endpoints bind UDP ports or TCP listeners on addresses; senders address
// datagrams / connections to (address, port). Delivery is scheduled on the
// shared EventQueue with a deterministic per-pair latency plus jitter.
// Scripted impairments (route withdrawals, host outages, loss, delay, RST,
// stall) come from one ImpairmentPlane, asked once per send and once per
// connect (see simnet/impairment.hpp). Addresses must be brought online
// (`attach`) before they accept anything; traffic to offline addresses
// times out silently, traffic to online addresses without a matching
// listener is refused (RST/ICMP) — exactly the distinction an Internet
// scanner observes.
//
// Sharded runs (set_shard_map): deliveries are scheduled on the destination
// address's domain, stochastic draws (jitter, fault verdicts) come from
// the sending domain's own RNG stream, and the per-address host table is
// mutex-guarded. The minimum one-way latency is the cross-shard lookahead
// the EventQueue's barrier protocol relies on.
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
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/ipv6.hpp"
#include "obs/metrics.hpp"
#include "simnet/event_queue.hpp"
#include "simnet/impairment.hpp"
#include "simnet/shard.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"
#include "util/task.hpp"

namespace tts::simnet {

enum class TransportProto : std::uint8_t { kUdp, kTcp };

struct Endpoint {
  net::Ipv6Address addr;
  std::uint16_t port = 0;

  friend auto operator<=>(const Endpoint&, const Endpoint&) = default;
};

/// A UDP datagram as its receiver sees it. The payload bytes live in the
/// same allocation as this header, right behind it (see send_udp), and
/// stay valid while the handler runs.
struct Datagram {
  Endpoint src;
  Endpoint dst;
  std::span<const std::uint8_t> payload;
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
class TcpConnection;
using TcpConnectionPtr = std::shared_ptr<TcpConnection>;
/// Accept callback: receives the established connection (server side).
using TcpAcceptor = std::function<void(TcpConnectionPtr)>;
/// Connect result: the connection on success, nullptr + `refused` flag.
/// It runs once, so it is a move-only Task; its 24-byte buffer holds the
/// usual capture (a probe's state pointer) and keeps the Task small enough
/// to ride inline in the failure event that delivers it.
using ConnectResult = util::Task<void(TcpConnectionPtr, bool refused), 24>;

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

  /// True when a stall rule hit this connection at establishment:
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
  /// Who learns of the connection when its handshake completes (legacy
  /// mode): held here from connect_tcp until then, so the establishing
  /// event captures only the connection.
  TcpAcceptor accept_;
  ConnectResult connected_;
};

struct NetworkConfig {
  /// Base one-way latency range; the per-pair base is a deterministic
  /// function of the address pair, jitter is sampled per packet.
  SimDuration min_latency = msec(5);
  SimDuration max_latency = msec(150);
  SimDuration jitter = msec(3);
  /// How long a blackholed TCP connect waits before giving up — the
  /// network-wide default for connect_tcp callers that do not override it.
  SimDuration connect_timeout = sec(5);
  std::uint64_t seed = 0x7715c4a11ULL;
};

class Network {
 public:
  using UdpHandler = std::function<void(const Datagram&)>;
  using TcpAcceptor = simnet::TcpAcceptor;
  using ConnectResult = simnet::ConnectResult;
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
  /// Fire-and-forget send; lost/blackholed datagrams vanish. The bytes
  /// are copied once, into the datagram's single allocation.
  void send_udp(const Endpoint& src, const Endpoint& dst,
                std::span<const std::uint8_t> payload);

  // -- TCP -------------------------------------------------------------------
  void listen_tcp(const Endpoint& ep, TcpAcceptor acceptor);
  void unlisten_tcp(const Endpoint& ep);
  /// Attempt a connection; result callback fires after one RTT on success
  /// or refusal. Blackholed attempts fire with (nullptr, refused=false)
  /// after `connect_timeout` (nullopt = the NetworkConfig default).
  void connect_tcp(const Endpoint& src, const Endpoint& dst,
                   ConnectResult result,
                   std::optional<SimDuration> connect_timeout = std::nullopt);

  // -- scripted impairments -------------------------------------------------
  /// Install the fault part or the route part of the one impairment plane
  /// (see simnet/impairment.hpp), at setup time, before traffic flows.
  /// Instruments enroll into `registry` when given; injections, route
  /// transitions and window edges are reported to `flight` when given.
  /// Each part installs once: a second install throws std::logic_error.
  void install_faults(FaultScenario scenario,
                      obs::Registry* registry = nullptr,
                      obs::FlightRecorder* flight = nullptr);
  void install_routes(RouteScenario scenario,
                      obs::Registry* registry = nullptr,
                      obs::FlightRecorder* flight = nullptr);
  /// The plane when its fault / route part is installed, else nullptr.
  const ImpairmentPlane* faults() const {
    return plane_.has_faults() ? &plane_ : nullptr;
  }
  const ImpairmentPlane* routes() const {
    return plane_.has_routes() ? &plane_ : nullptr;
  }
  /// True when `dst` sits in withdrawn (unrouted) space at `now`; always
  /// false without a route part. Pure — no counting, no draws.
  bool route_withdrawn(const net::Ipv6Address& dst, SimTime now) const {
    return plane_.withdrawn(dst, now);
  }
  /// Observe route transitions at their barrier commits; callable before
  /// install_routes (components subscribe at construction, the scenario
  /// often installs later, from Study on_built).
  void subscribe_routes(ImpairmentPlane::TransitionFn fn) {
    plane_.subscribe(std::move(fn));
  }

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
  /// Report a failed connect (`refused`: RST, else timeout) `after` now.
  void fail_connect(SimDuration after, bool refused, ConnectResult result);
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
  /// Scripted impairments (no part installed = pristine network). Asked
  /// once per UDP send and TCP connect; stalled connections swallow data
  /// through it.
  ImpairmentPlane plane_;

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
  /// Open-addressed {address, index} slots over a dense Host array (see
  /// util/flat_map.hpp); nothing iterates it, so its order never matters.
  using HostMap =
      util::FlatMap<net::Ipv6Address, Host, net::Ipv6AddressFlatHash>;

  /// Erase `addr`'s entry once it is offline and holds no binding.
  /// Requires maps_mu_.
  void drop_if_idle(const net::Ipv6Address& addr, Host& host);
  /// Erase `addr`'s entry, keeping its UDP and TCP tables' buffers in
  /// spare_udp_ and spare_tcp_ when those are empty. Requires maps_mu_.
  void erase_host(const net::Ipv6Address& addr, Host& host);
  /// Whether `dst` is online; copies its acceptor into `acceptor`: the
  /// exact listener, else a wildcard prefix listener (whose region counts
  /// as online), else none.
  bool tcp_listener(const Endpoint& dst, TcpAcceptor& acceptor);

  /// Guards the host table below: any domain may insert or erase entries,
  /// so every access, lookups included, takes it.
  mutable std::mutex maps_mu_;  // ttslint: allow(thread-confine) reason=guards the host table against cross-domain insert/erase (documented above)
  HostMap hosts_;
  std::size_t online_count_ = 0;  // hosts_ entries with refs > 0
  /// An empty UDP binding table with capacity, left by an erased entry
  /// for the next entry that binds: a device polling from an address it
  /// never attached creates and drops an entry per poll, and reusing the
  /// buffer keeps that round trip free of a table allocation.
  std::vector<std::pair<std::uint16_t, UdpHandler>> spare_udp_;
  /// The same for TCP listener tables: a churned device detaches its old
  /// address and listens on its new one, which reuses the table it left.
  std::vector<std::pair<std::uint16_t, TcpAcceptor>> spare_tcp_;

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
