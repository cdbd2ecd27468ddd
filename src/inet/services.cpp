#include "inet/services.hpp"

#include <optional>
#include <span>
#include <string>
#include <type_traits>

#include "ntp/ntp_packet.hpp"
#include "ntp/ntp_server.hpp"
#include "proto/amqp.hpp"
#include "proto/coap.hpp"
#include "proto/http.hpp"
#include "proto/mqtt.hpp"
#include "proto/ports.hpp"
#include "proto/sshwire.hpp"
#include "util/format.hpp"

namespace tts::inet {

using simnet::Endpoint;
using simnet::TcpConnection;
using simnet::TcpConnectionPtr;

proto::Certificate make_certificate(KeyId key, const std::string& subject,
                                    bool self_signed,
                                    std::uint32_t lifetime_days) {
  proto::Certificate cert;
  cert.fingerprint = key;
  cert.subject = subject;
  cert.self_signed = self_signed;
  // Issued deterministically some months before the simulation epoch.
  std::uint64_t epoch = ntp::kDefaultSimEpochUnix;
  std::uint32_t age_days = 30 + key % 200;
  cert.not_before =
      static_cast<std::uint32_t>(epoch - age_days * 86400ULL);
  cert.not_after = static_cast<std::uint32_t>(
      cert.not_before + static_cast<std::uint64_t>(lifetime_days) * 86400ULL);
  return cert;
}

// ------------------------------------------------------------ server stream

namespace {

/// Validity window of a device certificate, relative to its issue date.
constexpr std::uint32_t kCertLifetimeDays = 365;

/// The TLS front of a TCP service: the certificate it presents and whether
/// a ClientHello without SNI is refused.
struct ServerTls {
  bool sni_required = false;
  proto::Certificate cert;
};

/// The server side of one TCP exchange. send() frames each message as a
/// TLS application-data record when the service runs behind TLS.
struct ServerStream {
  TcpConnectionPtr conn;
  bool tls = false;

  void send(std::vector<std::uint8_t> wire) const {
    conn->send(TcpConnection::Side::kServer,
               tls ? proto::encode_app_data(wire) : std::move(wire));
  }
  void close() const { conn->close(TcpConnection::Side::kServer); }
};

/// Serve one accepted connection: hand every client message to
/// `app(stream, message)`. Behind TLS, first answer the ClientHello with
/// the certificate (or an unrecognized_name alert when SNI is required but
/// absent) and unwrap application-data records; anything else hangs up.
template <typename AppFn>
void serve_stream(const TcpConnectionPtr& conn, std::optional<ServerTls> tls,
                  AppFn app) {
  ServerStream stream{conn, tls.has_value()};
  conn->set_on_data(
      TcpConnection::Side::kServer,
      [stream, tls = std::move(tls), app = std::move(app),
       established = false](std::vector<std::uint8_t> data) mutable {
        if (!tls) {
          app(stream, data);
          return;
        }
        auto msg = proto::decode(data);
        if (!msg) {
          stream.close();
          return;
        }
        if (msg->kind == proto::TlsMessage::Kind::kClientHello) {
          if (tls->sni_required && msg->client_hello.sni.empty()) {
            stream.conn->send(TcpConnection::Side::kServer,
                              proto::encode(proto::Alert{
                                  2, proto::kAlertUnrecognizedName}));
            stream.close();
            return;
          }
          proto::ServerHello hello;
          hello.cert = tls->cert;
          stream.conn->send(TcpConnection::Side::kServer,
                            proto::encode(hello));
          established = true;
          return;
        }
        if (msg->kind == proto::TlsMessage::Kind::kAppData && established) {
          app(stream, msg->app_data);
          return;
        }
        stream.close();
      });
}

}  // namespace

// ------------------------------------------------------------- DeviceRuntime

/// Owns one device's online presence. All handlers capture `this`; the
/// object lives as long as the InternetRuntime.
class DeviceRuntime {
 public:
  DeviceRuntime(InternetRuntime& world, Device& device, util::Rng rng)
      : world_(world), device_(device), rng_(rng) {}

  void start() {
    current_ = device_.initial_address;
    claim_address(current_);
    for (int i = 0; i < device_.profile->addr.extra_addresses; ++i) {
      auto extra = world_.population().make_address(
          device_, device_.delegation, true, rng_);
      extras_.push_back(extra);
      claim_address(extra);
    }
    // Re-derive the primary IID (make_address for extras clobbered
    // current_iid); primary stays the initial address.
    device_.current_iid = current_.iid();

    if (device_.any_service()) bind_services(current_);

    if (world_.config_.enable_churn && has_churn()) schedule_churn();
    if (device_.uses_pool && world_.pool_) {
      zone_ = world_.pool_->zone(device_.country);
      schedule_poll(true);
    }
  }

  const net::Ipv6Address& address() const { return current_; }
  const std::vector<net::Ipv6Address>& history() const { return history_; }

 private:
  bool has_churn() const {
    return device_.daily_prefix_change > 0 || device_.daily_iid_change > 0;
  }

  void claim_address(const net::Ipv6Address& addr) {
    history_.push_back(addr);
    {
      std::lock_guard<std::mutex> lock(world_.owner_mu_);  // ttslint: allow(thread-confine) reason=owner_mu_ protocol: address claim/release races across shards
      world_.address_owner_[addr] = device_.id;
    }
    if (device_.any_service()) world_.network_.attach(addr);
  }

  void release_address(const net::Ipv6Address& addr) {
    {
      std::lock_guard<std::mutex> lock(world_.owner_mu_);  // ttslint: allow(thread-confine) reason=owner_mu_ protocol: address claim/release races across shards
      const std::uint32_t* owner = world_.address_owner_.find(addr);
      if (owner && *owner == device_.id) world_.address_owner_.erase(addr);
    }
    if (device_.any_service()) world_.network_.detach(addr);
  }

  // ---- churn ----

  void schedule_churn() {
    world_.network_.events().schedule_in(
        simnet::days(1), world_.churn_cat_, [this] {
      do_churn();
      if (world_.network_.now() < world_.config_.duration) schedule_churn();
    });
  }

  void do_churn() {
    bool new_prefix = rng_.chance(device_.daily_prefix_change);
    bool new_iid = rng_.chance(device_.daily_iid_change);
    if (!new_prefix && !new_iid) return;
    world_.churn_events_.fetch_add(1, std::memory_order_relaxed);

    release_address(current_);
    for (const auto& extra : extras_) release_address(extra);
    extras_.clear();

    net::Ipv6Prefix delegation = device_.delegation;
    if (new_prefix) {
      bool eyeball = delegation.length() >= 56;
      delegation = world_.population().rotate_delegation(device_.asn,
                                                         eyeball, rng_);
      device_.delegation = delegation;
    }
    current_ =
        world_.population().make_address(device_, delegation, new_iid, rng_);
    claim_address(current_);
    for (int i = 0; i < device_.profile->addr.extra_addresses; ++i) {
      auto extra =
          world_.population().make_address(device_, delegation, true, rng_);
      extras_.push_back(extra);
      claim_address(extra);
    }
    device_.current_iid = current_.iid();

    if (device_.any_service()) bind_services(current_);
  }

  // ---- NTP client ----

  void schedule_poll(bool first) {
    double mean_us = device_.ntp_interval_hours * 3600.0 * 1e6;
    // First poll lands uniformly inside one interval so the fleet is
    // desynchronised from t = 0.
    double wait = first ? rng_.uniform() * mean_us
                        : rng_.exponential(1.0 / mean_us);
    world_.network_.events().schedule_in(
        static_cast<simnet::SimDuration>(wait), world_.poll_cat_, [this] {
          if (world_.network_.now() >= world_.config_.duration) return;
          do_poll();
          schedule_poll(false);
        });
  }

  void do_poll() {
    auto server = world_.pool_->resolve(zone_, rng_);
    if (!server) return;
    world_.ntp_polls_sent_.fetch_add(1, std::memory_order_relaxed);

    // Source address: primary, or one of the temporary addresses.
    net::Ipv6Address src = current_;
    if (!extras_.empty() && rng_.chance(0.5))
      src = extras_[rng_.below(extras_.size())];

    Endpoint src_ep{src, next_ephemeral_++};
    if (next_ephemeral_ == 0) next_ephemeral_ = 33000;
    Endpoint dst_ep{*server, ntp::kNtpPort};

    auto request = ntp::NtpPacket::client_request(world_.network_.now());
    auto expected_origin = request.transmit_time;
    // The reply arrives on the endpoint the handler is bound to, so it
    // unbinds dg.dst: the capture stays at 16 trivially copyable bytes,
    // which std::function keeps inline (no allocation per bind or per
    // delivery).
    auto on_reply = [this, expected_origin](const simnet::Datagram& dg) {
      auto response = ntp::NtpPacket::parse(dg.payload);
      // RFC 5905 sanity tests: drop and keep waiting on mismatch.
      if (response && response->origin_time == expected_origin &&
          response->mode == ntp::NtpMode::kServer) {
        world_.network_.unbind_udp(dg.dst);
      }
    };
    static_assert(sizeof(on_reply) <= 16 &&
                  std::is_trivially_copyable_v<decltype(on_reply)>);
    world_.network_.bind_udp(src_ep, on_reply);
    world_.network_.send_udp(src_ep, dst_ep, request.serialize());
    // Reclaim the ephemeral port even if the response never arrives.
    world_.network_.events().schedule_in(
        simnet::sec(8), world_.poll_cat_,
        [this, src_ep] { world_.network_.unbind_udp(src_ep); });
  }

  // ---- service binding ----

  // Each app below answers one connection's client messages over its
  // stream; serve_stream puts TLS in front where the port has it.

  auto http_app() {
    return [this](const ServerStream& stream,
                  std::span<const std::uint8_t> msg) {
      if (!proto::HttpRequest::parse(msg)) {
        stream.close();
        return;
      }
      proto::HttpResponse resp;
      resp.status = device_.http_status;
      resp.server = device_.http_server_header;
      std::string title = device_.http_title;
      // Expand the {ip} placeholder (parking pages embed the address).
      std::size_t ph = title.find("{ip}");
      if (ph != std::string::npos)
        title.replace(ph, 4, stream.conn->server().addr.to_string());
      resp.body = proto::html_page(title);
      stream.send(resp.serialize());
      stream.close();
    };
  }

  auto mqtt_app() {
    return [this](const ServerStream& stream,
                  std::span<const std::uint8_t> msg) {
      auto connect = proto::MqttConnect::parse(msg);
      if (!connect) {
        stream.close();
        return;
      }
      proto::MqttConnack ack;
      bool anonymous = connect->username.empty();
      ack.code = (device_.mqtt_auth && anonymous)
                     ? proto::MqttConnectReturn::kNotAuthorized
                     : proto::MqttConnectReturn::kAccepted;
      stream.send(ack.serialize());
      stream.close();
    };
  }

  auto amqp_app() {
    return [this, started = false](const ServerStream& stream,
                                   std::span<const std::uint8_t> msg) mutable {
      if (!started) {
        if (!proto::is_amqp_protocol_header(msg)) {
          stream.close();
          return;
        }
        started = true;
        proto::AmqpFrame start;
        start.method = proto::AmqpMethod::kStart;
        start.text = "RabbitMQ 3.12";
        stream.send(start.serialize());
        return;
      }
      auto frame = proto::AmqpFrame::parse(msg);
      if (!frame || frame->method != proto::AmqpMethod::kStartOk) {
        stream.close();
        return;
      }
      proto::AmqpFrame reply;
      if (device_.amqp_auth) {
        reply.method = proto::AmqpMethod::kClose;
        reply.close_code = 403;
        reply.text = "ACCESS_REFUSED";
      } else {
        reply.method = proto::AmqpMethod::kTune;
        reply.text = "";
      }
      stream.send(reply.serialize());
      stream.close();
    };
  }

  void bind_services(const net::Ipv6Address& addr) {
    const Device& d = device_;
    auto& net = world_.network_;
    // Each acceptor captures `this` alone, so std::function stores it
    // inline: one heap block per bound port adds up across the population.
    if (d.http_enabled) {
      net.listen_tcp({addr, proto::kHttpPort}, [this](TcpConnectionPtr c) {
        serve_stream(c, std::nullopt, http_app());
      });
      if (d.http_tls)
        net.listen_tcp({addr, proto::kHttpsPort}, [this](TcpConnectionPtr c) {
          serve_stream(c, server_tls(device_.http_cert), http_app());
        });
    }
    if (d.ssh_enabled)
      net.listen_tcp({addr, proto::kSshPort},
                     [this](TcpConnectionPtr c) { serve_ssh(c); });
    if (d.mqtt_enabled) {
      net.listen_tcp({addr, proto::kMqttPort}, [this](TcpConnectionPtr c) {
        serve_stream(c, std::nullopt, mqtt_app());
      });
      if (d.mqtt_tls)
        net.listen_tcp({addr, proto::kMqttsPort}, [this](TcpConnectionPtr c) {
          serve_stream(c, server_tls(device_.mqtt_cert), mqtt_app());
        });
    }
    if (d.amqp_enabled) {
      net.listen_tcp({addr, proto::kAmqpPort}, [this](TcpConnectionPtr c) {
        serve_stream(c, std::nullopt, amqp_app());
      });
      if (d.amqp_tls)
        net.listen_tcp({addr, proto::kAmqpsPort}, [this](TcpConnectionPtr c) {
          serve_stream(c, server_tls(device_.amqp_cert), amqp_app());
        });
    }
    if (d.coap_enabled)
      net.bind_udp({addr, proto::kCoapPort},
                   [this](const simnet::Datagram& dg) { serve_coap(dg); });
  }

  /// The TLS front of this device's services, presenting `key`'s
  /// certificate.
  ServerTls server_tls(KeyId key) const {
    bool self_signed = device_.profile->placement != Placement::kHosting;
    return ServerTls{device_.sni_required,
                     make_certificate(key, tls_subject(), self_signed,
                                      kCertLifetimeDays)};
  }

  std::string tls_subject() const {
    return "CN=" + device_.profile->model + "." +
           util::to_lower(device_.country);
  }

  void serve_ssh(const TcpConnectionPtr& conn) {
    // Server speaks first: identification string, then (after the client's
    // id) the condensed KEX reply with the host-key fingerprint.
    conn->send(TcpConnection::Side::kServer,
               proto::ssh_id_string(
                   ssh_banner(device_.ssh_os, device_.ssh_version_index)));
    auto self = this;
    conn->set_on_data(TcpConnection::Side::kServer,
                      [self, conn](std::vector<std::uint8_t> data) {
                        if (!proto::parse_ssh_id(data)) {
                          conn->close(TcpConnection::Side::kServer);
                          return;
                        }
                        conn->send(TcpConnection::Side::kServer,
                                   proto::ssh_kex_reply(self->device_.ssh_key));
                        conn->close(TcpConnection::Side::kServer);
                      });
  }

  void serve_coap(const simnet::Datagram& dg) {
    auto request = proto::CoapMessage::parse(dg.payload);
    if (!request || request->code != proto::kCoapGet) return;
    proto::CoapMessage resp;
    resp.type = proto::CoapType::kAck;
    resp.message_id = request->message_id;
    resp.token = request->token;
    if (request->uri_path.size() == 2 &&
        request->uri_path[0] == ".well-known" &&
        request->uri_path[1] == "core") {
      resp.code = proto::kCoapContent;
      std::string links =
          proto::link_format(device_.profile->coap.resources);
      resp.payload.assign(links.begin(), links.end());
    } else {
      resp.code = proto::kCoapNotFound;
    }
    world_.network_.send_udp(dg.dst, dg.src, resp.serialize());
  }

  InternetRuntime& world_;
  Device& device_;
  util::Rng rng_;
  net::Ipv6Address current_;
  std::vector<net::Ipv6Address> extras_;
  std::vector<net::Ipv6Address> history_;
  std::uint16_t next_ephemeral_ = 33000;
  ntp::NtpPool::ZoneHandle zone_;  // the pool zone this device resolves
};

// ----------------------------------------------------------- InternetRuntime

InternetRuntime::InternetRuntime(simnet::Network& network,
                                 Population& population,
                                 const ntp::NtpPool* pool,
                                 RuntimeConfig config)
    : network_(network),
      population_(population),
      pool_(pool),
      config_(config),
      rng_(config.seed),
      start_cat_(network.events().register_category("device_start")),
      churn_cat_(network.events().register_category("churn")),
      poll_cat_(network.events().register_category("ntp_poll")) {}

InternetRuntime::~InternetRuntime() = default;

void InternetRuntime::start() {
  if (started_) return;
  started_ = true;

  for (auto& device : population_.devices()) {
    auto runtime = std::make_unique<DeviceRuntime>(
        *this, device, rng_.stream("device-runtime").stream(device.id));
    if (network_.sharded()) {
      // Bring the device up on its home domain so its churn and poll
      // chains (schedule_in from inside the event) stay shard-local.
      // Every draw below comes from the device's own stream, so the
      // concurrent bring-up order never shows in the results.
      DeviceRuntime* raw = runtime.get();
      network_.events().schedule_on(
          network_.shard_map()->domain_of(device.initial_address),
          network_.now(), start_cat_, [raw] { raw->start(); });
    } else {
      runtime->start();
    }
    devices_.push_back(std::move(runtime));
  }

  // The aliased CDN region: every address answers HTTP with an untitled
  // 200 page; HTTPS handshakes fail without SNI (Section 4.2's Cloudfront
  // observation). One shared "device" personality serves the whole region.
  const auto& region = population_.registry().cdn_alias_region();
  auto cdn_http = [](const ServerStream& stream,
                     std::span<const std::uint8_t> msg) {
    if (!proto::HttpRequest::parse(msg)) {
      stream.close();
      return;
    }
    proto::HttpResponse resp;
    resp.status = 200;
    resp.server = "CloudFront";
    resp.body = proto::html_page("");
    stream.send(resp.serialize());
    stream.close();
  };
  // Address-based probes carry no hostname: the region rejects them
  // (Section 4.2's failed-handshake flood).
  ServerTls cdn_tls{true, make_certificate(util::fnv1a("cdn-wildcard-cert"),
                                           "CN=*.cdn.example", false,
                                           kCertLifetimeDays)};
  network_.listen_tcp_prefix(region, proto::kHttpPort,
                             [cdn_http](TcpConnectionPtr c) {
                               serve_stream(c, std::nullopt, cdn_http);
                             });
  network_.listen_tcp_prefix(region, proto::kHttpsPort,
                             [cdn_http, cdn_tls](TcpConnectionPtr c) {
                               serve_stream(c, cdn_tls, cdn_http);
                             });
}

const net::Ipv6Address& InternetRuntime::address_of(
    std::uint32_t device_id) const {
  return devices_.at(device_id - 1)->address();
}

const std::vector<net::Ipv6Address>& InternetRuntime::address_history(
    std::uint32_t device_id) const {
  return devices_.at(device_id - 1)->history();
}

const Device* InternetRuntime::device_at(const net::Ipv6Address& addr) const {
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(owner_mu_);  // ttslint: allow(thread-confine) reason=owner_mu_ protocol: device_at() resolves owners from every domain
    const std::uint32_t* owner = address_owner_.find(addr);
    if (!owner) return nullptr;
    id = *owner;
  }
  return &population_.devices().at(id - 1);
}

}  // namespace tts::inet
