// The protocol probes (Table 2's eight protocols).
//
// Every TCP probe is one dialogue over one client stream: connect, run the
// TLS handshake for the TLS protocols (scans are by address, so no SNI is
// offered unless configured — why SNI-requiring CDNs fail, Section 4.2),
// send the protocol's opening message, then hand each reply to the
// protocol's handler. The stream (ProbeState::send) owns the TLS framing,
// so no protocol knows whether it runs plain or behind TLS:
//   - HTTP(S): GET / with no Host header; records status, Server header and
//     the page <title> the device-type analysis groups (Section 4.3.1).
//   - SSH: read the server identification string (OS + patch level feed
//     Figure 2), send ours, and capture the host-key fingerprint from the
//     condensed KEX (host-key dedup feeds Table 2).
//   - MQTT(S): CONNECT without credentials; CONNACK 0 means the broker is
//     open, 5 (not authorized) means access control is enforced (Figure 3).
//   - AMQP(S): protocol header, then Start-Ok with the default guest
//     credentials; Tune back = open, Close 403 = access control enforced.
// CoAP runs over UDP: a confirmable GET /.well-known/core whose link-format
// payload yields the advertised resources (Section 4.3.3).
//
// Every probe path — refusal, timeout, malformed reply, success — funnels
// through ProbeState::finish, which guarantees exactly one ScanRecord per
// probe.
#include <memory>
#include <utility>

#include "proto/amqp.hpp"
#include "proto/coap.hpp"
#include "proto/http.hpp"
#include "proto/mqtt.hpp"
#include "proto/sshwire.hpp"
#include "scan/engine.hpp"
#include "scan/tls.hpp"

namespace tts::scan {

namespace {

using simnet::TcpConnection;

/// One probe in flight: the record under construction, its completion
/// latch and, for TCP probes, the client stream.
struct ProbeState {
  ScanRecord record;
  std::function<void(ScanRecord)> done;
  simnet::TcpConnectionPtr conn;  // kept so finish() can close it
  /// The TLS session of a TLS probe. Its callbacks capture this state, so
  /// finish() drops them to break the cycle.
  std::shared_ptr<TlsClientSession> tls;
  bool finished = false;

  /// Send one protocol message, framed as TLS application data when the
  /// probe runs behind TLS.
  void send(std::vector<std::uint8_t> wire) {
    if (tls)
      tls->send(std::move(wire));
    else
      conn->send(TcpConnection::Side::kClient, std::move(wire));
  }

  void finish(Outcome outcome) {
    if (finished) return;
    finished = true;
    record.outcome = outcome;
    if (conn && conn->open())
      conn->close(TcpConnection::Side::kClient);
    conn = nullptr;
    if (tls) {
      tls->drop_callbacks();
      tls = nullptr;
    }
    // Hand `done` off to the stack so everything it keeps alive dies with
    // this call instead of cycling back to the state.
    auto fn = std::move(done);
    done = nullptr;
    fn(std::move(record));
  }
};

/// Send the message the client opens with once the stream is up.
void open_dialogue(ProbeState& state, const std::string& sni) {
  switch (state.record.protocol) {
    case Protocol::kHttp:
    case Protocol::kHttps: {
      proto::HttpRequest request;
      request.host = sni;  // empty unless the campaign supplies names
      state.send(request.serialize());
      return;
    }
    case Protocol::kMqtt:
    case Protocol::kMqtts:
      state.send(proto::MqttConnect{}.serialize());  // anonymous
      return;
    case Protocol::kAmqp:
    case Protocol::kAmqps:
      state.send(proto::amqp_protocol_header());
      return;
    case Protocol::kSsh:  // the server speaks first
    case Protocol::kCoap:  // UDP: probe_coap
      return;
  }
}

void on_http_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  auto response = proto::HttpResponse::parse(wire);
  if (!response) {
    state.finish(Outcome::kMalformed);
    return;
  }
  state.record.http_status = response->status;
  state.record.http_server = response->server;
  auto title = proto::extract_title(response->body);
  state.record.http_has_title = title.has_value();
  state.record.http_title = title.value_or("");
  state.finish(Outcome::kSuccess);
}

void on_ssh_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  if (state.record.ssh_banner.empty()) {
    auto banner = proto::parse_ssh_id(wire);
    if (!banner) {
      state.finish(Outcome::kMalformed);
      return;
    }
    state.record.ssh_banner = *banner;
    state.send(proto::ssh_id_string("SSH-2.0-tts_scan_0.1 research-scan"));
    return;
  }
  auto key = proto::parse_ssh_kex_reply(wire);
  if (!key) {
    state.finish(Outcome::kMalformed);
    return;
  }
  state.record.ssh_hostkey = *key;
  state.finish(Outcome::kSuccess);
}

void on_mqtt_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  auto ack = proto::MqttConnack::parse(wire);
  if (!ack) {
    state.finish(Outcome::kMalformed);
    return;
  }
  state.record.broker_auth_required =
      ack->code != proto::MqttConnectReturn::kAccepted;
  state.finish(Outcome::kSuccess);
}

void on_amqp_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  auto frame = proto::AmqpFrame::parse(wire);
  if (!frame) {
    state.finish(Outcome::kMalformed);
    return;
  }
  switch (frame->method) {
    case proto::AmqpMethod::kStart: {
      proto::AmqpFrame start_ok;
      start_ok.method = proto::AmqpMethod::kStartOk;
      start_ok.text = "PLAIN guest guest";
      state.send(start_ok.serialize());
      return;
    }
    case proto::AmqpMethod::kTune:
      state.record.broker_auth_required = false;
      state.finish(Outcome::kSuccess);
      return;
    case proto::AmqpMethod::kClose:
      state.record.broker_auth_required = frame->close_code == 403;
      state.finish(Outcome::kSuccess);
      return;
    default:
      state.finish(Outcome::kMalformed);
      return;
  }
}

/// Hand one server message to the probe's protocol.
void on_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  // A reply still in flight when the probe finished has nobody to tell.
  if (state.finished) return;
  switch (state.record.protocol) {
    case Protocol::kHttp:
    case Protocol::kHttps:
      on_http_reply(state, wire);
      return;
    case Protocol::kSsh:
      on_ssh_reply(state, wire);
      return;
    case Protocol::kMqtt:
    case Protocol::kMqtts:
      on_mqtt_reply(state, wire);
      return;
    case Protocol::kAmqp:
    case Protocol::kAmqps:
      on_amqp_reply(state, wire);
      return;
    case Protocol::kCoap:
      return;  // UDP: probe_coap
  }
}

}  // namespace

void ScanEngine::probe_tcp(const simnet::Endpoint& src, ScanRecord base,
                           ProbeDoneFn done) {
  auto state = std::make_shared<ProbeState>();
  state->record = std::move(base);
  state->done = std::move(done);
  // The guard: a probe nothing finished by then records a timeout.
  network_.events().schedule_in(config_.probe_timeout, probe_cat_, [state] {
    state->finish(Outcome::kTimeout);
  });

  simnet::Endpoint dst{state->record.target, port_of(state->record.protocol)};
  network_.connect_tcp(
      src, dst,
      [state, sni = config_.sni](simnet::TcpConnectionPtr conn, bool refused) {
        if (!conn) {
          state->finish(refused ? Outcome::kRefused : Outcome::kTimeout);
          return;
        }
        state->conn = conn;
        conn->set_on_close(TcpConnection::Side::kClient, [state] {
          // A hang-up before the dialogue concluded is malformed — except
          // an SSH banner without a key, which still counts as a grab.
          state->finish(state->record.ssh_banner.empty()
                            ? Outcome::kMalformed
                            : Outcome::kSuccess);
        });
        auto reply = [state](std::vector<std::uint8_t> data) {
          on_reply(*state, data);
        };
        if (!is_tls(state->record.protocol)) {
          conn->set_on_data(TcpConnection::Side::kClient, std::move(reply));
          open_dialogue(*state, sni);
          return;
        }
        state->tls = TlsClientSession::create(conn, sni);
        state->tls->set_on_app_data(std::move(reply));
        state->tls->handshake([state, sni](TlsHandshakeResult result) {
          if (!result.ok) {
            state->finish(Outcome::kTlsFailed);
            return;
          }
          state->record.certificate = result.certificate;
          open_dialogue(*state, sni);
        });
      },
      config_.connect_timeout);
}

void ScanEngine::probe_coap(const simnet::Endpoint& src, ScanRecord base,
                            ProbeDoneFn done) {
  auto state = std::make_shared<ProbeState>();
  state->record = std::move(base);
  // Every completion path — reply or guard timeout — releases the
  // ephemeral reply port before reporting.
  state->done = [this, src, done = std::move(done)](ScanRecord record) {
    network_.unbind_udp(src);
    done(std::move(record));
  };

  simnet::Endpoint dst{state->record.target, port_of(Protocol::kCoap)};
  std::uint16_t message_id = next_coap_message_id_++;
  std::uint64_t token = 0x9e3779b9u ^ (message_id * 2654435761u);
  auto request = proto::CoapMessage::well_known_core(message_id, token);

  network_.bind_udp(src, [state, message_id](const simnet::Datagram& dg) {
    auto response = proto::CoapMessage::parse(dg.payload);
    if (!response || response->message_id != message_id ||
        response->code != proto::kCoapContent) {
      state->finish(Outcome::kMalformed);
      return;
    }
    std::string payload(response->payload.begin(), response->payload.end());
    state->record.coap_resources = proto::parse_link_format(payload);
    state->finish(Outcome::kSuccess);
  });
  network_.send_udp(src, dst, request.serialize());

  // UDP silence (no listener, lost packet, filtered) = timeout.
  network_.events().schedule_in(config_.probe_timeout, probe_cat_, [state] {
    state->finish(Outcome::kTimeout);
  });
}

}  // namespace tts::scan
