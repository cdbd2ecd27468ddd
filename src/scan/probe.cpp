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
// probe. A probe's state is its only allocation at launch: the guard, the
// connect result and the stream handlers all capture just its pointer.
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

using simnet::TcpConnection;

/// One probe in flight: the intent it launched, the record under
/// construction, its completion latch and, for TCP probes, the client
/// stream.
struct ProbeState {
  ScanEngine* engine = nullptr;
  ScanIntent intent;
  obs::Tracer::SpanId span = obs::Tracer::kNoSpan;  // "probe/<proto>"
  simnet::Endpoint src;
  ScanRecord record;
  simnet::TcpConnectionPtr conn;  // kept so finish() can close it
  /// The TLS session of a TLS probe. Its callbacks capture this state, so
  /// finish() drops them to break the cycle.
  std::shared_ptr<TlsClientSession> tls;
  /// The message id a CoAP probe's reply must echo.
  std::uint16_t coap_message_id = 0;
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
    engine->complete_probe(*this);
  }

  const std::string& sni() const { return engine->config_.sni; }
};

namespace {

/// Send the message the client opens with once the stream is up.
void open_dialogue(ProbeState& state) {
  switch (state.record.protocol) {
    case Protocol::kHttp:
    case Protocol::kHttps: {
      proto::HttpRequest request;
      request.host = state.sni();  // empty unless the campaign names hosts
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

void ScanEngine::launch_probe(const ScanIntent& intent, simnet::SimTime at) {
  // A target's protocol chain runs in Protocol order: the chain position
  // is the protocol.
  auto proto = static_cast<Protocol>(intent.chain_pos);
  probes_launched_.inc();
  launched_by_proto_[static_cast<std::size_t>(proto)].inc();
  auto src_port =
      static_cast<std::uint16_t>(1024 + (next_ephemeral_++ % 60000));

  auto probe = std::make_shared<ProbeState>();
  probe->engine = this;
  probe->intent = intent;
  probe->src = simnet::Endpoint{config_.scanner_address, src_port};
  probe->record.dataset = intent.dataset;
  probe->record.protocol = proto;
  probe->record.target = intent.target;
  probe->record.at = at;
  if (config_.tracer)
    probe->span = config_.tracer->open(
        span_ids_[static_cast<std::size_t>(proto)], intent.trace);
  if (proto == Protocol::kCoap)
    probe_coap(probe);
  else
    probe_tcp(probe);
}

void ScanEngine::complete_probe(ProbeState& probe) {
  // Every completion path of a CoAP probe — reply or guard timeout —
  // releases its ephemeral reply port before reporting.
  if (probe.record.protocol == Protocol::kCoap)
    network_.unbind_udp(probe.src);
  probes_completed_.inc();
  completed_by_proto_[static_cast<std::size_t>(probe.record.protocol)].inc();
  probe_rtt_.record(network_.now() - probe.record.at);
  if (config_.tracer) config_.tracer->close(probe.span);
  finish_probe(probe.intent, std::move(probe.record));
}

void ScanEngine::probe_tcp(const std::shared_ptr<ProbeState>& probe) {
  // The guard: a probe nothing finished by then records a timeout.
  network_.events().schedule_in(kProbeTimeout, probe_cat_, [probe] {
    probe->finish(Outcome::kTimeout);
  });

  simnet::Endpoint dst{probe->record.target, port_of(probe->record.protocol)};
  auto connected = [probe](simnet::TcpConnectionPtr conn, bool refused) {
    if (!conn) {
      probe->finish(refused ? Outcome::kRefused : Outcome::kTimeout);
      return;
    }
    probe->conn = conn;
    conn->set_on_close(TcpConnection::Side::kClient, [probe] {
      // A hang-up before the dialogue concluded is malformed — except
      // an SSH banner without a key, which still counts as a grab.
      probe->finish(probe->record.ssh_banner.empty()
                        ? Outcome::kMalformed
                        : Outcome::kSuccess);
    });
    auto reply = [probe](std::vector<std::uint8_t> data) {
      on_reply(*probe, data);
    };
    if (!is_tls(probe->record.protocol)) {
      conn->set_on_data(TcpConnection::Side::kClient, std::move(reply));
      open_dialogue(*probe);
      return;
    }
    probe->tls = TlsClientSession::create(conn, probe->sni());
    probe->tls->set_on_app_data(std::move(reply));
    probe->tls->handshake([probe](TlsHandshakeResult result) {
      if (!result.ok) {
        probe->finish(Outcome::kTlsFailed);
        return;
      }
      probe->record.certificate = std::move(result.certificate);
      open_dialogue(*probe);
    });
  };
  static_assert(simnet::ConnectResult::fits_inline<decltype(connected)>());
  network_.connect_tcp(probe->src, dst, std::move(connected),
                       config_.connect_timeout);
}

void ScanEngine::probe_coap(const std::shared_ptr<ProbeState>& probe) {
  simnet::Endpoint dst{probe->record.target, port_of(Protocol::kCoap)};
  std::uint16_t message_id = next_coap_message_id_++;
  std::uint64_t token = 0x9e3779b9u ^ (message_id * 2654435761u);
  probe->coap_message_id = message_id;

  // The handler holds a raw pointer, so std::function keeps it inline and
  // no delivery copies it to the heap. The guard below owns the state;
  // every finish() path runs complete_probe, which unbinds this handler
  // before the guard can let the state die.
  ProbeState* state = probe.get();
  network_.bind_udp(probe->src, [state](const simnet::Datagram& dg) {
    auto response = proto::CoapMessage::parse(dg.payload);
    if (!response || response->message_id != state->coap_message_id ||
        response->code != proto::kCoapContent) {
      state->finish(Outcome::kMalformed);
      return;
    }
    std::string payload(response->payload.begin(), response->payload.end());
    state->record.coap_resources = proto::parse_link_format(payload);
    state->finish(Outcome::kSuccess);
  });
  network_.send_udp(
      probe->src, dst,
      proto::CoapMessage::well_known_core_wire(message_id, token));

  // UDP silence (no listener, lost packet, filtered) = timeout.
  network_.events().schedule_in(kProbeTimeout, probe_cat_, [probe] {
    probe->finish(Outcome::kTimeout);
  });
}

}  // namespace tts::scan
