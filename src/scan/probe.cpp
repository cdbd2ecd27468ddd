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
// through ProbeState::finish, which guarantees exactly one outcome per
// probe. Most probes reach nothing, so a probe costs little until it makes
// contact: its state is a reused slot of the engine's probe slab, every
// callback captures a 16-byte ProbeRef (engine, slot, generation) that
// stays inline in std::function and util::Task, and a callback whose probe
// has finished finds a newer generation and does nothing. A TCP probe arms
// its guard only once connected, since a connect that never completes
// reports its own timeout; the ScanRecord is built only at contact, and
// any probe without a success is only tallied.
#include <memory>
#include <type_traits>
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

ScanRecord& ProbeState::open_record() {
  record = std::make_unique<ScanRecord>();
  ScanRecord& r = *record;
  r.dataset = engine->config_.dataset;
  r.protocol = protocol();
  r.target = intent.target;
  r.at = at;
  return r;
}

void ProbeState::send(std::vector<std::uint8_t> wire) {
  if (tls)
    tls->send(std::move(wire));
  else
    conn->send(TcpConnection::Side::kClient, std::move(wire));
}

void ProbeState::finish(Outcome outcome) {
  if (conn && conn->open()) conn->close(TcpConnection::Side::kClient);
  engine->complete_probe(*this, outcome);
}

const std::string& ProbeState::sni() const { return engine->config_.sni; }

ProbeState* ScanEngine::ProbeRef::get() const {
  ProbeState& probe = engine->probe_slot(index);
  return probe.generation == generation ? &probe : nullptr;
}

namespace {

/// Send the message the client opens with once the stream is up.
void open_dialogue(ProbeState& state) {
  switch (state.protocol()) {
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
  state.record->http_status = response->status;
  state.record->http_server = response->server;
  auto title = proto::extract_title(response->body);
  state.record->http_has_title = title.has_value();
  state.record->http_title = title.value_or("");
  state.finish(Outcome::kSuccess);
}

void on_ssh_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  if (state.record->ssh_banner.empty()) {
    auto banner = proto::parse_ssh_id(wire);
    if (!banner) {
      state.finish(Outcome::kMalformed);
      return;
    }
    state.record->ssh_banner = *banner;
    state.send(proto::ssh_id_string("SSH-2.0-tts_scan_0.1 research-scan"));
    return;
  }
  auto key = proto::parse_ssh_kex_reply(wire);
  if (!key) {
    state.finish(Outcome::kMalformed);
    return;
  }
  state.record->ssh_hostkey = *key;
  state.finish(Outcome::kSuccess);
}

void on_mqtt_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  auto ack = proto::MqttConnack::parse(wire);
  if (!ack) {
    state.finish(Outcome::kMalformed);
    return;
  }
  state.record->broker_auth_required =
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
      state.record->broker_auth_required = false;
      state.finish(Outcome::kSuccess);
      return;
    case proto::AmqpMethod::kClose:
      state.record->broker_auth_required = frame->close_code == 403;
      state.finish(Outcome::kSuccess);
      return;
    default:
      state.finish(Outcome::kMalformed);
      return;
  }
}

/// Hand one server message to the probe's protocol.
void on_reply(ProbeState& state, std::span<const std::uint8_t> wire) {
  switch (state.protocol()) {
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

/// Whether std::function keeps a callable in its local buffer, so binding
/// or copying it never allocates: 16 trivially copyable bytes (libstdc++).
template <typename F>
constexpr bool stays_local() {
  return sizeof(F) <= 16 && std::is_trivially_copyable_v<F>;
}
}  // namespace

void ScanEngine::launch_probe(const ScanIntent& intent, simnet::SimTime at) {
  // A target's protocol chain runs in Protocol order: the chain position
  // is the protocol.
  auto proto = static_cast<Protocol>(intent.chain_pos);
  probes_launched_.inc();
  launched_by_proto_[static_cast<std::size_t>(proto)].inc();

  ProbeState& probe = acquire_probe();
  probe.intent = intent;
  probe.at = at;
  probe.src_port =
      static_cast<std::uint16_t>(1024 + (next_ephemeral_++ % 60000));
  if (config_.tracer)
    probe.span = config_.tracer->open(
        span_ids_[static_cast<std::size_t>(proto)], intent.trace);
  ProbeRef ref{this, probe.index, probe.generation};
  static_assert(stays_local<ProbeRef>());
  if (proto == Protocol::kCoap)
    probe_coap(probe, ref);
  else
    probe_tcp(probe, ref);
}

void ScanEngine::complete_probe(ProbeState& probe, Outcome outcome) {
  // Every completion path of a CoAP probe — reply or guard timeout —
  // releases its ephemeral reply port before reporting.
  if (probe.protocol() == Protocol::kCoap)
    network_.unbind_udp({config_.scanner_address, probe.src_port});
  probes_completed_.inc();
  completed_by_proto_[static_cast<std::size_t>(probe.protocol())].inc();
  probe_rtt_.record(network_.now() - probe.at);
  if (config_.tracer) config_.tracer->close(probe.span);
  finish_probe(probe.intent, outcome, probe.record.get());
  release_probe(probe);
}

ProbeState& ScanEngine::acquire_probe() {
  if (free_probe_ == kNoProbe) {
    auto base = static_cast<std::uint32_t>(probe_chunks_.size()) * kProbeChunk;
    auto& chunk = probe_chunks_.emplace_back(
        std::make_unique<ProbeState[]>(kProbeChunk));
    for (std::uint32_t i = kProbeChunk; i-- > 0;) {
      chunk[i].engine = this;
      chunk[i].index = base + i;
      chunk[i].next_free = free_probe_;
      free_probe_ = base + i;
    }
  }
  ProbeState& probe = probe_slot(free_probe_);
  free_probe_ = probe.next_free;
  return probe;
}

void ScanEngine::release_probe(ProbeState& probe) {
  ++probe.generation;  // every callback still holding a ref goes stale
  probe.conn = nullptr;
  probe.tls = nullptr;
  probe.record.reset();
  probe.next_free = free_probe_;
  free_probe_ = probe.index;
}

void ScanEngine::arm_guard(ProbeRef ref, simnet::SimTime deadline) {
  // A probe that finished first has left its slot, so its guard finds a
  // newer generation there (or a vacant slot) and does nothing.
  auto guard = [ref] {
    if (ProbeState* live = ref.get()) live->finish(Outcome::kTimeout);
  };
  static_assert(simnet::EventQueue::Callback::fits_inline<decltype(guard)>());
  network_.events().schedule_at(deadline, probe_cat_, std::move(guard));
}

void ScanEngine::probe_tcp(ProbeState& probe, ProbeRef ref) {
  simnet::Endpoint src{config_.scanner_address, probe.src_port};
  simnet::Endpoint dst{probe.intent.target, port_of(probe.protocol())};
  // No guard yet: the connect always reports — connected, refused, or
  // timed out at connect_timeout, which is within the probe's deadline.
  auto connected = [ref](simnet::TcpConnectionPtr conn, bool refused) {
    ProbeState* state = ref.get();
    if (!state) return;
    ScanEngine& engine = *ref.engine;
    simnet::SimTime deadline = state->at + kProbeTimeout;
    // A report at or after the deadline comes too late, whatever it says.
    bool late = engine.network_.now() >= deadline;
    if (!conn) {
      state->finish(refused && !late ? Outcome::kRefused : Outcome::kTimeout);
      return;
    }
    state->conn = conn;
    if (late) {
      state->finish(Outcome::kTimeout);
      return;
    }
    engine.arm_guard(ref, deadline);
    state->open_record();
    auto closed = [ref] {
      // A hang-up before the dialogue concluded is malformed — except
      // an SSH banner without a key, which still counts as a grab.
      if (ProbeState* live = ref.get())
        live->finish(live->record->ssh_banner.empty() ? Outcome::kMalformed
                                                      : Outcome::kSuccess);
    };
    static_assert(stays_local<decltype(closed)>());
    conn->set_on_close(TcpConnection::Side::kClient, closed);
    auto reply = [ref](std::vector<std::uint8_t> data) {
      if (ProbeState* live = ref.get()) on_reply(*live, data);
    };
    static_assert(stays_local<decltype(reply)>());
    if (!is_tls(state->protocol())) {
      conn->set_on_data(TcpConnection::Side::kClient, reply);
      open_dialogue(*state);
      return;
    }
    state->tls = TlsClientSession::create(conn, state->sni());
    state->tls->set_on_app_data(reply);
    auto handshaken = [ref](TlsHandshakeResult result) {
      ProbeState* live = ref.get();
      if (!live) return;
      if (!result.ok) {
        live->finish(Outcome::kTlsFailed);
        return;
      }
      live->record->certificate = std::move(result.certificate);
      open_dialogue(*live);
    };
    static_assert(
        TlsClientSession::HandshakeFn::fits_inline<decltype(handshaken)>());
    state->tls->handshake(std::move(handshaken));
  };
  static_assert(simnet::ConnectResult::fits_inline<decltype(connected)>());
  network_.connect_tcp(src, dst, std::move(connected),
                       config_.connect_timeout);
}

void ScanEngine::probe_coap(ProbeState& probe, ProbeRef ref) {
  simnet::Endpoint src{config_.scanner_address, probe.src_port};
  simnet::Endpoint dst{probe.intent.target, port_of(Protocol::kCoap)};
  std::uint16_t message_id = next_coap_message_id_++;
  std::uint64_t token = 0x9e3779b9u ^ (message_id * 2654435761u);
  probe.coap_message_id = message_id;

  auto answered = [ref](const simnet::Datagram& dg) {
    ProbeState* state = ref.get();
    if (!state) return;
    auto response = proto::CoapMessage::parse(dg.payload);
    if (!response || response->message_id != state->coap_message_id ||
        response->code != proto::kCoapContent) {
      state->finish(Outcome::kMalformed);
      return;
    }
    std::string_view links(
        reinterpret_cast<const char*>(response->payload.data()),
        response->payload.size());
    state->open_record().coap_resources = proto::parse_link_format(links);
    state->finish(Outcome::kSuccess);
  };
  static_assert(stays_local<decltype(answered)>());
  network_.bind_udp(src, answered);
  network_.send_udp(
      src, dst, proto::CoapMessage::well_known_core_wire(message_id, token));
  // UDP silence (no listener, lost packet, filtered) = timeout.
  arm_guard(ref, probe.at + kProbeTimeout);
}

}  // namespace tts::scan
