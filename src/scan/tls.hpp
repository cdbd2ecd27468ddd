// Client-side TLS session of the TLS probes (HTTPS, MQTTS, AMQPS).
//
// Wraps a TcpConnection: performs the ClientHello/ServerHello exchange
// (scans are by IP, so no SNI is offered unless configured — which is why
// SNI-requiring CDNs fail, Section 4.2), then transports application data.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "proto/tlslite.hpp"
#include "simnet/network.hpp"

namespace tts::scan {

struct TlsHandshakeResult {
  bool ok = false;
  proto::Certificate certificate;  // valid when ok
  std::uint8_t alert = 0;          // alert description when !ok
};

class TlsClientSession
    : public std::enable_shared_from_this<TlsClientSession> {
 public:
  using HandshakeFn = std::function<void(TlsHandshakeResult)>;
  using AppDataFn = std::function<void(std::vector<std::uint8_t>)>;

  static std::shared_ptr<TlsClientSession> create(
      simnet::TcpConnectionPtr conn, std::string sni = {});

  /// Send the ClientHello; `on_done` fires with the handshake outcome.
  void handshake(HandshakeFn on_done);

  /// Send application data (only after a successful handshake).
  void send(std::vector<std::uint8_t> data);

  /// Receive unwrapped application data.
  void set_on_app_data(AppDataFn fn) { on_app_data_ = std::move(fn); }

  /// Release both user callbacks. The probe's closures capture its state,
  /// which owns the session: a shared_ptr cycle. The probe calls this from
  /// its finish path so a completed or timed-out session can actually be
  /// destroyed.
  void drop_callbacks() {
    on_handshake_ = nullptr;
    on_app_data_ = nullptr;
  }

 private:
  TlsClientSession(simnet::TcpConnectionPtr conn, std::string sni)
      : conn_(std::move(conn)), sni_(std::move(sni)) {}

  void on_record(std::vector<std::uint8_t> data);

  simnet::TcpConnectionPtr conn_;
  std::string sni_;
  bool established_ = false;
  HandshakeFn on_handshake_;
  AppDataFn on_app_data_;
};

}  // namespace tts::scan
