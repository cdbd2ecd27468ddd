#include "scan/tls.hpp"

namespace tts::scan {

using simnet::TcpConnection;

std::shared_ptr<TlsClientSession> TlsClientSession::create(
    simnet::TcpConnectionPtr conn, std::string sni) {
  auto session = std::shared_ptr<TlsClientSession>(
      new TlsClientSession(std::move(conn), std::move(sni)));
  auto weak = std::weak_ptr<TlsClientSession>(session);
  session->conn_->set_on_data(TcpConnection::Side::kClient,
                              [weak](std::vector<std::uint8_t> data) {
                                if (auto self = weak.lock())
                                  self->on_record(std::move(data));
                              });
  return session;
}

void TlsClientSession::handshake(HandshakeFn on_done) {
  on_handshake_ = std::move(on_done);
  proto::ClientHello hello;
  hello.sni = sni_;
  conn_->send(TcpConnection::Side::kClient, proto::encode(hello));
}

void TlsClientSession::send(std::vector<std::uint8_t> data) {
  conn_->send(TcpConnection::Side::kClient, proto::encode_app_data(data));
}

void TlsClientSession::on_record(std::vector<std::uint8_t> data) {
  auto msg = proto::decode(data);
  if (!msg) return;  // garbage record: ignore, the probe timeout handles it
  switch (msg->kind) {
    case proto::TlsMessage::Kind::kServerHello:
      if (!established_ && on_handshake_) {
        established_ = true;
        TlsHandshakeResult result;
        result.ok = true;
        result.certificate = msg->server_hello.cert;
        auto fn = std::move(on_handshake_);
        on_handshake_ = nullptr;
        fn(result);
      }
      break;
    case proto::TlsMessage::Kind::kAlert:
      if (!established_ && on_handshake_) {
        TlsHandshakeResult result;
        result.ok = false;
        result.alert = msg->alert.description;
        auto fn = std::move(on_handshake_);
        on_handshake_ = nullptr;
        fn(result);
      }
      break;
    case proto::TlsMessage::Kind::kAppData:
      if (established_ && on_app_data_) on_app_data_(std::move(msg->app_data));
      break;
    case proto::TlsMessage::Kind::kClientHello:
      break;  // a client never receives a ClientHello; drop
  }
}

}  // namespace tts::scan
