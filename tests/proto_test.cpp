#include <gtest/gtest.h>

#include "proto/amqp.hpp"
#include "proto/coap.hpp"
#include "proto/http.hpp"
#include "proto/mqtt.hpp"
#include "proto/sshwire.hpp"
#include "proto/tlslite.hpp"
#include "util/rng.hpp"

namespace tts::proto {
namespace {

// -------------------------------------------------------------------- HTTP

TEST(Http, RequestRoundTrip) {
  HttpRequest req;
  req.target = "/index.html";
  req.host = "example.com";
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->target, "/index.html");
  EXPECT_EQ(parsed->host, "example.com");
}

TEST(Http, RequestWithoutHostHeader) {
  HttpRequest req;  // host empty -> header omitted (IP-based scanning)
  auto wire = req.serialize();
  std::string text(wire.begin(), wire.end());
  EXPECT_EQ(text.find("Host:"), std::string::npos);
  auto parsed = HttpRequest::parse(wire);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->host.empty());
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.server = "nginx";
  resp.body = html_page("FRITZ!Box");
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->server, "nginx");
  EXPECT_EQ(extract_title(parsed->body).value_or(""), "FRITZ!Box");
}

// The exact bytes a device answers the HTTP scan with, with and without
// a Server header, and a body length of several digits.
TEST(Http, ResponseBytesArePinned) {
  auto text = [](const HttpResponse& resp) {
    auto wire = resp.serialize();
    return std::string(wire.begin(), wire.end());
  };
  HttpResponse with_server;
  with_server.status = 404;
  with_server.server = "lighttpd/1.4.35";
  with_server.body = "hello";
  EXPECT_EQ(text(with_server),
            "HTTP/1.1 404 Not Found\r\n"
            "Server: lighttpd/1.4.35\r\n"
            "Content-Type: text/html; charset=utf-8\r\n"
            "Content-Length: 5\r\n"
            "Connection: close\r\n"
            "\r\n"
            "hello");
  HttpResponse bare;
  bare.status = 503;
  EXPECT_EQ(text(bare),
            "HTTP/1.1 503 Service Unavailable\r\n"
            "Content-Type: text/html; charset=utf-8\r\n"
            "Content-Length: 0\r\n"
            "Connection: close\r\n"
            "\r\n");
  HttpResponse long_body;
  long_body.status = 418;
  long_body.body = std::string(12345, 'x');
  EXPECT_EQ(text(long_body),
            "HTTP/1.1 418 Unknown\r\n"
            "Content-Type: text/html; charset=utf-8\r\n"
            "Content-Length: 12345\r\n"
            "Connection: close\r\n"
            "\r\n" +
                long_body.body);
}

TEST(Http, ParseRejectsGarbage) {
  auto garbage = std::vector<std::uint8_t>{'x', 'y', 'z'};
  EXPECT_FALSE(HttpRequest::parse(garbage));
  EXPECT_FALSE(HttpResponse::parse(garbage));
  std::string no_version = "GET /\r\n\r\n";
  EXPECT_FALSE(HttpRequest::parse(
      std::vector<std::uint8_t>(no_version.begin(), no_version.end())));
}

TEST(Http, TitleExtraction) {
  EXPECT_EQ(extract_title("<html><title>Hi</title></html>").value_or(""),
            "Hi");
  EXPECT_EQ(extract_title("<TITLE>Case</TITLE>").value_or(""), "Case");
  EXPECT_FALSE(extract_title("<html><body>none</body></html>"));
  EXPECT_FALSE(extract_title("<title>unterminated"));
  EXPECT_FALSE(extract_title(html_page("")));  // empty title -> no element
}

// --------------------------------------------------------------------- TLS

TEST(Tls, HandshakeRoundTrip) {
  ClientHello hello;
  hello.sni = "example.com";
  auto msg = decode(encode(hello));
  ASSERT_TRUE(msg);
  ASSERT_EQ(msg->kind, TlsMessage::Kind::kClientHello);
  EXPECT_EQ(msg->client_hello.sni, "example.com");

  ServerHello server;
  server.cert.fingerprint = 0xabcdef;
  server.cert.subject = "CN=test";
  server.cert.self_signed = true;
  server.cert.not_before = 100;
  server.cert.not_after = 200;
  auto smsg = decode(encode(server));
  ASSERT_TRUE(smsg);
  ASSERT_EQ(smsg->kind, TlsMessage::Kind::kServerHello);
  EXPECT_EQ(smsg->server_hello.cert.fingerprint, 0xabcdefu);
  EXPECT_EQ(smsg->server_hello.cert.subject, "CN=test");
  EXPECT_TRUE(smsg->server_hello.cert.self_signed);

  auto amsg = decode(encode(Alert{2, kAlertUnrecognizedName}));
  ASSERT_TRUE(amsg);
  ASSERT_EQ(amsg->kind, TlsMessage::Kind::kAlert);
  EXPECT_EQ(amsg->alert.description, kAlertUnrecognizedName);
}

TEST(Tls, AppDataRoundTrip) {
  std::vector<std::uint8_t> payload = {1, 2, 3, 4};
  auto msg = decode(encode_app_data(payload));
  ASSERT_TRUE(msg);
  ASSERT_EQ(msg->kind, TlsMessage::Kind::kAppData);
  EXPECT_EQ(msg->app_data, payload);
}

TEST(Tls, DecodeRejectsMalformed) {
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{}));
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{0x16}));
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{0x99, 0, 1, 0}));
  // Truncated body.
  EXPECT_FALSE(decode(std::vector<std::uint8_t>{0x16, 0x00, 0x10, 0x01}));
}

TEST(Tls, CertificateValidity) {
  Certificate cert;
  cert.not_before = 100;
  cert.not_after = 200;
  EXPECT_FALSE(cert.valid_at(99));
  EXPECT_TRUE(cert.valid_at(100));
  EXPECT_TRUE(cert.valid_at(200));
  EXPECT_FALSE(cert.valid_at(201));
}

// -------------------------------------------------------------------- MQTT

TEST(Mqtt, ConnectRoundTrip) {
  MqttConnect connect;
  connect.client_id = "probe-1";
  connect.username = "user";
  connect.password = "pass";
  auto parsed = MqttConnect::parse(connect.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->client_id, "probe-1");
  EXPECT_EQ(parsed->username, "user");
  EXPECT_EQ(parsed->password, "pass");
}

TEST(Mqtt, AnonymousConnect) {
  MqttConnect connect;
  auto parsed = MqttConnect::parse(connect.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->username.empty());
  EXPECT_TRUE(parsed->password.empty());
}

TEST(Mqtt, ConnackRoundTrip) {
  for (auto code : {MqttConnectReturn::kAccepted,
                    MqttConnectReturn::kNotAuthorized}) {
    MqttConnack ack;
    ack.code = code;
    auto parsed = MqttConnack::parse(ack.serialize());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->code, code);
  }
}

TEST(Mqtt, VarintRoundTrip) {
  for (std::uint32_t v : {0u, 1u, 127u, 128u, 16383u, 16384u, 2097151u}) {
    std::vector<std::uint8_t> out;
    mqtt_write_varint(out, v);
    auto back = mqtt_read_varint(out);
    ASSERT_TRUE(back);
    EXPECT_EQ(back->first, v);
    EXPECT_EQ(back->second, out.size());
  }
}

TEST(Mqtt, ParseRejectsMalformed) {
  EXPECT_FALSE(MqttConnect::parse(std::vector<std::uint8_t>{}));
  EXPECT_FALSE(MqttConnect::parse(std::vector<std::uint8_t>{0x20, 0x02}));
  EXPECT_FALSE(MqttConnack::parse(std::vector<std::uint8_t>{0x20, 0x02, 0}));
  EXPECT_FALSE(MqttConnack::parse(
      std::vector<std::uint8_t>{0x20, 0x02, 0, 99}));  // bad return code
  // Wrong protocol name.
  MqttConnect c;
  auto wire = c.serialize();
  wire[4] = 'X';
  EXPECT_FALSE(MqttConnect::parse(wire));
}

// -------------------------------------------------------------------- AMQP

TEST(Amqp, ProtocolHeader) {
  auto header = amqp_protocol_header();
  EXPECT_TRUE(is_amqp_protocol_header(header));
  EXPECT_FALSE(is_amqp_protocol_header(std::vector<std::uint8_t>{'A', 'M'}));
  auto wrong = header;
  wrong[7] = 0;
  EXPECT_FALSE(is_amqp_protocol_header(wrong));
}

TEST(Amqp, FrameRoundTrip) {
  AmqpFrame close;
  close.method = AmqpMethod::kClose;
  close.close_code = 403;
  close.text = "ACCESS_REFUSED";
  auto parsed = AmqpFrame::parse(close.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->method, AmqpMethod::kClose);
  EXPECT_EQ(parsed->close_code, 403);
  EXPECT_EQ(parsed->text, "ACCESS_REFUSED");
}

TEST(Amqp, FrameRejectsCorruption) {
  AmqpFrame f;
  auto wire = f.serialize();
  auto bad_end = wire;
  bad_end.back() = 0x00;  // missing frame-end octet
  EXPECT_FALSE(AmqpFrame::parse(bad_end));
  auto bad_type = wire;
  bad_type[0] = 9;
  EXPECT_FALSE(AmqpFrame::parse(bad_type));
  EXPECT_FALSE(AmqpFrame::parse(std::vector<std::uint8_t>{1, 2}));
}

// -------------------------------------------------------------------- CoAP

TEST(Coap, WellKnownCoreRequest) {
  auto req = CoapMessage::well_known_core(42, 0xdeadbeef);
  auto parsed = CoapMessage::parse(req.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, CoapType::kConfirmable);
  EXPECT_EQ(parsed->code, kCoapGet);
  EXPECT_EQ(parsed->message_id, 42);
  ASSERT_EQ(parsed->uri_path.size(), 2u);
  EXPECT_EQ(parsed->uri_path[0], ".well-known");
  EXPECT_EQ(parsed->uri_path[1], "core");
  EXPECT_EQ(parsed->token.size, 4u);
  EXPECT_EQ(parsed->token, req.token);
  // The scanner's one-pass encoding writes exactly these bytes.
  for (std::uint16_t id : {0, 1, 42, 0xffff})
    for (std::uint64_t token : {0ULL, 0xdeadbeefULL, ~0ULL})
      EXPECT_EQ(CoapMessage::well_known_core_wire(id, token),
                CoapMessage::well_known_core(id, token).serialize())
          << id << " " << token;
}

TEST(Coap, TokenHoldsUpToEightBytes) {
  CoapMessage msg;
  msg.token = {.bytes = {1, 2, 3, 4, 5, 6, 7, 8}, .size = 8};
  auto wire = msg.serialize();
  auto parsed = CoapMessage::parse(wire);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->token, msg.token);
  // Tokens compare by their first `size` bytes only.
  CoapToken shorter = msg.token;
  shorter.size = 7;
  EXPECT_NE(shorter, msg.token);
  shorter.bytes[7] = 0;
  EXPECT_EQ(shorter, (CoapToken{.bytes = {1, 2, 3, 4, 5, 6, 7, 9}, .size = 7}));
  // RFC 7252: TKL 9-15 are reserved and a message carrying one is rejected.
  wire[0] = static_cast<std::uint8_t>((wire[0] & 0xf0) | 9);
  wire.push_back(0);
  EXPECT_FALSE(CoapMessage::parse(wire));
}

TEST(Coap, ResponseWithPayloadRoundTrip) {
  CoapMessage resp;
  resp.type = CoapType::kAck;
  resp.code = kCoapContent;
  resp.message_id = 7;
  resp.token = {.bytes = {1, 2, 3, 4}, .size = 4};
  std::string links = link_format({"/castDeviceSearch", "/qlink/ping"});
  resp.payload.assign(links.begin(), links.end());
  auto parsed = CoapMessage::parse(resp.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->code, kCoapContent);
  EXPECT_EQ(parsed->token, resp.token);
  std::string payload(parsed->payload.begin(), parsed->payload.end());
  auto resources = parse_link_format(payload);
  ASSERT_EQ(resources.size(), 2u);
  EXPECT_EQ(resources[0], "/castDeviceSearch");
  EXPECT_EQ(resources[1], "/qlink/ping");
}

TEST(Coap, LongUriSegmentsUseExtendedLength) {
  CoapMessage msg;
  msg.code = kCoapGet;
  msg.uri_path = {"a-rather-long-uri-segment-over-13-bytes", "x"};
  auto parsed = CoapMessage::parse(msg.serialize());
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->uri_path, msg.uri_path);
}

TEST(Coap, ParseRejectsMalformed) {
  EXPECT_FALSE(CoapMessage::parse(std::vector<std::uint8_t>{}));
  // Version 2 is invalid.
  EXPECT_FALSE(CoapMessage::parse(std::vector<std::uint8_t>{0x80, 1, 0, 0}));
  // Token length 15 is reserved.
  EXPECT_FALSE(CoapMessage::parse(std::vector<std::uint8_t>{0x4F, 1, 0, 0}));
}

TEST(Coap, LinkFormatEdgeCases) {
  EXPECT_EQ(link_format({}), "");
  EXPECT_TRUE(parse_link_format("").empty());
  EXPECT_TRUE(parse_link_format("not-a-link").empty());
  auto r = parse_link_format("</a>;rt=\"x\",</b>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "/a");
  EXPECT_EQ(r[1], "/b");
}

// --------------------------------------------------------------------- SSH

TEST(Ssh, IdStringRoundTrip) {
  auto wire = ssh_id_string("SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3");
  auto parsed = parse_ssh_id(wire);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(*parsed, "SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3");
}

TEST(Ssh, ParseRejectsNonSsh) {
  auto http = std::vector<std::uint8_t>{'H', 'T', 'T', 'P', '\r', '\n'};
  EXPECT_FALSE(parse_ssh_id(http));
  std::string too_long = "SSH-2.0-" + std::string(300, 'x') + "\r\n";
  EXPECT_FALSE(parse_ssh_id(
      std::vector<std::uint8_t>(too_long.begin(), too_long.end())));
}

TEST(Ssh, OsExtractionMatchesPaperRules) {
  EXPECT_EQ(ssh_os_from_banner("SSH-2.0-OpenSSH_9.2p1 Debian-2+deb12u3"),
            "Debian");
  EXPECT_EQ(ssh_os_from_banner("SSH-2.0-OpenSSH_8.9p1 Ubuntu-3ubuntu0.10"),
            "Ubuntu");
  EXPECT_EQ(ssh_os_from_banner("SSH-2.0-OpenSSH_9.2p1 Raspbian-2+deb12u1"),
            "Raspbian");
  EXPECT_EQ(ssh_os_from_banner("SSH-2.0-OpenSSH_9.6 FreeBSD-20240104"),
            "FreeBSD");
  // No OS hint -> other/unknown.
  EXPECT_EQ(ssh_os_from_banner("SSH-2.0-dropbear_2022.83"), "");
  EXPECT_EQ(ssh_os_from_banner("SSH-2.0-OpenSSH_9.7"), "");
  EXPECT_EQ(ssh_os_from_banner("garbage"), "");
}

TEST(Ssh, SoftwareExtraction) {
  EXPECT_EQ(ssh_software("SSH-2.0-OpenSSH_9.2p1 Debian-2"),
            "OpenSSH_9.2p1 Debian-2");
  EXPECT_EQ(ssh_software("SSH-2.0-dropbear_2022.83"), "dropbear_2022.83");
  EXPECT_EQ(ssh_software("nope"), "");
}

TEST(Ssh, KexReplyRoundTrip) {
  auto wire = ssh_kex_reply(0x1122334455667788ULL);
  auto key = parse_ssh_kex_reply(wire);
  ASSERT_TRUE(key);
  EXPECT_EQ(*key, 0x1122334455667788ULL);
  EXPECT_FALSE(parse_ssh_kex_reply(std::vector<std::uint8_t>{1, 2, 3}));
  wire[0] ^= 0xff;  // corrupt the magic
  EXPECT_FALSE(parse_ssh_kex_reply(wire));
}

}  // namespace
}  // namespace tts::proto
