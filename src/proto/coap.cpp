#include "proto/coap.hpp"

#include <algorithm>

#include "net/packet.hpp"

namespace tts::proto {

std::vector<std::uint8_t> CoapMessage::serialize() const {
  net::PacketWriter w;
  w.u8(static_cast<std::uint8_t>(
      (1u << 6) |  // version 1
      (static_cast<std::uint8_t>(type) << 4) |
      (token.size & 0x0f)));
  w.u8(code);
  w.u16(message_id);
  w.bytes(token.view());

  // Options must be emitted in ascending option-number order with delta
  // encoding; we only emit Uri-Path (11) then Content-Format (12).
  std::uint16_t last_option = 0;
  auto emit_option = [&](std::uint16_t number,
                         std::span<const std::uint8_t> value) {
    std::uint16_t delta = number - last_option;
    last_option = number;
    std::uint8_t delta_nibble = delta < 13 ? static_cast<std::uint8_t>(delta)
                                           : 13;
    std::uint8_t len_nibble =
        value.size() < 13 ? static_cast<std::uint8_t>(value.size()) : 13;
    w.u8(static_cast<std::uint8_t>((delta_nibble << 4) | len_nibble));
    if (delta_nibble == 13) w.u8(static_cast<std::uint8_t>(delta - 13));
    if (len_nibble == 13) w.u8(static_cast<std::uint8_t>(value.size() - 13));
    w.bytes(value);
  };

  for (const auto& segment : uri_path) {
    emit_option(kOptionUriPath,
                std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(segment.data()),
                    segment.size()));
  }
  if (code == kCoapContent) {
    const std::uint8_t cf = kContentFormatLinkFormat;
    emit_option(kOptionContentFormat, std::span<const std::uint8_t>(&cf, 1));
  }
  if (!payload.empty()) {
    w.u8(0xFF);
    w.bytes(payload);
  }
  return w.take();
}

std::optional<CoapMessage> CoapMessage::parse(
    std::span<const std::uint8_t> wire) {
  try {
    net::PacketReader r(wire);
    std::uint8_t head = r.u8();
    if ((head >> 6) != 1) return std::nullopt;  // version
    CoapMessage m;
    m.type = static_cast<CoapType>((head >> 4) & 0x3);
    std::uint8_t tkl = head & 0x0f;
    if (tkl > CoapToken::kMaxSize) return std::nullopt;
    m.code = r.u8();
    m.message_id = r.u16();
    auto tok = r.bytes(tkl);
    std::copy(tok.begin(), tok.end(), m.token.bytes.begin());
    m.token.size = tkl;

    std::uint16_t option = 0;
    while (r.remaining() > 0) {
      std::uint8_t byte = r.u8();
      if (byte == 0xFF) {
        auto rest = r.bytes(r.remaining());
        m.payload.assign(rest.begin(), rest.end());
        break;
      }
      std::uint16_t delta = byte >> 4;
      std::uint16_t len = byte & 0x0f;
      if (delta == 15 || len == 15) return std::nullopt;
      if (delta == 13) delta = 13 + r.u8();
      if (delta == 14) return std::nullopt;  // 16-bit deltas unused here
      if (len == 13) len = 13 + r.u8();
      option += delta;
      auto value = r.bytes(len);
      if (option == kOptionUriPath)
        m.uri_path.emplace_back(value.begin(), value.end());
      // Other options (Content-Format etc.) are tolerated and skipped.
    }
    return m;
  } catch (const net::ParseError&) {
    return std::nullopt;
  }
}

CoapMessage CoapMessage::well_known_core(std::uint16_t message_id,
                                         std::uint64_t token) {
  CoapMessage m;
  m.type = CoapType::kConfirmable;
  m.code = kCoapGet;
  m.message_id = message_id;
  for (int i = 0; i < 4; ++i)
    m.token.bytes[i] = static_cast<std::uint8_t>(token >> (24 - 8 * i));
  m.token.size = 4;
  m.uri_path = {".well-known", "core"};
  return m;
}

std::vector<std::uint8_t> CoapMessage::well_known_core_wire(
    std::uint16_t message_id, std::uint64_t token) {
  constexpr std::string_view kWellKnown = ".well-known";
  constexpr std::string_view kCore = "core";
  net::PacketWriter w(4 + 4 + 1 + kWellKnown.size() + 1 + kCore.size());
  w.u8(static_cast<std::uint8_t>(
      (1u << 6) | (static_cast<std::uint8_t>(CoapType::kConfirmable) << 4) |
      4u));  // version 1, 4-byte token
  w.u8(kCoapGet);
  w.u16(message_id);
  w.u32(static_cast<std::uint32_t>(token));
  // Two Uri-Path options: delta 11 then 0, each length below 13.
  w.u8(static_cast<std::uint8_t>((kOptionUriPath << 4) | kWellKnown.size()));
  w.str(kWellKnown);
  w.u8(static_cast<std::uint8_t>(kCore.size()));
  w.str(kCore);
  return w.take();
}

std::string link_format(const std::vector<std::string>& resources) {
  std::string out;
  for (const auto& res : resources) {
    if (!out.empty()) out += ',';
    out += '<' + res + '>';
  }
  return out;
}

std::vector<std::string> parse_link_format(std::string_view payload) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t open = payload.find('<', pos);
    if (open == std::string_view::npos) break;
    std::size_t close = payload.find('>', open);
    if (close == std::string_view::npos) break;
    out.emplace_back(payload.substr(open + 1, close - open - 1));
    pos = close + 1;
  }
  return out;
}

}  // namespace tts::proto
