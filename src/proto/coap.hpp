// CoAP (RFC 7252) message codec — real header layout: version/type/TKL,
// code, message id, token, options (delta-encoded; Uri-Path = 11,
// Content-Format = 12), payload marker 0xFF. The study's CoAP scan sends a
// confirmable GET /.well-known/core and groups the advertised resources
// from the RFC 6690 link-format payload (Section 4.3.3).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace tts::proto {

enum class CoapType : std::uint8_t {
  kConfirmable = 0,
  kNonConfirmable = 1,
  kAck = 2,
  kReset = 3,
};

/// CoAP codes are class.detail packed into a byte: GET = 0.01,
/// 2.05 Content = 0x45, 4.04 Not Found = 0x84.
inline constexpr std::uint8_t kCoapGet = 0x01;
inline constexpr std::uint8_t kCoapContent = 0x45;
inline constexpr std::uint8_t kCoapNotFound = 0x84;

inline constexpr std::uint16_t kOptionUriPath = 11;
inline constexpr std::uint16_t kOptionContentFormat = 12;
inline constexpr std::uint8_t kContentFormatLinkFormat = 40;

/// A message token. RFC 7252 caps its length (TKL) at 8 bytes, so it lives
/// inline: parsing a reply that echoes a token allocates nothing for it.
struct CoapToken {
  static constexpr std::size_t kMaxSize = 8;
  std::array<std::uint8_t, kMaxSize> bytes{};
  std::uint8_t size = 0;  // at most kMaxSize

  std::span<const std::uint8_t> view() const { return {bytes.data(), size}; }
  friend bool operator==(const CoapToken& a, const CoapToken& b) {
    return std::ranges::equal(a.view(), b.view());
  }
};

struct CoapMessage {
  CoapType type = CoapType::kConfirmable;
  std::uint8_t code = kCoapGet;
  std::uint16_t message_id = 0;
  CoapToken token;
  std::vector<std::string> uri_path;  // Uri-Path options, in order
  std::vector<std::uint8_t> payload;

  std::vector<std::uint8_t> serialize() const;
  static std::optional<CoapMessage> parse(std::span<const std::uint8_t> wire);

  /// GET /.well-known/core request.
  static CoapMessage well_known_core(std::uint16_t message_id,
                                     std::uint64_t token);
  /// The same request's wire bytes, equal to
  /// well_known_core(message_id, token).serialize() but written straight
  /// into one buffer (the scanner sends one per CoAP probe).
  static std::vector<std::uint8_t> well_known_core_wire(
      std::uint16_t message_id, std::uint64_t token);
};

/// RFC 6690 link-format: "</res1>,</res2>" — build from resource paths and
/// parse back into paths.
std::string link_format(const std::vector<std::string>& resources);
std::vector<std::string> parse_link_format(std::string_view payload);

}  // namespace tts::proto
