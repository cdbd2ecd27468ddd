// RFC 5905 NTPv4 wire format (the 48-byte header used by mode-3 client
// requests and mode-4 server responses).
//
// Address sourcing rides entirely on genuine NTP traffic: simulated clients
// serialise real mode-3 packets, pool servers parse them, log the client
// address, and answer with well-formed mode-4 responses whose timestamps
// come from the simulation clock mapped into the NTP era-0 timescale.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "simnet/time.hpp"

namespace tts::ntp {

/// 64-bit NTP timestamp: 32 bits of seconds since 1900-01-01, 32 bits of
/// fractional seconds (RFC 5905 section 6).
struct NtpTimestamp {
  std::uint32_t seconds = 0;
  std::uint32_t fraction = 0;

  std::uint64_t to_u64() const {
    return (static_cast<std::uint64_t>(seconds) << 32) | fraction;
  }
  static NtpTimestamp from_u64(std::uint64_t v) {
    return {static_cast<std::uint32_t>(v >> 32),
            static_cast<std::uint32_t>(v)};
  }

  bool is_zero() const { return seconds == 0 && fraction == 0; }

  friend auto operator<=>(const NtpTimestamp&, const NtpTimestamp&) = default;
};

/// Offset between the NTP era-0 epoch (1900-01-01) and the Unix epoch.
inline constexpr std::uint64_t kNtpUnixOffset = 2208988800ULL;

/// The simulation epoch expressed as Unix seconds. The study's collection
/// window opens 2024-07-20 00:00:00 UTC (Section 3.1), so SimTime 0 maps
/// there by default.
inline constexpr std::uint64_t kDefaultSimEpochUnix = 1721433600ULL;

/// Map simulation time to an NTP timestamp and back.
NtpTimestamp to_ntp_time(simnet::SimTime t,
                         std::uint64_t sim_epoch_unix = kDefaultSimEpochUnix);
simnet::SimTime from_ntp_time(
    const NtpTimestamp& ts,
    std::uint64_t sim_epoch_unix = kDefaultSimEpochUnix);

enum class NtpMode : std::uint8_t {
  kReserved = 0,
  kSymmetricActive = 1,
  kSymmetricPassive = 2,
  kClient = 3,
  kServer = 4,
  kBroadcast = 5,
  kControl = 6,
  kPrivate = 7,
};

enum class LeapIndicator : std::uint8_t {
  kNoWarning = 0,
  kLastMinute61 = 1,
  kLastMinute59 = 2,
  kUnsynchronized = 3,
};

struct NtpPacket {
  LeapIndicator leap = LeapIndicator::kNoWarning;
  std::uint8_t version = 4;  // 3 bits, 1..7
  NtpMode mode = NtpMode::kClient;
  std::uint8_t stratum = 0;
  std::int8_t poll = 0;        // log2 seconds
  std::int8_t precision = 0;   // log2 seconds
  std::uint32_t root_delay = 0;       // 16.16 fixed-point seconds
  std::uint32_t root_dispersion = 0;  // 16.16 fixed-point seconds
  std::uint32_t reference_id = 0;
  NtpTimestamp reference_time;
  NtpTimestamp origin_time;    // T1 echoed back by the server
  NtpTimestamp receive_time;   // T2
  NtpTimestamp transmit_time;  // T3

  static constexpr std::size_t kWireSize = 48;
  using Wire = std::array<std::uint8_t, kWireSize>;

  /// The 48-byte header, written in place (no allocation).
  Wire serialize() const;

  /// Strict parse of the 48-byte header. Extension fields/MACs after the
  /// header are tolerated and ignored (real pool traffic carries them).
  static std::optional<NtpPacket> parse(std::span<const std::uint8_t> wire);

  /// A well-formed client (mode 3) request transmitted at `t`.
  static NtpPacket client_request(simnet::SimTime t);

  /// A server (mode 4) response to `request`, with T2 = `received_at` and
  /// T3 = `transmitted_at`, advertised at `stratum`.
  static NtpPacket server_response(const NtpPacket& request,
                                   simnet::SimTime received_at,
                                   simnet::SimTime transmitted_at,
                                   std::uint8_t stratum,
                                   std::uint32_t reference_id);

  /// Sanity checks a client applies before trusting a response
  /// (RFC 5905 sanity tests subset: mode, stratum, origin echo).
  bool valid_response_to(const NtpPacket& request) const;
};

}  // namespace tts::ntp
