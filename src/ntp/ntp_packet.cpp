#include "ntp/ntp_packet.hpp"

#include "net/packet.hpp"

namespace tts::ntp {

NtpTimestamp to_ntp_time(simnet::SimTime t, std::uint64_t sim_epoch_unix) {
  // SimTime is microseconds; NTP fraction is 1/2^32 seconds.
  std::int64_t usec = t;
  std::int64_t whole = usec / 1000000;
  std::int64_t rem = usec % 1000000;
  if (rem < 0) {
    rem += 1000000;
    whole -= 1;
  }
  std::uint64_t ntp_sec = sim_epoch_unix + kNtpUnixOffset +
                          static_cast<std::uint64_t>(whole);
  auto frac = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(rem) << 32) / 1000000ULL);
  return {static_cast<std::uint32_t>(ntp_sec), frac};
}

simnet::SimTime from_ntp_time(const NtpTimestamp& ts,
                              std::uint64_t sim_epoch_unix) {
  auto epoch_ntp = static_cast<std::uint32_t>(sim_epoch_unix + kNtpUnixOffset);
  // Era-aware subtraction within one era window around the sim epoch.
  auto delta_sec =
      static_cast<std::int64_t>(static_cast<std::int32_t>(ts.seconds - epoch_ntp));
  auto frac_usec = static_cast<std::int64_t>(
      (static_cast<std::uint64_t>(ts.fraction) * 1000000ULL) >> 32);
  return delta_sec * 1000000 + frac_usec;
}

NtpPacket::Wire NtpPacket::serialize() const {
  Wire wire{};
  std::size_t at = 0;
  // Big-endian, most significant byte first (RFC 5905 network order).
  auto put = [&wire, &at](std::uint64_t v, int bytes) {
    for (int b = bytes - 1; b >= 0; --b)
      wire[at++] = static_cast<std::uint8_t>(v >> (8 * b));
  };
  put((static_cast<std::uint8_t>(leap) << 6) | ((version & 0x7) << 3) |
          (static_cast<std::uint8_t>(mode) & 0x7),
      1);
  put(stratum, 1);
  put(static_cast<std::uint8_t>(poll), 1);
  put(static_cast<std::uint8_t>(precision), 1);
  put(root_delay, 4);
  put(root_dispersion, 4);
  put(reference_id, 4);
  put(reference_time.to_u64(), 8);
  put(origin_time.to_u64(), 8);
  put(receive_time.to_u64(), 8);
  put(transmit_time.to_u64(), 8);
  return wire;
}

std::optional<NtpPacket> NtpPacket::parse(
    std::span<const std::uint8_t> wire) {
  if (wire.size() < kWireSize) return std::nullopt;
  net::PacketReader r(wire);
  NtpPacket p;
  std::uint8_t flags = r.u8();
  p.leap = static_cast<LeapIndicator>(flags >> 6);
  p.version = (flags >> 3) & 0x7;
  p.mode = static_cast<NtpMode>(flags & 0x7);
  if (p.version == 0) return std::nullopt;
  p.stratum = r.u8();
  p.poll = static_cast<std::int8_t>(r.u8());
  p.precision = static_cast<std::int8_t>(r.u8());
  p.root_delay = r.u32();
  p.root_dispersion = r.u32();
  p.reference_id = r.u32();
  p.reference_time = NtpTimestamp::from_u64(r.u64());
  p.origin_time = NtpTimestamp::from_u64(r.u64());
  p.receive_time = NtpTimestamp::from_u64(r.u64());
  p.transmit_time = NtpTimestamp::from_u64(r.u64());
  return p;
}

NtpPacket NtpPacket::client_request(simnet::SimTime t) {
  NtpPacket p;
  p.leap = LeapIndicator::kUnsynchronized;
  p.version = 4;
  p.mode = NtpMode::kClient;
  p.poll = 6;  // 64 s nominal
  p.precision = -20;
  p.transmit_time = to_ntp_time(t);
  return p;
}

NtpPacket NtpPacket::server_response(const NtpPacket& request,
                                     simnet::SimTime received_at,
                                     simnet::SimTime transmitted_at,
                                     std::uint8_t stratum,
                                     std::uint32_t reference_id) {
  NtpPacket p;
  p.leap = LeapIndicator::kNoWarning;
  p.version = request.version;
  p.mode = NtpMode::kServer;
  p.stratum = stratum;
  p.poll = request.poll;
  p.precision = -23;
  p.root_delay = 0x0001'0000 >> 4;       // ~4 ms in 16.16
  p.root_dispersion = 0x0000'4000;       // ~0.25 ms
  p.reference_id = reference_id;
  p.reference_time = to_ntp_time(received_at - simnet::sec(16));
  p.origin_time = request.transmit_time;  // echo T1
  p.receive_time = to_ntp_time(received_at);
  p.transmit_time = to_ntp_time(transmitted_at);
  return p;
}

bool NtpPacket::valid_response_to(const NtpPacket& request) const {
  if (mode != NtpMode::kServer) return false;
  if (stratum == 0 || stratum > 15) return false;  // kiss-o'-death or invalid
  if (origin_time != request.transmit_time) return false;  // anti-spoofing
  if (transmit_time.is_zero()) return false;
  return true;
}

}  // namespace tts::ntp
