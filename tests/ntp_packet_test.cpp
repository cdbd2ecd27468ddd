#include <gtest/gtest.h>

#include "ntp/ntp_packet.hpp"
#include "util/rng.hpp"

namespace tts::ntp {
namespace {

TEST(NtpTimestamp, SimTimeConversionRoundTrips) {
  for (simnet::SimTime t : {simnet::SimTime{0}, simnet::sec(1),
                            simnet::days(28), simnet::usec(123457),
                            simnet::hours(7) + simnet::usec(999999)}) {
    NtpTimestamp ts = to_ntp_time(t);
    simnet::SimTime back = from_ntp_time(ts);
    // The 32-bit fraction quantises to ~0.23 us.
    EXPECT_NEAR(static_cast<double>(back), static_cast<double>(t), 1.0)
        << "t=" << t;
  }
}

TEST(NtpTimestamp, EpochMapping) {
  // SimTime 0 is 2024-07-20 00:00:00 UTC = Unix 1721433600.
  NtpTimestamp ts = to_ntp_time(0);
  EXPECT_EQ(ts.seconds,
            static_cast<std::uint32_t>(1721433600ULL + kNtpUnixOffset));
  EXPECT_EQ(ts.fraction, 0u);
}

TEST(NtpTimestamp, U64Packing) {
  NtpTimestamp ts{0x12345678, 0x9abcdef0};
  EXPECT_EQ(ts.to_u64(), 0x123456789abcdef0ULL);
  EXPECT_EQ(NtpTimestamp::from_u64(ts.to_u64()), ts);
}

TEST(NtpPacket, WireSizeIs48) {
  EXPECT_EQ(NtpPacket::client_request(0).serialize().size(),
            NtpPacket::kWireSize);
}

TEST(NtpPacket, SerializeParseRoundTrip) {
  util::Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    NtpPacket p;
    p.leap = static_cast<LeapIndicator>(rng.below(4));
    p.version = 1 + static_cast<std::uint8_t>(rng.below(7));
    p.mode = static_cast<NtpMode>(rng.below(8));
    p.stratum = static_cast<std::uint8_t>(rng.below(16));
    p.poll = static_cast<std::int8_t>(rng.range(-6, 17));
    p.precision = static_cast<std::int8_t>(rng.range(-30, 0));
    p.root_delay = static_cast<std::uint32_t>(rng.next());
    p.root_dispersion = static_cast<std::uint32_t>(rng.next());
    p.reference_id = static_cast<std::uint32_t>(rng.next());
    p.reference_time = NtpTimestamp::from_u64(rng.next());
    p.origin_time = NtpTimestamp::from_u64(rng.next());
    p.receive_time = NtpTimestamp::from_u64(rng.next());
    p.transmit_time = NtpTimestamp::from_u64(rng.next());

    auto parsed = NtpPacket::parse(p.serialize());
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->leap, p.leap);
    EXPECT_EQ(parsed->version, p.version);
    EXPECT_EQ(parsed->mode, p.mode);
    EXPECT_EQ(parsed->stratum, p.stratum);
    EXPECT_EQ(parsed->poll, p.poll);
    EXPECT_EQ(parsed->precision, p.precision);
    EXPECT_EQ(parsed->root_delay, p.root_delay);
    EXPECT_EQ(parsed->root_dispersion, p.root_dispersion);
    EXPECT_EQ(parsed->reference_id, p.reference_id);
    EXPECT_EQ(parsed->origin_time, p.origin_time);
    EXPECT_EQ(parsed->receive_time, p.receive_time);
    EXPECT_EQ(parsed->transmit_time, p.transmit_time);
  }
}

TEST(NtpPacket, ParseRejectsShortAndVersionZero) {
  std::vector<std::uint8_t> short_wire(47, 0);
  EXPECT_FALSE(NtpPacket::parse(short_wire));
  std::vector<std::uint8_t> v0(48, 0);  // version bits 000
  EXPECT_FALSE(NtpPacket::parse(v0));
}

TEST(NtpPacket, ParseToleratesTrailingExtensions) {
  auto header = NtpPacket::client_request(simnet::sec(5)).serialize();
  std::vector<std::uint8_t> wire(header.begin(), header.end());
  wire.resize(wire.size() + 20, 0xee);  // extension field junk
  auto parsed = NtpPacket::parse(wire);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->mode, NtpMode::kClient);
}

TEST(NtpPacket, ServerResponseEchoesOriginAndValidates) {
  auto request = NtpPacket::client_request(simnet::sec(100));
  auto response = NtpPacket::server_response(request, simnet::sec(100) + 30000,
                                             simnet::sec(100) + 30050, 2,
                                             0x7f000001);
  EXPECT_EQ(response.mode, NtpMode::kServer);
  EXPECT_EQ(response.origin_time, request.transmit_time);
  EXPECT_TRUE(response.valid_response_to(request));

  // Tampered origin fails the sanity test (anti-spoofing).
  auto spoofed = response;
  spoofed.origin_time.fraction ^= 1;
  EXPECT_FALSE(spoofed.valid_response_to(request));

  // Kiss-o'-death (stratum 0) is not a valid response.
  auto kod = response;
  kod.stratum = 0;
  EXPECT_FALSE(kod.valid_response_to(request));

  // A client-mode packet is not a response.
  EXPECT_FALSE(request.valid_response_to(request));
}

TEST(NtpPacket, ClientRequestShape) {
  auto request = NtpPacket::client_request(simnet::minutes(90));
  EXPECT_EQ(request.mode, NtpMode::kClient);
  EXPECT_EQ(request.leap, LeapIndicator::kUnsynchronized);
  EXPECT_EQ(request.version, 4);
  EXPECT_FALSE(request.transmit_time.is_zero());
  EXPECT_TRUE(request.origin_time.is_zero());
}

}  // namespace
}  // namespace tts::ntp
