#include <gtest/gtest.h>

#include <set>

#include "net/ipv6.hpp"
#include "util/rng.hpp"

namespace tts::net {
namespace {

TEST(Ipv6Parse, CanonicalForms) {
  auto a = Ipv6Address::parse("2001:db8::1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->hi64(), 0x20010db800000000ULL);
  EXPECT_EQ(a->lo64(), 1ULL);

  EXPECT_EQ(Ipv6Address::parse("::")->to_string(), "::");
  EXPECT_EQ(Ipv6Address::parse("::1")->to_string(), "::1");
  EXPECT_EQ(Ipv6Address::parse("1::")->to_string(), "1::");
  EXPECT_EQ(Ipv6Address::parse("fe80::1:2:3:4")->to_string(),
            "fe80::1:2:3:4");
}

TEST(Ipv6Parse, FullUncompressedForm) {
  auto a = Ipv6Address::parse("2001:0db8:0000:0000:0000:ff00:0042:8329");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:db8::ff00:42:8329");
}

TEST(Ipv6Parse, MixedCase) {
  auto a = Ipv6Address::parse("2001:DB8::A");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:db8::a");
}

TEST(Ipv6Parse, RejectsMalformed) {
  EXPECT_FALSE(Ipv6Address::parse(""));
  EXPECT_FALSE(Ipv6Address::parse(":"));
  EXPECT_FALSE(Ipv6Address::parse(":::"));
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7"));        // 7 groups
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8:9"));    // 9 groups
  EXPECT_FALSE(Ipv6Address::parse("1::2::3"));              // two "::"
  EXPECT_FALSE(Ipv6Address::parse("12345::"));              // >4 digits
  EXPECT_FALSE(Ipv6Address::parse("g::1"));                 // non-hex
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8:"));     // trailing :
  EXPECT_FALSE(Ipv6Address::parse("1:2:3:4:5:6:7:8::"));    // too long
}

TEST(Ipv6Format, Rfc5952LongestRunCompressed) {
  // First of two equal-length zero runs is compressed.
  auto a = Ipv6Address::parse("2001:0:0:1:0:0:0:1");
  ASSERT_TRUE(a);
  EXPECT_EQ(a->to_string(), "2001:0:0:1::1");
  // Single zero group is NOT compressed.
  auto b = Ipv6Address::parse("2001:db8:0:1:1:1:1:1");
  ASSERT_TRUE(b);
  EXPECT_EQ(b->to_string(), "2001:db8:0:1:1:1:1:1");
}

TEST(Ipv6Format, RoundTripsRandomAddresses) {
  util::Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    Ipv6Address a = Ipv6Address::from_halves(rng.next(), rng.next());
    auto reparsed = Ipv6Address::parse(a.to_string());
    ASSERT_TRUE(reparsed) << a.to_string();
    EXPECT_EQ(*reparsed, a) << a.to_string();
  }
}

TEST(Ipv6Format, RoundTripsSparseAddresses) {
  // Sparse addresses exercise the zero-run compression aggressively.
  util::Rng rng(100);
  for (int i = 0; i < 2000; ++i) {
    std::uint64_t hi = rng.next() & rng.next() & rng.next();
    std::uint64_t lo = rng.next() & rng.next() & rng.next();
    Ipv6Address a = Ipv6Address::from_halves(hi, lo);
    auto reparsed = Ipv6Address::parse(a.to_string());
    ASSERT_TRUE(reparsed) << a.to_string();
    EXPECT_EQ(*reparsed, a) << a.to_string();
  }
}

TEST(Ipv6, HalvesAndIid) {
  Ipv6Address a = Ipv6Address::from_halves(0x20010db812345678ULL,
                                           0xfedcba9876543210ULL);
  EXPECT_EQ(a.hi64(), 0x20010db812345678ULL);
  EXPECT_EQ(a.iid(), 0xfedcba9876543210ULL);
  EXPECT_EQ(a.with_iid(5).iid(), 5ULL);
  EXPECT_EQ(a.with_iid(5).hi64(), a.hi64());
}

TEST(Ipv6, MaskedZeroesHostBits) {
  Ipv6Address a = *Ipv6Address::parse("2001:db8:abcd:ef12:3456:789a:bcde:f012");
  EXPECT_EQ(a.masked(128), a);
  EXPECT_EQ(a.masked(64).to_string(), "2001:db8:abcd:ef12::");
  EXPECT_EQ(a.masked(48).to_string(), "2001:db8:abcd::");
  EXPECT_EQ(a.masked(32).to_string(), "2001:db8::");
  EXPECT_EQ(a.masked(0), Ipv6Address{});
  // Non-byte-aligned lengths.
  EXPECT_EQ(a.masked(33).bytes()[4] & 0x7f, 0);
}

struct PrefixCase {
  const char* text;
  bool valid;
};

class PrefixParse : public ::testing::TestWithParam<PrefixCase> {};

TEST_P(PrefixParse, ParsesOrRejects) {
  auto p = Ipv6Prefix::parse(GetParam().text);
  EXPECT_EQ(p.has_value(), GetParam().valid) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PrefixParse,
    ::testing::Values(PrefixCase{"2001:db8::/32", true},
                      PrefixCase{"::/0", true},
                      PrefixCase{"2001:db8::1/128", true},
                      PrefixCase{"2001:db8::/129", false},
                      PrefixCase{"2001:db8::1/64", false},  // host bits set
                      PrefixCase{"2001:db8::", false},      // no length
                      PrefixCase{"junk/32", false},
                      PrefixCase{"2001:db8::/", false},
                      PrefixCase{"2001:db8::/3x", false}));

TEST(Ipv6Prefix, Containment) {
  auto p48 = *Ipv6Prefix::parse("2001:db8:1::/48");
  EXPECT_TRUE(p48.contains(*Ipv6Address::parse("2001:db8:1:ffff::1")));
  EXPECT_FALSE(p48.contains(*Ipv6Address::parse("2001:db8:2::1")));
  auto p56 = *Ipv6Prefix::parse("2001:db8:1:aa00::/56");
  EXPECT_TRUE(p48.contains(p56));
  EXPECT_FALSE(p56.contains(p48));
  EXPECT_TRUE(p48.contains(p48));
}

/// Flip bit `i` (0 = most significant) of an address.
Ipv6Address flip_bit(const Ipv6Address& a, unsigned i) {
  std::uint64_t hi = a.hi64(), lo = a.lo64();
  if (i < 64)
    hi ^= 1ULL << (63 - i);
  else
    lo ^= 1ULL << (127 - i);
  return Ipv6Address::from_halves(hi, lo);
}

TEST(Ipv6Prefix, ContainmentAtBoundaryLengths) {
  const Ipv6Address base =
      *Ipv6Address::parse("2001:db8:abcd:ef12:3456:789a:bcde:f012");
  util::Rng rng(0x1e7);
  for (unsigned len : {0u, 1u, 63u, 64u, 65u, 127u, 128u}) {
    Ipv6Prefix p(base, len);
    EXPECT_TRUE(p.contains(base)) << "/" << len;
    // The last network bit decides membership; the first host bit doesn't.
    if (len > 0) {
      EXPECT_FALSE(p.contains(flip_bit(base, len - 1))) << "/" << len;
    }
    if (len < 128) {
      EXPECT_TRUE(p.contains(flip_bit(base, len))) << "/" << len;
    }
    // Agrees with the masked() definition on arbitrary addresses, including
    // ones that share the prefix's network half.
    for (int i = 0; i < 256; ++i) {
      Ipv6Address a = Ipv6Address::from_halves(
          i % 2 ? base.hi64() : rng.next(), rng.next());
      EXPECT_EQ(p.contains(a), a.masked(len) == p.address())
          << a.to_string() << " in " << p.to_string();
    }
  }
  EXPECT_EQ(prefix_mask_hi(0), 0u);
  EXPECT_EQ(prefix_mask_lo(64), 0u);
  EXPECT_EQ(prefix_mask_hi(65), ~0ULL);
  EXPECT_EQ(prefix_mask_lo(128), ~0ULL);
}

TEST(Ipv6Prefix, NetworkOfNormalizes) {
  auto a = *Ipv6Address::parse("2400:1:2:345:4:5:6:7");
  EXPECT_EQ(network_of(a, 48).to_string(), "2400:1:2::/48");
  EXPECT_EQ(network_of(a, 56).to_string(), "2400:1:2:300::/56");
  EXPECT_EQ(network_of(a, 64).to_string(), "2400:1:2:345::/64");
}

TEST(Ipv6, HashSpreadsStructuredAddresses) {
  // Sequential low-IID addresses (the hosting pattern) must not collide.
  std::set<std::size_t> hashes;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    Ipv6Address a = Ipv6Address::from_halves(0x2400000000000000ULL, i);
    hashes.insert(Ipv6AddressHash{}(a));
  }
  EXPECT_EQ(hashes.size(), 1000u);
}

TEST(Ipv6, OrderingIsLexicographic) {
  auto a = *Ipv6Address::parse("2001:db8::1");
  auto b = *Ipv6Address::parse("2001:db8::2");
  auto c = *Ipv6Address::parse("2001:db9::");
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_TRUE(Ipv6Address{}.is_unspecified());
  EXPECT_FALSE(a.is_unspecified());
}

}  // namespace
}  // namespace tts::net
