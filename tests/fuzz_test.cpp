// Deterministic fuzz tests: every wire parser in the repo must be total —
// arbitrary bytes either parse into a coherent value or are rejected;
// nothing crashes, loops, or reads out of bounds. Two generators: pure
// random buffers, and single/multi-byte mutations of valid messages (the
// nastier case: almost-valid input). Snapshot decoders reject with
// util::SerializeError and nothing else.
#include <gtest/gtest.h>

#include "core/snapshot.hpp"
#include "hitlist/hitlist.hpp"
#include "net/address_io.hpp"
#include "net/address_store.hpp"
#include "net/ipv6.hpp"
#include "net/mac.hpp"
#include "ntp/collector.hpp"
#include "ntp/ntp_packet.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "proto/amqp.hpp"
#include "proto/coap.hpp"
#include "proto/http.hpp"
#include "proto/mqtt.hpp"
#include "proto/sshwire.hpp"
#include "proto/tlslite.hpp"
#include "scan/results.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

#include <sstream>

namespace tts {
namespace {

std::vector<std::uint8_t> random_buffer(util::Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

template <typename Parser>
void fuzz_random(Parser parse, int iterations = 3000,
                 std::size_t max_len = 96) {
  util::Rng rng(0xF022);
  for (int i = 0; i < iterations; ++i) {
    auto buffer = random_buffer(rng, max_len);
    parse(buffer);  // must not crash; result is irrelevant
  }
}

template <typename Parser>
void fuzz_mutations(const std::vector<std::uint8_t>& valid, Parser parse,
                    int iterations = 3000) {
  util::Rng rng(0xBEEF);
  for (int i = 0; i < iterations; ++i) {
    auto mutated = valid;
    int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips && !mutated.empty(); ++f) {
      std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    // Occasionally truncate or extend.
    if (rng.chance(0.3) && !mutated.empty())
      mutated.resize(rng.below(mutated.size()) + 0);
    if (rng.chance(0.2)) mutated.push_back(static_cast<std::uint8_t>(rng.next()));
    parse(mutated);
  }
}

TEST(Fuzz, NtpPacketParser) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    auto p = ntp::NtpPacket::parse(b);
    if (p) {
      // Parsed packets must re-serialise without throwing.
      auto wire = p->serialize();
      EXPECT_EQ(wire.size(), ntp::NtpPacket::kWireSize);
    }
  };
  fuzz_random(parse);
  fuzz_mutations(ntp::NtpPacket::client_request(simnet::sec(7)).serialize(),
                 parse);
}

TEST(Fuzz, TlsDecoder) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    (void)proto::decode(b);
  };
  fuzz_random(parse);
  proto::ClientHello hello;
  hello.sni = "example.org";
  fuzz_mutations(proto::encode(hello), parse);
  proto::ServerHello server;
  server.cert.subject = "CN=fuzz";
  fuzz_mutations(proto::encode(server), parse);
}

TEST(Fuzz, MqttParsers) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    (void)proto::MqttConnect::parse(b);
    (void)proto::MqttConnack::parse(b);
    (void)proto::mqtt_read_varint(b);
  };
  fuzz_random(parse);
  proto::MqttConnect connect;
  connect.username = "u";
  connect.password = "p";
  fuzz_mutations(connect.serialize(), parse);
}

TEST(Fuzz, AmqpParser) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    (void)proto::AmqpFrame::parse(b);
    (void)proto::is_amqp_protocol_header(b);
  };
  fuzz_random(parse);
  proto::AmqpFrame frame;
  frame.method = proto::AmqpMethod::kClose;
  frame.close_code = 403;
  frame.text = "ACCESS_REFUSED";
  fuzz_mutations(frame.serialize(), parse);
}

TEST(Fuzz, CoapParser) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    auto m = proto::CoapMessage::parse(b);
    if (m) {
      // Round-trip of accepted messages must stay parseable.
      EXPECT_TRUE(proto::CoapMessage::parse(m->serialize()));
    }
  };
  fuzz_random(parse);
  fuzz_mutations(proto::CoapMessage::well_known_core(1, 2).serialize(),
                 parse);
}

TEST(Fuzz, HttpParsers) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    (void)proto::HttpRequest::parse(b);
    (void)proto::HttpResponse::parse(b);
  };
  fuzz_random(parse, 1500, 160);
  fuzz_mutations(proto::HttpRequest{}.serialize(), parse, 1500);
  proto::HttpResponse resp;
  resp.body = proto::html_page("fuzz");
  fuzz_mutations(resp.serialize(), parse, 1500);
}

TEST(Fuzz, SshParsers) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    (void)proto::parse_ssh_id(b);
    (void)proto::parse_ssh_kex_reply(b);
  };
  fuzz_random(parse);
  fuzz_mutations(proto::ssh_id_string("SSH-2.0-OpenSSH_9.2p1 Debian-2"),
                 parse);
  fuzz_mutations(proto::ssh_kex_reply(0x42), parse);
}

TEST(Fuzz, Ipv6TextParser) {
  util::Rng rng(77);
  const char alphabet[] = "0123456789abcdefABCDEF:./ %-xg";
  for (int i = 0; i < 20000; ++i) {
    std::string s;
    std::size_t len = rng.below(48);
    for (std::size_t c = 0; c < len; ++c)
      s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
    auto addr = net::Ipv6Address::parse(s);
    if (addr) {
      // Anything accepted must round-trip through canonical form.
      auto again = net::Ipv6Address::parse(addr->to_string());
      ASSERT_TRUE(again) << s;
      EXPECT_EQ(*again, *addr) << s;
    }
    (void)net::Ipv6Prefix::parse(s);
    (void)net::MacAddress::parse(s);
  }
}

TEST(Fuzz, AddressListReader) {
  util::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    std::ostringstream text;
    int lines = static_cast<int>(rng.below(20));
    for (int l = 0; l < lines; ++l) {
      switch (rng.below(4)) {
        case 0: text << "# comment\n"; break;
        case 1: text << "2001:db8::" << rng.below(0xffff) << "\n"; break;
        case 2: text << "garbage line\n"; break;
        default: text << "   \n"; break;
      }
    }
    std::istringstream in(text.str());
    net::AddressReadStats stats;
    auto addrs = net::read_address_list(in, &stats);
    EXPECT_EQ(addrs.size(), stats.parsed);
  }
}

// ---- snapshot decoders

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

/// A parser for fuzz_random/fuzz_mutations: `decode` may succeed or throw
/// util::SerializeError; any other exception escapes and fails the test.
template <typename Decode>
auto decodes_or_rejects(Decode decode) {
  return [decode](const std::vector<std::uint8_t>& b) {
    util::ByteReader r(
        std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
    try {
      decode(r);
    } catch (const util::SerializeError&) {
    }
  };
}

std::string saved_address_store() {
  net::AddressStore store;
  util::Rng rng(7);
  for (int i = 0; i < 40; ++i)
    store.insert(net::Ipv6Address::from_halves(
        0x20010db800000000ULL | rng.below(4) << 16 | rng.below(3),
        rng.next()));
  util::ByteWriter w;
  store.save(w);
  return w.take();
}

std::string saved_result_store() {
  scan::ResultStore store;
  scan::ScanRecord tls;
  tls.dataset = scan::Dataset::kHitlist;
  tls.protocol = scan::Protocol::kHttps;
  tls.outcome = scan::Outcome::kSuccess;
  tls.certificate = proto::Certificate{42, "CN=device", true, 1, 2};
  tls.http_status = 200;
  tls.http_title = "router";
  tls.http_has_title = true;
  store.add(tls);
  scan::ScanRecord coap;
  coap.protocol = scan::Protocol::kCoap;
  coap.outcome = scan::Outcome::kSuccess;
  coap.coap_resources = {"/.well-known/core", "/sensors/temp"};
  coap.broker_auth_required = true;
  store.add(coap);
  scan::ScanRecord timeout;
  timeout.protocol = scan::Protocol::kSsh;
  store.add(timeout);  // tallied only
  util::ByteWriter w;
  store.save_state(w);
  return w.take();
}

/// `bytes` with the little-endian u64 at `pos` replaced by `value`.
std::string with_u64(std::string bytes, std::size_t pos, std::uint64_t value) {
  for (int i = 0; i < 8; ++i)
    bytes[pos + i] = static_cast<char>(value >> (8 * i));
  return bytes;
}

TEST(Fuzz, AddressStoreLoad) {
  auto parse = decodes_or_rejects([](util::ByteReader& r) {
    net::AddressStore store = net::AddressStore::load(r);
    util::ByteWriter w;
    store.save(w);  // a decoded store must re-encode
    // ...and every reader must work on it: snapshot() scatters by seq, and
    // each address it returns must map back to its own seq.
    std::vector<net::Ipv6Address> all = store.snapshot();
    ASSERT_EQ(all.size(), store.size());
    for (std::size_t i = 0; i < all.size(); ++i)
      ASSERT_EQ(store.seq_of(all[i]), i);
    std::size_t walked = 0, prefixes = 0;
    store.for_each_prefix(
        [&](std::uint64_t, std::span<const std::uint64_t> iids) {
          walked += iids.size();
          ++prefixes;
        });
    EXPECT_EQ(walked, store.size());
    EXPECT_EQ(prefixes, store.prefix_count());
  });
  fuzz_random(parse);
  fuzz_mutations(bytes_of(saved_address_store()), parse);
}

TEST(Fuzz, AddressStoreLoadRejectsInconsistentBuckets) {
  // Two /32 buckets of two addresses each. Layout: [u64 total][u64
  // buckets], then per bucket [u32 block][u64 n][n x u32 rem][n x u64
  // iid][n x u32 seq], so bucket 0 spans bytes 16..60 (its seqs at 52 and
  // 56) and bucket 1 starts at 60.
  net::AddressStore store;
  for (std::uint64_t hi : {0x20010db800000001ULL, 0x20010db900000001ULL})
    for (std::uint64_t lo : {1, 2})
      store.insert(net::Ipv6Address::from_halves(hi, lo));
  util::ByteWriter w;
  store.save(w);
  const std::string valid = w.take();
  {
    util::ByteReader r(valid);
    EXPECT_NO_THROW(net::AddressStore::load(r));
  }
  auto with_u32 = [&valid](std::size_t pos, std::uint32_t value) {
    std::string bytes = valid;
    for (int i = 0; i < 4; ++i)
      bytes[pos + i] = static_cast<char>(value >> (8 * i));
    return bytes;
  };
  const struct {
    const char* what;
    std::string bytes;
  } cases[] = {
      {"seq out of range", with_u32(52, 4096)},
      {"repeated seq", with_u32(56, 0)},
      {"two buckets for one block", with_u32(60, 0x20010db8)},
  };
  for (const auto& c : cases) {
    util::ByteReader r(c.bytes);
    EXPECT_THROW(net::AddressStore::load(r), util::SerializeError) << c.what;
  }
}

TEST(Fuzz, ResultStoreDecode) {
  auto parse = decodes_or_rejects([](util::ByteReader& r) {
    scan::ResultStore store = scan::ResultStore::decode_state(r);
    util::ByteWriter w;
    store.save_state(w);
  });
  fuzz_random(parse, 3000, 1200);
  fuzz_mutations(bytes_of(saved_result_store()), parse);
}

TEST(Fuzz, SnapshotCountsAreBoundedBeforeAllocation) {
  // AddressStore: [u64 total][u64 buckets][u32 block][u64 entries]...
  const std::uint64_t huge = std::uint64_t{1} << 40;
  const std::string store = saved_address_store();
  for (std::size_t pos : {std::size_t{8}, std::size_t{20}}) {
    const std::string bytes = with_u64(store, pos, huge);
    util::ByteReader r(bytes);
    EXPECT_THROW(net::AddressStore::load(r), util::SerializeError) << pos;
  }
  // ResultStore: the outcome tensor, then a u32 record count.
  const std::size_t tensor =
      scan::kDatasetCount * scan::kProtocolCount * scan::kOutcomeCount * 8;
  std::string results = saved_result_store();
  for (std::size_t i = 0; i < 4; ++i) results[tensor + i] = '\xff';
  util::ByteReader r(results);
  EXPECT_THROW(scan::ResultStore::decode_state(r), util::SerializeError);
}

TEST(Fuzz, SnapshotEnumBytesAreRangeChecked) {
  const std::size_t first_record =
      scan::kDatasetCount * scan::kProtocolCount * scan::kOutcomeCount * 8 +
      4;
  // Record layout: dataset u8, protocol u8, target 16 bytes, at i64,
  // outcome u8.
  for (std::size_t field : {std::size_t{0}, std::size_t{1}, std::size_t{26}}) {
    std::string bytes = saved_result_store();
    bytes[first_record + field] = '\x7f';
    util::ByteReader r(bytes);
    EXPECT_THROW(scan::ResultStore::decode_state(r), util::SerializeError)
        << field;
  }
}

std::string_view view_of(const std::vector<std::uint8_t>& b) {
  return std::string_view(reinterpret_cast<const char*>(b.data()), b.size());
}

core::StudySnapshot sample_snapshot() {
  core::StudySnapshot snap;
  snap.seed = 20240720;
  snap.at = simnet::days(2);
  snap.sections.push_back({"clock", std::string(16, '\x01')});
  snap.sections.push_back({"store", saved_address_store()});
  snap.sections.push_back({"results", saved_result_store()});
  return snap;
}

TEST(Fuzz, StudySnapshotParse) {
  auto parse = [](const std::vector<std::uint8_t>& b) {
    try {
      core::StudySnapshot snap = core::StudySnapshot::parse(view_of(b));
      // A parsed snapshot re-serializes to the bytes it came from.
      EXPECT_EQ(snap.serialize(), std::string(view_of(b)));
    } catch (const util::SerializeError&) {
    }
  };
  fuzz_random(parse);
  fuzz_mutations(bytes_of(sample_snapshot().serialize()), parse);

  // A header claiming 0xffffffff sections is rejected before anything is
  // reserved for them.
  core::StudySnapshot empty;
  std::string bytes = empty.serialize();
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i)
    bytes[i] = '\xff';
  EXPECT_THROW(core::StudySnapshot::parse(bytes), util::SerializeError);
}

TEST(Fuzz, CollectorAndHitlistCountsAreBoundedBeforeAllocation) {
  // Collector: the store, then a u32 per-server count.
  util::ByteWriter collector;
  net::AddressStore().save(collector);
  collector.u32(0xffffffffu);
  std::string bytes = collector.take();
  util::ByteReader cr(bytes);
  EXPECT_THROW(ntp::AddressCollector::decode_state(cr), util::SerializeError);
  // Hitlist: the store, its (empty) sources, then a u32 public count.
  util::ByteWriter hitlist;
  net::AddressStore().save(hitlist);
  hitlist.u32(0);
  hitlist.u32(0xffffffffu);
  bytes = hitlist.take();
  util::ByteReader hr(bytes);
  EXPECT_THROW(hitlist::Hitlist::decode_state(hr), util::SerializeError);
}

// ---- obs JSONL

std::string sample_jsonl() {
  obs::Registry reg;
  obs::Counter requests;
  obs::Gauge depth;
  obs::Histogram wait;
  reg.enroll(requests, "ntp_requests", {{"zone", "DE"}, {"ours", "1"}});
  reg.enroll(depth, "scan_pending_depth");
  reg.enroll(wait, "wait_us", {{"quote", "a\"b\\c"}});
  requests.inc(12345);
  depth.set(-42);
  wait.record(7);
  wait.record(500);
  wait.record(99999);
  return obs::to_jsonl(reg.snapshot(987654321));
}

TEST(Fuzz, ObsJsonlParser) {
  const std::string valid = sample_jsonl();
  auto reparsed = obs::parse_jsonl(valid);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(obs::to_jsonl(*reparsed), valid);

  auto parse = [](const std::vector<std::uint8_t>& b) {
    auto snap = obs::parse_jsonl(std::string(view_of(b)));
    if (!snap) return;
    // The other exporters read every carried bucket's edge.
    (void)obs::to_prometheus(*snap);
    (void)obs::to_table(*snap).to_string();
    // Whatever parses re-exports to a dump that parses to itself.
    std::string jsonl = obs::to_jsonl(*snap);
    auto again = obs::parse_jsonl(jsonl);
    ASSERT_TRUE(again.has_value()) << jsonl;
    EXPECT_EQ(obs::to_jsonl(*again), jsonl);
  };
  fuzz_random(parse);
  fuzz_mutations(bytes_of(valid), parse);

  // Numbers outside int64 are malformed, not an overflow.
  EXPECT_FALSE(obs::parse_jsonl("{\"at\":99999999999999999999,\"name\":"
                                "\"x\",\"kind\":\"counter\"}\n")
                   .has_value());
  EXPECT_TRUE(obs::parse_jsonl("{\"at\":-9223372036854775808,\"name\":"
                               "\"x\",\"kind\":\"gauge\"}\n")
                  .has_value());

  // A histogram carries at most the layout's buckets, and the removed
  // "bounds" key is unknown.
  auto histogram = [](std::size_t buckets, const std::string& extra) {
    std::string line =
        "{\"at\":1,\"name\":\"h\",\"kind\":\"histogram\",\"count\":1," +
        extra + "\"counts\":[";
    for (std::size_t i = 0; i < buckets; ++i) line += i ? ",0" : "1";
    return line + "]}\n";
  };
  auto widest = obs::parse_jsonl(histogram(obs::Histogram::kBuckets, ""));
  ASSERT_TRUE(widest.has_value());
  EXPECT_NE(obs::to_prometheus(*widest).find("le=\"9223372036854775807\""),
            std::string::npos);
  EXPECT_FALSE(
      obs::parse_jsonl(histogram(obs::Histogram::kBuckets + 1, "")).has_value());
  EXPECT_FALSE(
      obs::parse_jsonl(histogram(2, "\"bounds\":[10],")).has_value());
}

// Label text is arbitrary bytes: control characters (a newline ends a
// JSONL record), quotes, backslashes and non-ASCII bytes must all survive
// a dump and its parse byte for byte.
TEST(Fuzz, ObsJsonlRoundTripsAnyLabelBytes) {
  util::Rng rng(0x1abe1);
  auto random_text = [&rng] {
    std::string s(rng.below(12), '\0');
    for (char& c : s) c = static_cast<char>(rng.below(256));
    return s;
  };
  for (int i = 0; i < 300; ++i) {
    obs::Registry reg;
    obs::Counter counter;
    obs::Gauge gauge;
    obs::Histogram hist;
    const std::string name = "n" + random_text();
    obs::Labels labels;
    for (std::uint64_t l = rng.below(4); l > 0; --l)
      labels.emplace_back(random_text(), random_text());
    reg.enroll(counter, name, labels);
    reg.enroll(gauge, random_text(), {{random_text(), random_text()}});
    reg.enroll(hist, random_text(), labels);
    for (std::uint64_t n = rng.below(4); n > 0; --n)
      hist.record(static_cast<std::int64_t>(rng.next() >> rng.below(64)));
    counter.inc(rng.below(1000));
    gauge.set(static_cast<std::int64_t>(rng.below(1000)) - 500);

    const obs::RegistrySnapshot snap = reg.snapshot(i);
    const std::string jsonl = obs::to_jsonl(snap);
    auto reparsed = obs::parse_jsonl(jsonl);
    ASSERT_TRUE(reparsed.has_value()) << jsonl;
    ASSERT_EQ(reparsed->values.size(), snap.values.size());
    for (std::size_t v = 0; v < snap.values.size(); ++v) {
      EXPECT_EQ(reparsed->values[v].name, snap.values[v].name);
      EXPECT_EQ(reparsed->values[v].labels, snap.values[v].labels);
      EXPECT_EQ(reparsed->values[v].bucket_counts,
                snap.values[v].bucket_counts);
    }
    EXPECT_EQ(obs::to_jsonl(*reparsed), jsonl);
  }
}

TEST(Fuzz, ObsJsonlRejectsMalformedEscapes) {
  auto with_name = [](const std::string& literal) {
    return "{\"at\":1,\"name\":\"" + literal +
           "\",\"kind\":\"counter\",\"value\":3}\n";
  };
  // Every escape JSON defines decodes, \u forms included.
  auto good = obs::parse_jsonl(
      with_name("a\\\"\\\\\\/\\b\\f\\n\\r\\t\\u0001\\u00e9\\ud83d\\ude00"));
  ASSERT_TRUE(good.has_value());
  EXPECT_EQ(good->values.at(0).name,
            "a\"\\/\b\f\n\r\t\x01\xc3\xa9\xf0\x9f\x98\x80");
  for (const char* bad : {
           "\\x",          // unknown escape
           "\\u12",        // truncated \u
           "\\u12g4",      // non-hex digit
           "\\ud83d",      // high surrogate alone
           "\\ud83d\\u0041",  // high surrogate, no low one
           "\\ude00",      // low surrogate alone
           "a\tb",         // raw control byte
       })
    EXPECT_FALSE(obs::parse_jsonl(with_name(bad)).has_value()) << bad;
  // A backslash that ends the input is truncated, not an escaped quote.
  EXPECT_FALSE(obs::parse_jsonl("{\"at\":1,\"name\":\"a\\").has_value());
}

}  // namespace
}  // namespace tts
