// End-to-end pipeline invariants at tiny scale: the study must reproduce
// the paper's qualitative findings even in miniature.
#include <gtest/gtest.h>

#include "analysis/coap_analysis.hpp"
#include "analysis/iid_classes.hpp"
#include "analysis/network_agg.hpp"
#include "analysis/security_score.hpp"
#include "analysis/ssh_analysis.hpp"
#include "analysis/title_grouping.hpp"
#include "core/study.hpp"

namespace tts::core {
namespace {

// One shared study run for all assertions (run() takes a second or two).
class StudyTest : public ::testing::Test {
 protected:
  static Study& study() {
    static Study* instance = [] {
      auto* s = new Study(make_study_config(StudyScale::kTiny));
      s->run();
      return s;
    }();
    return *instance;
  }
};

TEST_F(StudyTest, CollectsAddresses) {
  EXPECT_GT(study().collector().distinct_addresses(), 1000u);
  EXPECT_GT(study().collector().total_requests(),
            study().collector().distinct_addresses());
}

TEST_F(StudyTest, AllServersCollect) {
  auto per_server = study().per_server_counts();
  ASSERT_EQ(per_server.size(), 11u);
  for (const auto& [country, count] : per_server)
    EXPECT_GT(count, 0u) << country;
  // India dominates the per-server ranking (Table 7).
  std::uint64_t india = 0, max_other = 0;
  for (const auto& [country, count] : per_server) {
    if (country == "IN")
      india = count;
    else
      max_other = std::max(max_other, count);
  }
  EXPECT_GT(india, max_other);
}

TEST_F(StudyTest, NtpDataIsEyeballHeavy) {
  auto addrs = study().ntp_addresses();
  double eyeball =
      analysis::cable_dsl_isp_share(addrs, study().registry());
  auto hitlist_share = analysis::cable_dsl_isp_share(
      study().hitlist().public_list, study().registry());
  EXPECT_GT(eyeball, hitlist_share);  // Figure 1's AS panel
}

TEST_F(StudyTest, HitlistIsMoreStructured) {
  auto ntp_dist = analysis::classify_addresses(study().ntp_addresses());
  auto hit_dist =
      analysis::classify_addresses(study().hitlist().public_list);
  auto structured = [](const analysis::IidDistribution& d) {
    return d.fraction(analysis::IidClass::kZero) +
           d.fraction(analysis::IidClass::kLastByte) +
           d.fraction(analysis::IidClass::kLastTwoBytes);
  };
  EXPECT_GT(structured(hit_dist), structured(ntp_dist));
}

TEST_F(StudyTest, NtpScanFindsFritzButHitlistFindsDlink) {
  std::vector<analysis::TitleObservation> obs;
  for (auto dataset : {scan::Dataset::kNtp, scan::Dataset::kHitlist}) {
    for (auto proto : {scan::Protocol::kHttp, scan::Protocol::kHttps}) {
      for (const auto* r : study().results().successes(dataset, proto)) {
        if (r->http_status != 200 || !r->http_has_title) continue;
        obs.push_back({r->http_title, dataset, 1});
      }
    }
  }
  auto groups = analysis::group_titles(obs);
  std::uint64_t fritz_ntp = 0, fritz_hit = 0, dlink_ntp = 0, dlink_hit = 0;
  for (const auto& g : groups) {
    if (g.representative.find("FRITZ!Box") != std::string::npos) {
      fritz_ntp += g.ntp;
      fritz_hit += g.hitlist;
    }
    if (g.representative.find("D-LINK") != std::string::npos) {
      dlink_ntp += g.ntp;
      dlink_hit += g.hitlist;
    }
  }
  EXPECT_GT(fritz_ntp, fritz_hit);  // NTP unveils the FRITZ! fleet
  EXPECT_EQ(dlink_ntp, 0u);         // D-LINK never polls the pool
  EXPECT_GT(dlink_hit, 0u);         // ...but is rDNS-discoverable
}

TEST_F(StudyTest, CoapFavorsNtpSourcing) {
  auto ntp = analysis::coap_group_counts(study().results(),
                                         scan::Dataset::kNtp);
  auto hit = analysis::coap_group_counts(study().results(),
                                         scan::Dataset::kHitlist);
  std::uint64_t ntp_total = 0, hit_total = 0;
  for (const auto& [g, n] : ntp) ntp_total += n;
  for (const auto& [g, n] : hit) hit_total += n;
  EXPECT_GT(ntp_total, hit_total);  // Table 2's CoAP row flips the trend
  EXPECT_GT(ntp["castdevice"], 0u);
  EXPECT_EQ(hit["castdevice"], 0u);  // never in the hitlist (Table 3)
}

TEST_F(StudyTest, NtpSourcedHostsLessSecure) {
  auto ntp_score =
      analysis::security_score(study().results(), scan::Dataset::kNtp);
  auto hit_score =
      analysis::security_score(study().results(), scan::Dataset::kHitlist);
  ASSERT_GT(ntp_score.total_hosts(), 20u);
  ASSERT_GT(hit_score.total_hosts(), 20u);
  // The headline: hitlist-based scans overestimate security.
  EXPECT_GT(hit_score.secure_share(), ntp_score.secure_share());
}

TEST_F(StudyTest, RaspbianRidesNtpFreebsdRidesHitlist) {
  auto ntp_os = analysis::os_distribution(
      analysis::dedup_ssh_hosts(study().results(), scan::Dataset::kNtp));
  auto hit_os = analysis::os_distribution(
      analysis::dedup_ssh_hosts(study().results(), scan::Dataset::kHitlist));
  EXPECT_GT(ntp_os["Raspbian"], hit_os["Raspbian"]);
  EXPECT_GT(hit_os["FreeBSD"], ntp_os["FreeBSD"]);
}

TEST_F(StudyTest, HitRateIsLow) {
  double rate = study().ntp_hit_rate();
  EXPECT_GT(rate, 0.0);
  EXPECT_LT(rate, 0.1);  // well under 10% — end-user space is dark
}

TEST_F(StudyTest, TelescopeSeesOurScansAndBothActors) {
  auto report = study().telescope_report();
  EXPECT_GT(report.total_captures, 0u);
  // All captured scan packets matched an NTP query (Section 5.2).
  EXPECT_EQ(report.matched_captures, report.total_captures);

  int research = 0, covert = 0;
  for (const auto& actor : report.actors) {
    if (actor.classification == telescope::ActorClass::kResearch) ++research;
    if (actor.classification == telescope::ActorClass::kCovert) ++covert;
  }
  // Our own scanner + the research actor are overt; the cloud actor hides.
  EXPECT_GE(research, 1);
  EXPECT_GE(covert, 1);
}

TEST_F(StudyTest, ScanStagingStaysBoundedAndSweepDrains) {
  const Study& s = study();
  // The pull-based pump keeps every engine's staging at O(max_pending)
  // even though the hitlist sweep covers thousands of targets (the eager
  // design peaked at one queue entry per probe of the whole sweep).
  ASSERT_NE(s.hitlist_engine(), nullptr);
  EXPECT_LE(s.hitlist_engine()->pending_peak(), s.config().scan_max_pending);
  ASSERT_NE(s.ntp_engine(), nullptr);
  EXPECT_LE(s.ntp_engine()->pending_peak(), s.config().scan_max_pending);
  // The bulk feed handed over the full hitlist before the run ended.
  EXPECT_EQ(s.hitlist_engine()->sources_pending(), 0u);
  EXPECT_EQ(s.hitlist_engine()->submitted() +
                s.hitlist_engine()->skipped_blackout(),
            s.hitlist().full.size());
  EXPECT_GT(s.hitlist().full.size(), 1000u);
}

TEST_F(StudyTest, HitlistOverlapIsPartial) {
  auto ntp = study().ntp_addresses();
  const auto& hitlist = study().hitlist().full;
  auto ntp48 = analysis::prefixes_of(ntp, 48);
  auto hit48 = analysis::prefixes_of(hitlist, 48);
  std::uint64_t shared = analysis::overlap(ntp48, hit48);
  EXPECT_GT(shared, 0u);               // some /48s seen by both
  EXPECT_LT(shared, ntp48.size());     // but NTP contributes new networks
}

TEST(StudyDeterminism, SameSeedSameOutcome) {
  auto config = make_study_config(StudyScale::kTiny);
  config.population.device_scale = 0.05;
  config.runtime.duration = simnet::days(3);
  config.hitlist_scan_start = simnet::days(2);
  config.drain = simnet::days(1);

  auto fingerprint = [&](Study& s) {
    std::uint64_t f = s.collector().distinct_addresses();
    f = f * 1000003 + s.collector().total_requests();
    f = f * 1000003 + s.results().size();
    f = f * 1000003 + s.events_executed();
    f = f * 1000003 + s.hitlist().full.size();
    return f;
  };
  Study a(config), b(config);
  a.run();
  b.run();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
}

TEST(StudyDeterminism, DifferentSeedDifferentOutcome) {
  auto config = make_study_config(StudyScale::kTiny);
  config.population.device_scale = 0.05;
  config.runtime.duration = simnet::days(3);
  config.hitlist_scan_start = simnet::days(2);
  config.drain = simnet::days(1);
  Study a(config);
  config.seed ^= 0xdeadbeef;
  Study b(config);
  a.run();
  b.run();
  EXPECT_NE(a.collector().total_requests(), b.collector().total_requests());
}

TEST(StudyConfigTest, ScalePresets) {
  auto tiny = make_study_config(StudyScale::kTiny);
  auto small = make_study_config(StudyScale::kSmall);
  auto medium = make_study_config(StudyScale::kMedium);
  EXPECT_LT(tiny.population.device_scale, small.population.device_scale);
  EXPECT_LT(small.population.device_scale, medium.population.device_scale);
  EXPECT_EQ(small.server_countries.size(), 11u);
  EXPECT_LT(tiny.runtime.duration, small.runtime.duration);
}

TEST(StudyConfigTest, RunTwiceThrows) {
  Study study(make_study_config(StudyScale::kTiny));
  // Do not actually run at full length; just verify the guard with a
  // zero-duration config.
  auto config = make_study_config(StudyScale::kTiny);
  config.runtime.duration = simnet::sec(1);
  config.drain = simnet::sec(1);
  config.enable_telescope = false;
  config.enable_actors = false;
  Study quick(config);
  quick.run();
  EXPECT_THROW(quick.run(), std::logic_error);
}

}  // namespace
}  // namespace tts::core
