#include "core/report.hpp"

#include <sstream>
#include <unordered_set>

#include "analysis/title_grouping.hpp"
#include "util/format.hpp"

namespace tts::core {

namespace {

DatasetScanSummary summarize_scans(const Study& study, scan::Dataset ds) {
  const auto& results = study.results();
  DatasetScanSummary out;
  out.dataset = std::string(to_string(ds));

  auto add_pair = [&](const std::string& label, scan::Protocol plain,
                      std::optional<scan::Protocol> tls_proto,
                      bool keys_from_ssh) {
    DatasetScanSummary::Row row;
    row.protocol = label;
    std::unordered_set<net::Ipv6Address, net::Ipv6AddressHash> addrs, tls;
    std::unordered_set<std::uint64_t> creds;
    for (const auto* r : results.successes(ds, plain)) {
      addrs.insert(r->target);
      if (keys_from_ssh && r->ssh_hostkey) creds.insert(*r->ssh_hostkey);
    }
    if (tls_proto) {
      for (const auto* r : results.successes(ds, *tls_proto)) {
        addrs.insert(r->target);
        tls.insert(r->target);
        if (r->certificate) creds.insert(r->certificate->fingerprint);
      }
    }
    row.addresses = addrs.size();
    row.tls_addresses = tls.size();
    row.certs_or_keys = creds.size();
    out.rows.push_back(row);
  };

  add_pair("HTTP", scan::Protocol::kHttp, scan::Protocol::kHttps, false);
  add_pair("SSH", scan::Protocol::kSsh, std::nullopt, true);
  add_pair("MQTT", scan::Protocol::kMqtt, scan::Protocol::kMqtts, false);
  add_pair("AMQP", scan::Protocol::kAmqp, scan::Protocol::kAmqps, false);
  add_pair("CoAP", scan::Protocol::kCoap, std::nullopt, false);
  return out;
}

}  // namespace

StudyReport build_report(const Study& study) {
  StudyReport report;
  const auto& registry = study.registry();

  auto ntp_addrs = study.ntp_addresses();

  report.collected_addresses = study.collector().distinct_addresses();
  report.ntp_requests = study.collector().total_requests();
  // The collector's store holds exactly ntp_addrs and the hitlist's dedup
  // store exactly its full list, so the aggregates read them as they stand.
  report.ntp_aggregates =
      analysis::aggregate(study.collector().addresses(), registry);
  report.hitlist_full_aggregates =
      analysis::aggregate(study.hitlist().seen, registry);
  report.per_server = study.per_server_counts();

  report.ntp_iids = analysis::classify_addresses(ntp_addrs);
  report.hitlist_iids =
      analysis::classify_addresses(study.hitlist().public_list);
  report.ntp_eyeball_share =
      analysis::cable_dsl_isp_share(ntp_addrs, registry);
  report.hitlist_eyeball_share =
      analysis::cable_dsl_isp_share(study.hitlist().public_list, registry);

  report.ntp_scans = summarize_scans(study, scan::Dataset::kNtp);
  report.hitlist_scans = summarize_scans(study, scan::Dataset::kHitlist);

  // Top title groups by unique certificate.
  std::vector<analysis::TitleObservation> obs;
  for (auto ds : {scan::Dataset::kNtp, scan::Dataset::kHitlist}) {
    std::unordered_set<std::uint64_t> seen;
    for (const auto* r :
         study.results().successes(ds, scan::Protocol::kHttps)) {
      if (r->http_status != 200 || !r->certificate) continue;
      if (!seen.insert(r->certificate->fingerprint).second) continue;
      obs.push_back({r->http_title, ds, 1});
    }
  }
  for (const auto& g : analysis::group_titles(obs)) {
    if (report.title_groups.size() >= 15) break;
    report.title_groups.push_back(
        {g.representative.empty() ? "(no title present)" : g.representative,
         g.ntp, g.hitlist});
  }

  auto ntp_hosts =
      analysis::dedup_ssh_hosts(study.results(), scan::Dataset::kNtp);
  auto hit_hosts =
      analysis::dedup_ssh_hosts(study.results(), scan::Dataset::kHitlist);
  report.ntp_ssh_outdated = analysis::outdatedness(ntp_hosts);
  report.hitlist_ssh_outdated = analysis::outdatedness(hit_hosts);
  report.ntp_mqtt_auth = analysis::access_control_by_address(
      study.results(), scan::Dataset::kNtp, analysis::BrokerKind::kMqtt);
  report.hitlist_mqtt_auth = analysis::access_control_by_address(
      study.results(), scan::Dataset::kHitlist, analysis::BrokerKind::kMqtt);
  report.ntp_security =
      analysis::security_score(study.results(), scan::Dataset::kNtp);
  report.hitlist_security =
      analysis::security_score(study.results(), scan::Dataset::kHitlist);

  report.ntp_host_bounds = analysis::estimate_hosts(
      study.results(), scan::Dataset::kNtp, registry);

  report.telescope = study.telescope_report();
  report.hit_rate = study.ntp_hit_rate();
  return report;
}

std::string render_markdown(const StudyReport& r) {
  std::ostringstream md;
  md << "# NTP-based IPv6 scanning — study report\n\n";

  md << "## Collection\n\n";
  md << "- distinct addresses: **" << util::grouped(r.collected_addresses)
     << "** from " << util::grouped(r.ntp_requests) << " NTP requests\n";
  md << "- networks: " << util::grouped(r.ntp_aggregates.nets48)
     << " /48s across " << r.ntp_aggregates.ases << " ASes, "
     << r.ntp_aggregates.countries << " countries\n";
  md << "- median addresses per /48: "
     << util::fixed(r.ntp_aggregates.median_ips_per_48, 1) << " (hitlist: "
     << util::fixed(r.hitlist_full_aggregates.median_ips_per_48, 1)
     << ")\n\n";

  md << "| server | collected |\n|---|---|\n";
  for (const auto& [country, count] : r.per_server)
    md << "| " << country << " | " << util::grouped(count) << " |\n";
  md << "\n";

  md << "## Address structure (Figure 1)\n\n";
  md << "| IID class | NTP | hitlist (public) |\n|---|---|---|\n";
  for (std::size_t i = 0; i < analysis::kIidClassCount; ++i) {
    auto cls = static_cast<analysis::IidClass>(i);
    md << "| " << to_string(cls) << " | "
       << util::percent(r.ntp_iids.fraction(cls)) << " | "
       << util::percent(r.hitlist_iids.fraction(cls)) << " |\n";
  }
  md << "| Cable/DSL/ISP AS share | "
     << util::percent(r.ntp_eyeball_share) << " | "
     << util::percent(r.hitlist_eyeball_share) << " |\n\n";

  md << "## Scans (Table 2)\n\n";
  for (const auto* summary : {&r.ntp_scans, &r.hitlist_scans}) {
    md << "**" << summary->dataset << "**\n\n";
    md << "| protocol | addresses | w/ TLS | certs/keys |\n|---|---|---|---|\n";
    for (const auto& row : summary->rows) {
      md << "| " << row.protocol << " | " << util::grouped(row.addresses)
         << " | " << util::grouped(row.tls_addresses) << " | "
         << util::grouped(row.certs_or_keys) << " |\n";
    }
    md << "\n";
  }

  md << "## Device types (Table 3, HTTPS by certificate)\n\n";
  md << "| title group | NTP | hitlist |\n|---|---|---|\n";
  for (const auto& g : r.title_groups)
    md << "| " << g.title << " | " << util::grouped(g.ntp) << " | "
       << util::grouped(g.hitlist) << " |\n";
  md << "\n";

  md << "## Security\n\n";
  md << "- outdated SSH: NTP "
     << util::percent(r.ntp_ssh_outdated.outdated_share()) << " vs hitlist "
     << util::percent(r.hitlist_ssh_outdated.outdated_share()) << "\n";
  md << "- MQTT access control: NTP "
     << util::percent(r.ntp_mqtt_auth.auth_share()) << " vs hitlist "
     << util::percent(r.hitlist_mqtt_auth.auth_share()) << "\n";
  md << "- secure share: NTP **"
     << util::percent(r.ntp_security.secure_share()) << "** ("
     << util::grouped(r.ntp_security.total_hosts()) << " hosts) vs hitlist **"
     << util::percent(r.hitlist_security.secure_share()) << "** ("
     << util::grouped(r.hitlist_security.total_hosts()) << " hosts)\n";
  md << "- unique-host bounds (NTP, HTTP+SSH): "
     << util::grouped(r.ntp_host_bounds.lower) << " <= "
     << util::grouped(r.ntp_host_bounds.estimate) << " <= "
     << util::grouped(r.ntp_host_bounds.upper) << "\n";
  md << "- hit rate: " << util::permille(r.hit_rate) << "\n\n";

  md << "## Telescope (Section 5)\n\n";
  md << "| actor | class | ports | median delay | identified |\n"
     << "|---|---|---|---|---|\n";
  for (std::size_t i = 0; i < r.telescope.actors.size(); ++i) {
    const auto& a = r.telescope.actors[i];
    md << "| " << (i + 1) << " | " << to_string(a.classification) << " | "
       << a.ports.size() << " | " << simnet::format_duration(a.median_delay)
       << " | " << (a.identified ? "yes" : "no") << " |\n";
  }
  md << "\nAll " << r.telescope.matched_captures << " of "
     << r.telescope.total_captures
     << " captured packets matched an NTP query.\n";
  return md.str();
}

}  // namespace tts::core
