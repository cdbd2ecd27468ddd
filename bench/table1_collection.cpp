// Table 1: number of distinct IPs / /48 networks / ASes per dataset, with
// overlaps and median densities. The Rye-and-Levin column is regenerated by
// a second, collection-only study parameterised like their 2022 setup
// (27 servers, global spread) against the same synthetic Internet.
#include "common.hpp"

#include "analysis/network_agg.hpp"

using namespace tts;

int main() {
  core::Study& study = bench::shared_study();

  // R&L variant: 27 servers spread over all zone countries, collection only.
  std::cerr << "[bench] running R&L 2022 collection variant...\n";
  auto rl_config = core::make_study_config(bench::bench_scale());
  rl_config.seed ^= 0x2022;  // drift in dynamics since 2022
  rl_config.enable_ntp_scans = false;
  rl_config.enable_hitlist_scan = false;
  rl_config.enable_telescope = false;
  rl_config.enable_actors = false;
  rl_config.server_countries.clear();
  const auto& countries = inet::builtin_countries();
  for (std::size_t i = 0; rl_config.server_countries.size() < 27; ++i)
    rl_config.server_countries.push_back(
        countries[i % countries.size()].code);
  core::Study rl(rl_config);
  rl.run();

  auto ours = study.ntp_addresses();
  auto theirs = rl.ntp_addresses();
  const auto& hit_full = study.hitlist().full;
  const auto& hit_public = study.hitlist().public_list;
  const auto& reg = study.registry();

  net::AddressStore pub_store;
  pub_store.insert_batch(hit_public);
  auto agg_ours = analysis::aggregate(study.collector().addresses(), reg);
  auto agg_rl = analysis::aggregate(rl.collector().addresses(), rl.registry());
  auto agg_pub = analysis::aggregate(pub_store, reg);
  auto agg_full = analysis::aggregate(study.hitlist().seen, reg);

  auto ours48 = analysis::prefixes_of(ours, 48);
  auto ours_as = analysis::ases_of(ours, reg);

  util::TextTable t("Table 1: distinct IPs/networks per dataset");
  t.set_header({"", "Our Data", "R&L (regen.)", "TUM public", "TUM full"});
  t.add_row({"IP addresses", util::grouped(agg_ours.addresses),
             util::grouped(agg_rl.addresses), util::grouped(agg_pub.addresses),
             util::grouped(agg_full.addresses)});
  t.add_row({"... overlap w/ ours", "-",
             util::grouped(analysis::address_overlap(ours, theirs)),
             util::grouped(analysis::address_overlap(ours, hit_public)),
             util::grouped(analysis::address_overlap(ours, hit_full))});
  t.add_row({"/48 networks", util::grouped(agg_ours.nets48),
             util::grouped(agg_rl.nets48), util::grouped(agg_pub.nets48),
             util::grouped(agg_full.nets48)});
  t.add_row(
      {"... overlap w/ ours", "-",
       util::grouped(analysis::overlap(
           ours48, analysis::prefixes_of(theirs, 48))),
       util::grouped(analysis::overlap(
           ours48, analysis::prefixes_of(hit_public, 48))),
       util::grouped(analysis::overlap(
           ours48, analysis::prefixes_of(hit_full, 48)))});
  t.add_row({"ASes", util::grouped(agg_ours.ases), util::grouped(agg_rl.ases),
             util::grouped(agg_pub.ases), util::grouped(agg_full.ases)});
  t.add_row({"... overlap w/ ours", "-",
             util::grouped(analysis::overlap(
                 ours_as, analysis::ases_of(theirs, rl.registry()))),
             util::grouped(analysis::overlap(
                 ours_as, analysis::ases_of(hit_public, reg))),
             util::grouped(analysis::overlap(
                 ours_as, analysis::ases_of(hit_full, reg)))});
  t.add_rule();
  t.add_row({"median IPs in /48s", util::fixed(agg_ours.median_ips_per_48, 1),
             "-", util::fixed(agg_pub.median_ips_per_48, 1),
             util::fixed(agg_full.median_ips_per_48, 1)});
  t.add_row({"median IPs in ASes", util::fixed(agg_ours.median_ips_per_as, 1),
             "-", util::fixed(agg_pub.median_ips_per_as, 1),
             util::fixed(agg_full.median_ips_per_as, 1)});
  t.add_note("Paper: IPs 3 040 325 302 (ours) / 7 914 066 999 (R&L) / "
             "21 994 977 (public) / 2 104 362 964 (full);");
  t.add_note("median IPs per /48: 5 (ours) vs 1 (public) / 2 (full) — "
             "NTP-sourced networks are denser (client side).");
  bench::print_scale_note(t);
  t.render(std::cout);

  // Shape checks mirrored from the paper's reading of Table 1.
  bool denser = agg_ours.median_ips_per_48 > agg_full.median_ips_per_48;
  std::cout << "\nShape check: NTP /48s denser than hitlist /48s: "
            << (denser ? "PASS" : "FAIL") << "\n";
  return denser ? 0 : 1;
}
