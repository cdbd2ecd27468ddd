// benchdiff: compare two BENCH_*.json perf-trajectory samples (schema v1,
// emitted by bench/common.hpp) and fail on regressions.
//
//   benchdiff <baseline.json> <current.json> [--tolerance=R]
//             [--wall-tolerance=R] [--quiet]
//
// Metrics fall into two classes with separate tolerances:
//   * sim-deterministic counts (events_executed, addresses_collected, ...):
//     bit-stable for a given seed/scale, so any relative drift beyond
//     --tolerance (default 0.25) fails in EITHER direction — a silent
//     behaviour change is as suspect as a slowdown.
//   * wall metrics (dispatch_*_ns, wall_seconds, rss_peak_kb: lower is
//     better; *_per_sec_wall: higher is better): machine-noisy, compared
//     one-sided against --wall-tolerance (default 0.5; CI uses a looser
//     value across runner generations).
//
// Exit codes: 0 = within tolerance, 1 = regression/drift, 2 = usage or
// parse error.
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Sample {
  int schema = 0;
  std::string name;
  std::string scale;
  // Ordered: the report lists metrics in emission order.
  std::vector<std::pair<std::string, double>> metrics;
  const double* find(const std::string& key) const {
    for (const auto& [k, v] : metrics)
      if (k == key) return &v;
    return nullptr;
  }
};

// Minimal parser for the exact JSON subset emit_bench_json writes: one
// object with scalar fields and one flat "metrics" object of numbers.
class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  bool parse(Sample& out) {
    skip_ws();
    if (!eat('{')) return false;
    while (true) {
      skip_ws();
      if (eat('}')) return true;
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (key == "metrics") {
        if (!parse_metrics(out)) return false;
      } else if (key == "schema") {
        double v;
        if (!parse_number(v)) return false;
        // Range-checked before the cast, which is undefined outside int.
        if (std::fabs(v) > 1e6) return false;
        out.schema = static_cast<int>(v);
      } else if (key == "name") {
        if (!parse_string(out.name)) return false;
      } else if (key == "scale") {
        if (!parse_string(out.scale)) return false;
      } else {
        if (!skip_value()) return false;  // forward-compat: ignore
      }
      skip_ws();
      if (eat(',')) continue;
      skip_ws();
      if (eat('}')) return true;
      return false;
    }
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') return false;  // emitter never escapes
      out += text_[pos_++];
    }
    return eat('"');
  }
  // A finite number: strtod also reads "nan", "inf" and overflows to
  // infinity, and any of those would compare as within tolerance.
  bool parse_number(double& out) {
    char* end = nullptr;
    out = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_ || !std::isfinite(out)) return false;
    pos_ = static_cast<std::size_t>(end - text_.c_str());
    return true;
  }
  bool parse_metrics(Sample& out) {
    if (!eat('{')) return false;
    while (true) {
      skip_ws();
      if (eat('}')) return true;
      std::string key;
      double value;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!parse_number(value)) return false;
      out.metrics.emplace_back(std::move(key), value);
      skip_ws();
      if (eat(',')) continue;
      skip_ws();
      if (eat('}')) return true;
      return false;
    }
  }
  bool skip_value() {
    // Good enough for scalars (the only unknown fields a future schema
    // could add at the top level without bumping the version).
    if (text_[pos_] == '"') {
      std::string ignored;
      return parse_string(ignored);
    }
    double ignored;
    return parse_number(ignored);
  }

  std::string text_;
  std::size_t pos_ = 0;
};

bool load(const char* path, Sample& out, std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = std::string("cannot open ") + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (!Parser(buf.str()).parse(out)) {
    error = std::string("malformed sample: ") + path;
    return false;
  }
  if (out.schema != 1) {
    error = std::string(path) + ": unsupported schema " +
            std::to_string(out.schema);
    return false;
  }
  return true;
}

enum class Class { kSimCount, kWallLowerBetter, kWallHigherBetter };

Class classify(const std::string& key) {
  if (key.find("per_sec_wall") != std::string::npos)
    return Class::kWallHigherBetter;
  auto ends_with = [&key](const char* suffix) {
    std::size_t n = std::strlen(suffix);
    return key.size() >= n && key.compare(key.size() - n, n, suffix) == 0;
  };
  if (ends_with("_ns") || key == "wall_seconds" || key == "rss_peak_kb")
    return Class::kWallLowerBetter;
  return Class::kSimCount;
}

// A tolerance flag's value: the whole text must be one number; anything
// else reads as NaN, which the usage check rejects.
double parse_ratio(const char* text) {
  char* end = nullptr;
  double r = std::strtod(text, &end);
  return end != text && *end == '\0' ? r : std::nan("");
}

std::string pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.1f%%", ratio * 100.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 0.25;
  double wall_tolerance = 0.5;
  bool quiet = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--tolerance=", 12) == 0) {
      tolerance = parse_ratio(arg + 12);
    } else if (std::strncmp(arg, "--wall-tolerance=", 17) == 0) {
      wall_tolerance = parse_ratio(arg + 17);
    } else if (std::strcmp(arg, "--quiet") == 0) {
      quiet = true;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "benchdiff: unknown flag %s\n", arg);
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  auto valid = [](double r) { return r > 0 && std::isfinite(r); };
  if (files.size() != 2 || !valid(tolerance) || !valid(wall_tolerance)) {
    std::fprintf(stderr,
                 "usage: benchdiff <baseline.json> <current.json> "
                 "[--tolerance=R] [--wall-tolerance=R] [--quiet]\n");
    return 2;
  }

  Sample baseline, current;
  std::string error;
  if (!load(files[0], baseline, error) || !load(files[1], current, error)) {
    std::fprintf(stderr, "benchdiff: %s\n", error.c_str());
    return 2;
  }
  if (baseline.name != current.name || baseline.scale != current.scale) {
    std::fprintf(stderr,
                 "benchdiff: comparing different samples: %s/%s vs %s/%s\n",
                 baseline.name.c_str(), baseline.scale.c_str(),
                 current.name.c_str(), current.scale.c_str());
    return 2;
  }

  int failures = 0;
  if (!quiet)
    std::printf("%-24s %14s %14s %9s  %s\n", "metric", "baseline", "current",
                "change", "verdict");
  for (const auto& [key, base] : baseline.metrics) {
    const double* cur = current.find(key);
    if (!cur) {
      // A wall metric can legitimately vanish (e.g. dispatch histogram
      // empty when sampling saw no events); a sim count cannot.
      bool fatal = classify(key) == Class::kSimCount;
      if (fatal) ++failures;
      if (!quiet)
        std::printf("%-24s %14.6g %14s %9s  %s\n", key.c_str(), base, "-",
                    "-", fatal ? "MISSING" : "missing (ok)");
      continue;
    }
    double ratio = base != 0 ? (*cur - base) / std::fabs(base)
                   : (*cur == 0 ? 0.0 : HUGE_VAL);
    bool fail = false;
    const char* verdict = "ok";
    switch (classify(key)) {
      case Class::kSimCount:
        fail = std::fabs(ratio) > tolerance;
        if (fail) verdict = "DRIFT";
        break;
      case Class::kWallLowerBetter:
        fail = ratio > wall_tolerance;
        if (fail) verdict = "REGRESSED";
        break;
      case Class::kWallHigherBetter:
        fail = -ratio > wall_tolerance;
        if (fail) verdict = "REGRESSED";
        break;
    }
    if (fail) ++failures;
    if (!quiet)
      std::printf("%-24s %14.6g %14.6g %9s  %s\n", key.c_str(), base, *cur,
                  pct(ratio).c_str(), verdict);
  }
  for (const auto& [key, value] : current.metrics) {
    if (!baseline.find(key) && !quiet)
      std::printf("%-24s %14s %14.6g %9s  new metric\n", key.c_str(), "-",
                  value, "-");
  }

  if (failures) {
    std::fprintf(stderr, "benchdiff: %d metric(s) out of tolerance\n",
                 failures);
    return 1;
  }
  if (!quiet) std::printf("benchdiff: all metrics within tolerance\n");
  return 0;
}
