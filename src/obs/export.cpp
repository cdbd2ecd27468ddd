#include "obs/export.hpp"

#include <algorithm>
#include <cctype>

#include "simnet/time.hpp"
#include "util/format.hpp"

namespace tts::obs {

namespace {

/// Append `s` as a JSON string literal. Every byte below 0x20 is escaped
/// (the short forms where JSON has one, \u00XX otherwise), so no control
/// byte — a newline above all, which ends a JSONL record — is ever written
/// raw. Bytes from 0x20 up pass through unchanged.
void append_json_string(std::string& out, const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[static_cast<unsigned char>(c) >> 4];
          out += kHex[static_cast<unsigned char>(c) & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string histogram_detail(const SnapshotValue& v) {
  if (v.count == 0) return "(empty)";
  auto pct = [&](double p) {
    return bucket_percentile(v.bucket_counts, v.count, v.max, p);
  };
  double mean =
      static_cast<double>(v.value) / static_cast<double>(v.count);
  return util::cat("mean=", util::fixed(mean, 1), " p50<=", pct(0.5),
                   " p95<=", pct(0.95), " max=", v.max);
}

// ------------------------------------------------- minimal JSON reading
// Just enough for what to_jsonl emits: flat objects with string keys,
// string / integer / string-map / integer-array values.

struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t')) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    skip_ws();
    return p < end && *p == c;
  }
  /// Consume `c` if it comes next; its absence is not an error.
  bool eat_if(char c) { return peek(c) && eat(c); }
};

/// Four hex digits of a \u escape; -1 when they are missing or malformed.
int parse_hex4(Cursor& c) {
  if (c.end - c.p < 4) return -1;
  int v = 0;
  for (int i = 0; i < 4; ++i) {
    char h = *c.p++;
    int d = h >= '0' && h <= '9'   ? h - '0'
            : h >= 'a' && h <= 'f' ? h - 'a' + 10
            : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                   : -1;
    if (d < 0) return -1;
    v = v * 16 + d;
  }
  return v;
}

void append_utf8(std::string& out, std::uint32_t cp) {
  auto byte = [&](std::uint32_t b) { out += static_cast<char>(b); };
  if (cp < 0x80) {
    byte(cp);
  } else if (cp < 0x800) {
    byte(0xc0 | cp >> 6);
    byte(0x80 | (cp & 0x3f));
  } else if (cp < 0x10000) {
    byte(0xe0 | cp >> 12);
    byte(0x80 | (cp >> 6 & 0x3f));
    byte(0x80 | (cp & 0x3f));
  } else {
    byte(0xf0 | cp >> 18);
    byte(0x80 | (cp >> 12 & 0x3f));
    byte(0x80 | (cp >> 6 & 0x3f));
    byte(0x80 | (cp & 0x3f));
  }
}

/// A JSON string literal, unescaped. A raw control byte, an unknown or
/// truncated escape, a lone UTF-16 surrogate or a missing closing quote
/// clears c.ok.
std::string parse_string(Cursor& c) {
  std::string out;
  if (!c.eat('"')) return out;
  while (c.p < c.end && *c.p != '"') {
    char ch = *c.p++;
    if (static_cast<unsigned char>(ch) < 0x20) {
      c.ok = false;
      return out;
    }
    if (ch != '\\') {
      out += ch;
      continue;
    }
    if (c.p >= c.end) {
      c.ok = false;
      return out;
    }
    switch (*c.p++) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case '/': out += '/'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        int unit = parse_hex4(c);
        if (unit < 0 || (unit >= 0xdc00 && unit <= 0xdfff)) {
          c.ok = false;
          return out;
        }
        auto cp = static_cast<std::uint32_t>(unit);
        if (unit >= 0xd800 && unit <= 0xdbff) {
          // A high surrogate must be followed by an escaped low one.
          int low = -1;
          if (c.end - c.p >= 2 && c.p[0] == '\\' && c.p[1] == 'u') {
            c.p += 2;
            low = parse_hex4(c);
          }
          if (low < 0xdc00 || low > 0xdfff) {
            c.ok = false;
            return out;
          }
          cp = 0x10000 + ((cp - 0xd800) << 10) +
               (static_cast<std::uint32_t>(low) - 0xdc00);
        }
        append_utf8(out, cp);
        break;
      }
      default:
        c.ok = false;
        return out;
    }
  }
  if (!c.eat('"')) c.ok = false;
  return out;
}

std::int64_t parse_int(Cursor& c) {
  c.skip_ws();
  bool neg = false;
  if (c.p < c.end && *c.p == '-') {
    neg = true;
    ++c.p;
  }
  if (c.p >= c.end || !std::isdigit(static_cast<unsigned char>(*c.p))) {
    c.ok = false;
    return 0;
  }
  // Accumulate the magnitude unsigned: a number outside int64 is
  // malformed input, not signed overflow.
  const std::uint64_t limit =
      neg ? std::uint64_t{1} << 63 : (std::uint64_t{1} << 63) - 1;
  std::uint64_t v = 0;
  while (c.p < c.end && std::isdigit(static_cast<unsigned char>(*c.p))) {
    const auto digit = static_cast<std::uint64_t>(*c.p++ - '0');
    if (v > (limit - digit) / 10) {
      c.ok = false;
      return 0;
    }
    v = v * 10 + digit;
  }
  return static_cast<std::int64_t>(neg ? 0 - v : v);
}

Labels parse_labels(Cursor& c) {
  Labels out;
  if (!c.eat('{')) return out;
  if (c.peek('}')) {
    c.eat('}');
    return out;
  }
  do {
    std::string key = parse_string(c);
    if (!c.ok || !c.eat(':')) return out;
    std::string value = parse_string(c);
    if (!c.ok) return out;
    out.emplace_back(std::move(key), std::move(value));
  } while (c.eat_if(','));
  c.eat('}');
  return out;
}

template <typename T>
std::vector<T> parse_int_array(Cursor& c) {
  std::vector<T> out;
  if (!c.eat('[')) return out;
  if (c.peek(']')) {
    c.eat(']');
    return out;
  }
  do {
    out.push_back(static_cast<T>(parse_int(c)));
  } while (c.ok && c.eat_if(','));
  c.eat(']');
  return out;
}

void add_value_row(util::TextTable& table, const SnapshotValue& v,
                   const std::string& extra_detail) {
  switch (v.kind) {
    case Kind::kCounter:
      table.add_row(
          {v.full_name(), "counter", util::grouped(v.count), extra_detail});
      break;
    case Kind::kGauge:
      table.add_row(
          {v.full_name(), "gauge", util::grouped(v.value), extra_detail});
      break;
    case Kind::kHistogram: {
      std::string detail = histogram_detail(v);
      if (!extra_detail.empty()) detail += util::cat("  ", extra_detail);
      table.add_row(
          {v.full_name(), "histogram", util::grouped(v.count), detail});
      break;
    }
  }
}

/// Ranking key for rollup: how "big" a series is.
std::uint64_t series_magnitude(const SnapshotValue& v) {
  if (v.kind == Kind::kGauge)
    return v.value < 0 ? 0 : static_cast<std::uint64_t>(v.value);
  return v.count;
}

/// One post-rollup output value. `folded` is how many series a synthetic
/// {series=other} aggregate absorbed (0 = the value passed through as-is).
struct RolledValue {
  SnapshotValue value;
  std::size_t folded = 0;
};

/// The shared rollup pass behind to_table/to_jsonl/to_prometheus: keep the
/// top_n largest members of each listed family, fold the rest into one
/// {series=other} aggregate.
std::vector<RolledValue> roll_values(const RegistrySnapshot& snapshot,
                                     const TableRollup& rollup) {
  std::vector<RolledValue> out;
  out.reserve(snapshot.values.size());
  auto rolled = [&](const std::string& name) {
    for (const auto& n : rollup.names)
      if (n == name) return true;
    return false;
  };
  // Snapshots are sorted by (name, labels), so a series family is one
  // contiguous run.
  for (std::size_t i = 0; i < snapshot.values.size();) {
    const SnapshotValue& v = snapshot.values[i];
    std::size_t end = i + 1;
    while (end < snapshot.values.size() &&
           snapshot.values[end].name == v.name)
      ++end;
    std::size_t family = end - i;
    if (!rolled(v.name) || family <= rollup.top_n + 1) {
      for (std::size_t j = i; j < end; ++j)
        out.push_back({snapshot.values[j], 0});
      i = end;
      continue;
    }
    std::vector<const SnapshotValue*> group;
    group.reserve(family);
    for (std::size_t j = i; j < end; ++j) group.push_back(&snapshot.values[j]);
    std::stable_sort(group.begin(), group.end(),
                     [](const SnapshotValue* a, const SnapshotValue* b) {
                       return series_magnitude(*a) > series_magnitude(*b);
                     });
    for (std::size_t k = 0; k < rollup.top_n; ++k)
      out.push_back({*group[k], 0});

    SnapshotValue other;
    other.name = v.name;
    other.labels = {{"series", "other"}};
    other.kind = v.kind;
    bool first_data = true;
    for (std::size_t k = rollup.top_n; k < group.size(); ++k) {
      const SnapshotValue& g = *group[k];
      other.count += g.count;
      other.value += g.value;
      if (g.kind == Kind::kHistogram && g.count > 0) {
        if (first_data) {
          other.min = g.min;
          other.max = g.max;
          first_data = false;
        } else {
          other.min = std::min(other.min, g.min);
          other.max = std::max(other.max, g.max);
        }
      }
      if (other.bucket_counts.size() < g.bucket_counts.size())
        other.bucket_counts.resize(g.bucket_counts.size());
      for (std::size_t b = 0; b < g.bucket_counts.size(); ++b)
        other.bucket_counts[b] += g.bucket_counts[b];
    }
    out.push_back({std::move(other), family - rollup.top_n});
    i = end;
  }
  return out;
}

}  // namespace

// ----------------------------------------------------------------- table

util::TextTable to_table(const RegistrySnapshot& snapshot,
                         std::string title) {
  return to_table(snapshot, std::move(title), TableRollup{});
}

util::TextTable to_table(const RegistrySnapshot& snapshot, std::string title,
                         const TableRollup& rollup) {
  util::TextTable table(std::move(title));
  table.set_header({"instrument", "kind", "value", "detail"},
                   {util::Align::kLeft, util::Align::kLeft,
                    util::Align::kRight, util::Align::kLeft});
  for (const RolledValue& rv : roll_values(snapshot, rollup))
    add_value_row(table, rv.value,
                  rv.folded ? util::cat("rollup of ", rv.folded, " series")
                            : std::string());
  table.add_note(util::cat("snapshot at virtual t = ",
                           simnet::format_duration(snapshot.at)));
  return table;
}

RegistrySnapshot apply_rollup(const RegistrySnapshot& snapshot,
                              const TableRollup& rollup) {
  RegistrySnapshot out;
  out.at = snapshot.at;
  std::vector<RolledValue> rolled = roll_values(snapshot, rollup);
  out.values.reserve(rolled.size());
  for (RolledValue& rv : rolled) out.values.push_back(std::move(rv.value));
  return out;
}

// ----------------------------------------------------------------- jsonl

std::string to_jsonl(const RegistrySnapshot& snapshot) {
  std::string out;
  for (const auto& v : snapshot.values) {
    out += util::cat("{\"at\":", snapshot.at, ",\"name\":");
    append_json_string(out, v.name);
    out += ",\"labels\":{";
    for (std::size_t i = 0; i < v.labels.size(); ++i) {
      if (i) out += ',';
      append_json_string(out, v.labels[i].first);
      out += ':';
      append_json_string(out, v.labels[i].second);
    }
    out += util::cat("},\"kind\":\"", to_string(v.kind), "\"");
    switch (v.kind) {
      case Kind::kCounter:
        out += util::cat(",\"value\":", v.count);
        break;
      case Kind::kGauge:
        out += util::cat(",\"value\":", v.value);
        break;
      case Kind::kHistogram: {
        out += util::cat(",\"count\":", v.count, ",\"sum\":", v.value,
                         ",\"min\":", v.min, ",\"max\":", v.max,
                         ",\"counts\":[");
        for (std::size_t i = 0; i < v.bucket_counts.size(); ++i)
          out += util::cat(i ? "," : "", v.bucket_counts[i]);
        out += "]";
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

std::string to_jsonl(const RegistrySnapshot& snapshot,
                     const TableRollup& rollup) {
  return to_jsonl(apply_rollup(snapshot, rollup));
}

std::optional<RegistrySnapshot> parse_jsonl(const std::string& text) {
  RegistrySnapshot snap;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (eol == pos) {
      ++pos;
      continue;
    }
    Cursor c{text.data() + pos, text.data() + eol};
    pos = eol + 1;

    SnapshotValue v;
    std::string kind;
    if (!c.eat('{')) return std::nullopt;
    do {
      std::string key = parse_string(c);
      if (!c.eat(':')) return std::nullopt;
      if (key == "at") {
        snap.at = parse_int(c);
      } else if (key == "name") {
        v.name = parse_string(c);
      } else if (key == "labels") {
        v.labels = parse_labels(c);
      } else if (key == "kind") {
        kind = parse_string(c);
      } else if (key == "value") {
        std::int64_t raw = parse_int(c);
        v.value = raw;
        v.count = static_cast<std::uint64_t>(raw < 0 ? 0 : raw);
      } else if (key == "count") {
        v.count = static_cast<std::uint64_t>(parse_int(c));
      } else if (key == "sum") {
        v.value = parse_int(c);
      } else if (key == "min") {
        v.min = parse_int(c);
      } else if (key == "max") {
        v.max = parse_int(c);
      } else if (key == "counts") {
        v.bucket_counts = parse_int_array<std::uint64_t>(c);
        // Exporters read bucket_upper(i) for every carried bucket.
        if (v.bucket_counts.size() > Histogram::kBuckets) return std::nullopt;
      } else {
        return std::nullopt;
      }
      if (!c.ok) return std::nullopt;
    } while (c.eat_if(','));
    if (!c.eat('}')) return std::nullopt;

    if (kind == "counter") {
      v.kind = Kind::kCounter;
      v.value = 0;
    } else if (kind == "gauge") {
      v.kind = Kind::kGauge;
      v.count = 0;
    } else if (kind == "histogram") {
      v.kind = Kind::kHistogram;
    } else {
      return std::nullopt;
    }
    snap.values.push_back(std::move(v));
  }
  return snap;
}

// ------------------------------------------------------------ prometheus

std::string to_prometheus(const RegistrySnapshot& snapshot) {
  std::string out;
  auto labels_text = [](const Labels& labels,
                        const std::string& extra = {}) -> std::string {
    if (labels.empty() && extra.empty()) return "";
    std::string s = "{";
    bool first = true;
    for (const auto& [k, val] : labels) {
      if (!first) s += ',';
      first = false;
      s += util::cat(k, "=\"", val, "\"");
    }
    if (!extra.empty()) {
      if (!first) s += ',';
      s += extra;
    }
    s += '}';
    return s;
  };
  std::string last_typed;
  for (const auto& v : snapshot.values) {
    if (v.name != last_typed) {
      out += util::cat("# TYPE ", v.name, " ", to_string(v.kind), "\n");
      last_typed = v.name;
    }
    switch (v.kind) {
      case Kind::kCounter:
        out += util::cat(v.name, labels_text(v.labels), " ", v.count, "\n");
        break;
      case Kind::kGauge:
        out += util::cat(v.name, labels_text(v.labels), " ", v.value, "\n");
        break;
      case Kind::kHistogram: {
        std::uint64_t cum = 0;
        auto bucket = [&](const std::string& le) {
          out += util::cat(v.name, "_bucket",
                           labels_text(v.labels, util::cat("le=\"", le, "\"")),
                           " ", cum, "\n");
        };
        for (std::size_t i = 0; i < v.bucket_counts.size(); ++i) {
          cum += v.bucket_counts[i];
          bucket(util::cat(Histogram::bucket_upper(i)));
        }
        bucket("+Inf");
        out += util::cat(v.name, "_sum", labels_text(v.labels), " ", v.value,
                         "\n");
        out += util::cat(v.name, "_count", labels_text(v.labels), " ",
                         v.count, "\n");
        break;
      }
    }
  }
  return out;
}

std::string to_prometheus(const RegistrySnapshot& snapshot,
                          const TableRollup& rollup) {
  return to_prometheus(apply_rollup(snapshot, rollup));
}

// -------------------------------------------------------------- timeline

util::TextTable timeline_table(const std::vector<RegistrySnapshot>& timeline,
                               const std::vector<std::string>& columns,
                               std::string title, TimelineOptions options) {
  // A column's kind comes from its first appearance in the timeline; the
  // delta/rate views only apply to monotone counters (a delta of a gauge
  // level reading is noise, so gauges keep a single absolute column).
  auto is_counter = [&timeline](const std::string& column) {
    for (const auto& snap : timeline)
      if (const SnapshotValue* v = snap.find(column))
        return v->kind != Kind::kGauge;
    return true;
  };

  util::TextTable table(std::move(title));
  std::vector<std::string> header{"t"};
  std::vector<util::Align> align{util::Align::kLeft};
  for (const auto& c : columns) {
    header.push_back(c);
    align.push_back(util::Align::kRight);
    if (!is_counter(c)) continue;
    if (options.deltas) {
      header.push_back(util::cat("Δ", c));
      align.push_back(util::Align::kRight);
    }
    if (options.rates) {
      header.push_back(util::cat(c, "/s"));
      align.push_back(util::Align::kRight);
    }
  }
  table.set_header(std::move(header), std::move(align));
  const RegistrySnapshot* prev = nullptr;
  for (const auto& snap : timeline) {
    std::vector<std::string> row{simnet::format_duration(snap.at)};
    for (const auto& c : columns) {
      const SnapshotValue* v = snap.find(c);
      bool counter = is_counter(c);
      if (!v) {
        row.push_back("-");
      } else if (!counter) {
        row.push_back(util::grouped(v->value));
      } else {
        row.push_back(util::grouped(v->count));
      }
      if (!counter) continue;
      const SnapshotValue* pv = prev ? prev->find(c) : nullptr;
      bool have_delta = v && pv && v->count >= pv->count;
      std::uint64_t delta = have_delta ? v->count - pv->count : 0;
      if (options.deltas)
        row.push_back(have_delta ? util::grouped(delta) : std::string("-"));
      if (options.rates) {
        double interval_s =
            prev ? static_cast<double>(snap.at - prev->at) / 1e6 : 0.0;
        row.push_back(have_delta && interval_s > 0
                          ? util::fixed(static_cast<double>(delta) /
                                            interval_s,
                                        2)
                          : std::string("-"));
      }
    }
    prev = &snap;
    table.add_row(std::move(row));
  }
  return table;
}

// ----------------------------------------------------------------- spans

util::TextTable span_table(const Tracer& tracer, std::string title) {
  util::TextTable table(std::move(title));
  table.set_header({"span", "count", "sim total", "sim max", "wall total",
                    "wall max"},
                   {util::Align::kLeft});
  auto wall_ms = [](std::int64_t ns) {
    return util::cat(util::fixed(static_cast<double>(ns) / 1e6, 2), " ms");
  };
  for (const auto& [name, s] : tracer.stats()) {
    table.add_row({name, util::grouped(s.count),
                   simnet::format_duration(s.total_sim),
                   simnet::format_duration(s.max_sim),
                   wall_ms(s.total_wall_ns), wall_ms(s.max_wall_ns)});
  }
  if (tracer.dropped() > 0)
    table.add_note(util::cat("ring dropped ", tracer.dropped(),
                             " oldest records (aggregates are complete)"));
  return table;
}

// ---------------------------------------------------------- chrome trace

std::string to_chrome_trace(const Tracer& tracer,
                            const ChromeTraceOptions& options) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto event = [&](const SpanRecord& rec, char ph, simnet::SimTime ts) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_json_string(out, rec.name);
    out += util::cat(",\"ph\":\"", std::string(1, ph),
                     "\",\"pid\":1,\"tid\":0,\"ts\":", ts);
    if (ph == 'X') out += util::cat(",\"dur\":", rec.sim_duration());
    if (ph == 'i') out += ",\"s\":\"t\"";
    if (rec.trace != 0)
      out += util::cat(",\"cat\":\"trace\",\"id\":\"0x",
                       util::hex64(rec.trace), "\"");
    if (options.include_wall && !rec.instant)
      out += util::cat(",\"args\":{\"wall_ns\":", rec.wall_ns, "}");
    if (rec.flight) {
      out += ",\"args\":{\"detail\":";
      append_json_string(out, rec.detail);
      out += util::cat(",\"a\":", rec.a, ",\"b\":", rec.b, "}");
    }
    out += '}';
  };
  // Flight marks are instants like any other: a trace-linked one (a shed,
  // a dropped retry) lands on its probe's async track.
  for (const SpanRecord& rec : tracer.records()) {
    if (rec.trace != 0 && !rec.instant) {
      // Async pair on the TraceId's track: stages of one probe lifecycle
      // share an id and nest by timestamp.
      event(rec, 'b', rec.sim_begin);
      event(rec, 'e', rec.sim_end);
    } else if (rec.trace != 0) {
      event(rec, 'n', rec.sim_begin);
    } else if (!rec.instant) {
      event(rec, 'X', rec.sim_begin);
    } else {
      event(rec, 'i', rec.sim_begin);
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace tts::obs
