// Exporters: turn registry snapshots, heartbeat timelines and tracer
// aggregates into a human-readable table (util::TextTable), a JSONL dump
// (one instrument per line, machine-parseable — parse_jsonl() reads it
// back) and a Prometheus-style text exposition.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/heartbeat.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace tts::obs {

/// Metrics table: one row per instrument; histograms show count, mean and
/// p50/p95/max read off the bucket edges.
util::TextTable to_table(const RegistrySnapshot& snapshot,
                         std::string title = "metrics");

/// Label-prefix aggregation for high-cardinality instruments: any series
/// family whose *name* is listed keeps only its `top_n` largest members
/// (counters/histograms by count, gauges by value) and folds the rest into
/// one "<name>{series=other}" row whose detail says how many series it
/// rolled up. A family small enough that rolling saves nothing
/// (<= top_n + 1 members) renders in full.
struct TableRollup {
  std::vector<std::string> names;
  std::size_t top_n = 5;
};

/// to_table() with per-name rollup: a study's final-metrics table stays
/// readable when pool_selections{server=...}-style families grow with the
/// population instead of the instrument count.
util::TextTable to_table(const RegistrySnapshot& snapshot, std::string title,
                         const TableRollup& rollup);

/// Apply a rollup to a snapshot: listed families keep their top_n largest
/// members plus one synthetic "<name>{series=other}" aggregate. The result
/// feeds any exporter (and keeps the snapshot's sorted-by-name family
/// grouping, so Prometheus "# TYPE" runs stay contiguous).
RegistrySnapshot apply_rollup(const RegistrySnapshot& snapshot,
                              const TableRollup& rollup);

/// One JSON object per line:
///   {"at":0,"name":"x","labels":{"a":"b"},"kind":"counter","value":7}
/// Histograms carry "count","sum","min","max","counts": the counts run up to
/// the last non-empty bucket of the fixed layout, bucket i ending at
/// Histogram::bucket_upper(i).
std::string to_jsonl(const RegistrySnapshot& snapshot);
/// to_jsonl() after apply_rollup(): bounded-cardinality machine output.
std::string to_jsonl(const RegistrySnapshot& snapshot,
                     const TableRollup& rollup);

/// Prometheus text format: "# TYPE" comments, name{labels} value lines;
/// histograms expand to _bucket{le=...}/_sum/_count series, one le edge
/// per carried bucket plus le="+Inf".
std::string to_prometheus(const RegistrySnapshot& snapshot);
/// to_prometheus() after apply_rollup(): bounded-cardinality exposition.
std::string to_prometheus(const RegistrySnapshot& snapshot,
                          const TableRollup& rollup);

/// Parse a to_jsonl() dump back into a snapshot (values sorted as emitted).
/// Returns nullopt on malformed input. Only the subset of JSON that
/// to_jsonl emits is understood.
std::optional<RegistrySnapshot> parse_jsonl(const std::string& text);

/// Presentation knobs for timeline_table().
struct TimelineOptions {
  /// Append a "Δ<col>" column after each counter column: the per-interval
  /// increment (first row "-", no prior snapshot to diff against). Gauges
  /// stay absolute — a delta of a level reading is noise.
  bool deltas = false;
  /// Append a "<col>/s" column after each counter (and its delta): the
  /// per-interval rate over virtual time, so the per-day table reads like
  /// the paper's collection-rate discussion directly.
  bool rates = false;
};

/// Heartbeat timeline as a table: one row per snapshot, one column per
/// requested instrument (matched by SnapshotValue::full_name()); missing
/// instruments render as "-".
util::TextTable timeline_table(const std::vector<RegistrySnapshot>& timeline,
                               const std::vector<std::string>& columns,
                               std::string title = "heartbeat timeline",
                               TimelineOptions options = {});

/// Tracer aggregates: per span name, count and total/mean/max in both the
/// virtual and the wall clock.
util::TextTable span_table(const Tracer& tracer,
                           std::string title = "spans");

/// Presentation knobs for to_chrome_trace().
struct ChromeTraceOptions {
  /// Attach each span's measured wall-clock duration as an argument.
  /// Off by default so same-seed runs export bit-identical traces (wall
  /// readings are the only nondeterministic field in a SpanRecord).
  bool include_wall = false;
};

/// Chrome trace-event JSON over the tracer's ring (load in Perfetto or
/// chrome://tracing). The time axis is *virtual* time: ts is the span's
/// sim time directly (SimTime is already in microseconds, the unit the
/// format expects). Trace-linked spans (SpanRecord::trace != 0) become
/// async "b"/"e" pairs keyed by the TraceId, so every stage of one probe
/// lifecycle lands on a single named track and nested stages stack;
/// trace-linked instants become async instants ("n") on the same track.
/// Untraced spans render as complete events ("X") and untraced instants
/// as thread instants ("i"). Flight marks are instants named by their
/// FlightKind, with "args" {"detail","a","b"}.
std::string to_chrome_trace(const Tracer& tracer,
                            const ChromeTraceOptions& options = {});

}  // namespace tts::obs
