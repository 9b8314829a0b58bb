#include "obs/snapshot.h"

#include <cinttypes>
#include <cstdio>

#include "util/check.h"
#include "util/digest.h"

namespace cmvrp {
namespace {

void field_u64(std::string* line, const char* key, std::uint64_t value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  line->append(buf);
  line->push_back(',');
}

void field_i64(std::string* line, const char* key, std::int64_t value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, value);
  line->append(buf);
  line->push_back(',');
}

void field_ms(std::string* line, const char* key, double value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  line->append(buf);
  line->push_back(',');
}

void field_str(std::string* line, const char* key, const std::string& value) {
  line->push_back('"');
  line->append(key);
  line->append("\":\"");
  line->append(value);  // callers pass schema ids / hex digests: no escapes
  line->append("\",");
}

void field_bool(std::string* line, const char* key, bool value) {
  line->push_back('"');
  line->append(key);
  line->append("\":");
  line->append(value ? "true" : "false");
  line->push_back(',');
}

// The Tier-A block shared by sample / cube / final lines. Every field
// here is deterministic; the wall-clock block is appended separately.
void counter_fields(std::string* line, const CubeCounters& c) {
  field_u64(line, "msg_queries", c.msg_queries);
  field_u64(line, "msg_replies", c.msg_replies);
  field_u64(line, "msg_moves", c.msg_moves);
  field_u64(line, "msg_heartbeats", c.msg_heartbeats);
  field_u64(line, "msg_heartbeat_skips", c.msg_heartbeat_skips);
  field_u64(line, "msg_total", c.messages_total());
  field_u64(line, "comps_started", c.comps_started);
  field_u64(line, "comps_finished", c.comps_finished);
  field_u64(line, "comps_failed", c.comps_failed);
  field_u64(line, "monitor_initiations", c.monitor_initiations);
  field_u64(line, "replacements", c.replacements);
  field_u64(line, "max_queries_per_comp", c.max_queries_per_comp);
  field_u64(line, "arrivals", c.arrivals);
  field_u64(line, "served", c.served);
  field_u64(line, "failed", c.failed);
  field_u64(line, "enqueued", c.enqueued);
  field_u64(line, "shed", c.shed);
  field_u64(line, "rejected", c.rejected);
  field_u64(line, "backlog_peak", c.backlog_peak);
  field_u64(line, "spans_emitted", c.spans_emitted);
  field_u64(line, "spans_sampled_out", c.spans_sampled_out);
  field_u64(line, "spans_ring_evicted", c.spans_ring_evicted);
  field_u64(line, "cascade_count", c.cascade.count());
  field_i64(line, "cascade_p50", c.cascade.percentile(50.0));
  field_i64(line, "cascade_p99", c.cascade.percentile(99.0));
  field_i64(line, "cascade_max", c.cascade.observed_max());
  field_str(line, "counters_hash", digest_hex(c.digest()));
}

void stage_fields(std::string* line, const StageTimes& s) {
  field_ms(line, "stage_ingest_ms", s.ingest_ms);
  field_ms(line, "stage_route_ms", s.route_ms);
  field_ms(line, "stage_serve_ms", s.serve_ms);
  field_ms(line, "stage_fold_ms", s.fold_ms);
  field_ms(line, "stage_finish_ms", s.finish_ms);
  field_i64(line, "wall_rss_kb", current_rss_kb());
}

void finish_line(std::string* line, std::ostream& out) {
  CMVRP_CHECK(!line->empty() && line->back() == ',');
  line->back() = '}';
  line->push_back('\n');
  out << *line;
}

}  // namespace

StatsSnapshotter::StatsSnapshotter(std::ostream& out, std::int64_t stride)
    : out_(out), stride_(stride) {
  CMVRP_CHECK_MSG(stride >= 1, "stats stride must be >= 1 batch");
}

void StatsSnapshotter::write_header(int dim, int threads,
                                    std::int64_t batch_size,
                                    std::uint64_t seed, bool counters_on) {
  std::string line = "{";
  field_str(&line, "kind", "header");
  field_str(&line, "schema", kStatsSchema);
  field_i64(&line, "dim", dim);
  field_i64(&line, "threads", threads);
  field_i64(&line, "batch_size", batch_size);
  field_u64(&line, "seed", seed);
  field_i64(&line, "stride", stride_);
  field_bool(&line, "counters", counters_on);
  finish_line(&line, out_);
  ++lines_;
}

void StatsSnapshotter::write_sample(std::uint64_t batch,
                                    std::uint64_t jobs_ingested,
                                    const CubeCounters& totals,
                                    const StageTimes& stages) {
  std::string line = "{";
  field_str(&line, "kind", "sample");
  field_u64(&line, "batch", batch);
  field_u64(&line, "jobs", jobs_ingested);
  counter_fields(&line, totals);
  stage_fields(&line, stages);
  finish_line(&line, out_);
  ++lines_;
}

void StatsSnapshotter::write_cube(const Point& corner,
                                  const CubeCounters& counters,
                                  const LatencyHistogram& latency) {
  std::string line = "{";
  field_str(&line, "kind", "cube");
  line.append("\"corner\":[");
  for (int i = 0; i < corner.dim(); ++i) {
    if (i > 0) line.push_back(',');
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, corner[i]);
    line.append(buf);
  }
  line.append("],");
  counter_fields(&line, counters);
  field_u64(&line, "latency_count", latency.count());
  field_i64(&line, "latency_p50", latency.percentile(50.0));
  field_i64(&line, "latency_p90", latency.percentile(90.0));
  field_i64(&line, "latency_p99", latency.percentile(99.0));
  field_i64(&line, "latency_max", latency.observed_max());
  finish_line(&line, out_);
  ++lines_;
}

void StatsSnapshotter::write_final(std::uint64_t jobs_ingested,
                                   std::uint64_t cubes,
                                   const CubeCounters& totals,
                                   const StageTimes& stages) {
  std::string line = "{";
  field_str(&line, "kind", "final");
  field_u64(&line, "jobs", jobs_ingested);
  field_u64(&line, "cubes", cubes);
  counter_fields(&line, totals);
  // Derived ratio, still Tier A: both operands are deterministic
  // counters, and the fixed-precision rendering is reproducible.
  const double mpr =
      totals.replacements == 0
          ? 0.0
          : static_cast<double>(totals.messages_total()) /
                static_cast<double>(totals.replacements);
  field_ms(&line, "messages_per_replacement", mpr);
  stage_fields(&line, stages);
  finish_line(&line, out_);
  ++lines_;
}

}  // namespace cmvrp
