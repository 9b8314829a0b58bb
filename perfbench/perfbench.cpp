// perfbench: load generator and timed runner of the whole-run replay
// benchmark (README.md in this directory).
//
//   perfbench gen --workload W --seed N --scale full|smoke --out DIR
//   perfbench run --workload W --seed N --scale full|smoke --input DIR
//                 --work DIR [--traced] [--spans FILE]
//
// `gen` turns the seed into the workload's job trace in a process of its
// own, so generation never enters a timed number. `run` performs ONE
// user-visible run over that trace, making the same public calls in the
// same order as `cmvrp_cli trace replay` / `stream --trace … --record`,
// timing each call from outside, checks the outcome, and prints one JSON
// line.
// `--traced` turns on the Tier-A counters and records a span around every
// public call (kept in memory, written as Chrome trace-event JSON to
// --spans when the run ends); the untraced run records no spans.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "online/capacity_search.h"
#include "record/recorder.h"
#include "stream/engine.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "util/check.h"
#include "util/digest.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/stream_gen.h"

using namespace cmvrp;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

// --- workloads ---------------------------------------------------------------

enum class Shape { kGradient, kUniform };

struct Workload {
  std::string name;
  Shape shape = Shape::kUniform;
  std::int64_t box = 0;    // input box side, in cells (box^2 region)
  std::int64_t count = 0;  // arrivals
  double sigma = 0.0;      // gradient spread
  bool theory_sized = false;  // size the fleet from the demand (no pinning)
  double capacity = 0.0;      // pinned W
  std::int64_t cube_side = 0;  // pinned cube side
  std::int64_t monitor_stride = 1;
  std::int64_t batch = 256;
  bool record = false;  // OutcomeRecorder + StatsSnapshotter attached
};

constexpr std::int64_t kStatsStride = 16;

// The workload table. `smoke` shrinks every input to a few seconds of
// work (the box too for wide-sized, whose sizing scan grows with it).
Workload workload_for(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "wide-sized") {
    w.shape = Shape::kGradient;
    w.box = smoke ? 128 : 256;  // side 16 x 16 cubes (x 8 when smoke)
    w.count = smoke ? 4000 : 400000;
    w.sigma = 8.0;
    w.theory_sized = true;
    w.monitor_stride = 1;
    w.batch = 256;
    w.record = true;
  } else if (name == "flood-s16") {
    w.box = 96;
    w.count = smoke ? 4000 : 110000;
    w.capacity = 40.0;
    w.cube_side = 16;
    w.monitor_stride = 16;
    w.batch = 128;
  } else {
    CMVRP_CHECK_MSG(false, "unknown workload: " << name);
  }
  return w;
}

Box square(std::int64_t side) {
  return Box(Point{0, 0}, Point{side - 1, side - 1});
}

// --- tiny argument parser ----------------------------------------------------

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key) const {
    const auto it = flags.find(key);
    CMVRP_CHECK_MSG(it != flags.end(), "missing --" << key);
    return it->second;
  }
  bool has(const std::string& key) const { return flags.count(key) != 0; }
};

Args parse_args(int argc, char** argv) {
  Args a;
  CMVRP_CHECK_MSG(argc >= 2, "usage: perfbench gen|run --workload W ...");
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    CMVRP_CHECK_MSG(key.rfind("--", 0) == 0, "unexpected argument " << key);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      a.flags[key.substr(2)] = argv[++i];
    } else {
      a.flags[key.substr(2)] = "1";
    }
  }
  return a;
}

// --- one-line JSON output ----------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    std::ostringstream os;
    os << std::setprecision(17) << (std::isfinite(v) ? v : 0.0);
    return raw(key, os.str());
  }
  JsonObject& flag(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& list(const std::string& key, const std::vector<double>& v) {
    std::ostringstream os;
    os << std::setprecision(9) << '[';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? "," : "") << v[i];
    os << ']';
    return raw(key, os.str());
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ << (body_.tellp() > 0 ? "," : "") << '"' << key << "\":" << json;
    return *this;
  }
  std::string str() const { return "{" + body_.str() + "}"; }

 private:
  std::ostringstream body_;
};

// --- spans (traced runs only) ------------------------------------------------

enum class Layer { kBench, kTrace, kCore, kStream, kRecord, kObs };
constexpr std::size_t kLayers = 6;
constexpr std::array<const char*, kLayers> kLayerNames = {
    "bench", "trace", "core", "stream", "record", "obs"};

// Span recorder for the benchmark's own call sites: name, layer, start,
// end and parent (the span open when it began). Kept in memory; written
// once at the end of the run. Off = every call is a no-op.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}

  int open(const char* name, Layer layer) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, parent, now_us(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  // Summed duration of every span called `name`.
  double total_ms(const char* name) const {
    double us = 0.0;
    for (const Span& s : spans_)
      if (std::strcmp(s.name, name) == 0) us += s.end_us - s.start_us;
    return us / 1000.0;
  }

  // Per-layer self time: each span's duration minus its children's.
  std::array<double, kLayers> self_ms() const {
    std::vector<double> child_us(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    std::array<double, kLayers> out{};
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[static_cast<std::size_t>(s.layer)] +=
          (s.end_us - s.start_us - child_us[i]) / 1000.0;
    }
    return out;
  }

  // Chrome trace-event JSON ("X" complete events), one pid/tid: the
  // ingest thread, where every call above is made.
  void write_chrome(std::ostream& out, const std::string& workload) const {
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\""
        << workload << "\"},\"traceEvents\":[\n";
    out << std::fixed << std::setprecision(3);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"name\":\"" << s.name << "\",\"cat\":\""
          << kLayerNames[static_cast<std::size_t>(s.layer)]
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
          << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"id\":"
          << i << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
  }

 private:
  struct Span {
    const char* name;
    Layer layer;
    int parent;
    double start_us;
    double end_us;
  };

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;  // open spans, innermost last
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, Layer layer)
      : log_(log), id_(log.open(name, layer)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

// Forwards outcome batches to the recorder, with a span around each call:
// the time spent inside the recorder during ingest()/finish().
class TimedObserver final : public StreamObserver {
 public:
  TimedObserver(StreamObserver& inner, SpanLog& log)
      : inner_(inner), log_(log) {}
  void on_batch(const JobOutcome* outcomes, std::size_t count) override {
    ScopedSpan span(log_, "record.on_batch", Layer::kRecord);
    inner_.on_batch(outcomes, count);
  }
  void on_inject(const Point& home) override { inner_.on_inject(home); }

 private:
  StreamObserver& inner_;
  SpanLog& log_;
};

// --- outcome digests and checks ---------------------------------------------

// FNV-1a over the deterministic OnlineMetrics fields (doubles by bits).
std::uint64_t metrics_digest(const OnlineMetrics& m) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  auto bits = [](double d) {
    std::uint64_t u = 0;
    std::memcpy(&u, &d, sizeof u);
    return u;
  };
  for (const std::uint64_t v :
       {m.jobs_served, m.jobs_failed, m.replacements, m.computations_started,
        m.computations_failed, m.monitor_initiations, m.network.queries,
        m.network.replies, m.network.moves, m.network.heartbeats,
        m.network.heartbeat_skips, bits(m.max_energy_spent),
        bits(m.total_energy_spent), m.total_travel})
    mix(v);
  return h;
}

class Checks {
 public:
  void expect(const std::string& name, bool ok) {
    results_.emplace_back(name, ok);
    if (!ok) std::cerr << "perfbench: check failed: " << name << "\n";
  }
  std::string json() const {
    JsonObject o;
    for (const auto& [name, ok] : results_) o.flag(name, ok);
    return o.str();
  }

 private:
  std::vector<std::pair<std::string, bool>> results_;
};

// served + failed + shed index sets are disjoint and cover 0..n-1.
bool partitions(const StreamResult& r, std::uint64_t n) {
  if (r.served_jobs.size() + r.failed_jobs.size() + r.shed_jobs.size() != n ||
      r.metrics.jobs_served != r.served_jobs.size() ||
      r.metrics.jobs_failed != r.failed_jobs.size() ||
      r.jobs_shed + r.jobs_rejected != r.shed_jobs.size())
    return false;
  std::vector<bool> seen(n, false);
  for (const auto* set : {&r.served_jobs, &r.failed_jobs, &r.shed_jobs}) {
    for (const std::int64_t i : *set) {
      if (i < 0 || static_cast<std::uint64_t>(i) >= n) return false;
      if (seen[static_cast<std::size_t>(i)]) return false;
      seen[static_cast<std::size_t>(i)] = true;
    }
  }
  return true;
}

// Largest side of a box: what bounds the cube_bound side scan.
double largest_side(const Box& box) {
  std::int64_t side = 0;
  for (int i = 0; i < box.dim(); ++i) side = std::max(side, box.side(i));
  return static_cast<double>(side);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

void write_spans(const SpanLog& log, const Args& a, const Workload& w) {
  if (!a.has("spans")) return;
  std::ofstream out(a.get("spans"));
  log.write_chrome(out, w.name);
  out.flush();
  CMVRP_CHECK_MSG(out.good(), "failed writing spans: " << a.get("spans"));
}

// --- gen ---------------------------------------------------------------------

int cmd_gen(const Args& a, const Workload& w, std::uint64_t seed) {
  const std::string out = a.get("out");
  std::filesystem::create_directories(out);
  TraceWriter writer(out + "/jobs.trace", 2);
  if (w.shape == Shape::kGradient) {
    Rng rng(seed);
    drifting_gradient_stream(square(w.box), w.count, w.sigma, rng,
                             [&writer](const Job& job) { writer.append(job); });
  } else {
    // As `cmvrp_cli stream --n B --jobs N --seed S`: uniform demand from
    // the seed, expanded in a shuffled order drawn from seed + 1.
    Rng rng(seed);
    const DemandMap d = uniform_demand(square(w.box), w.count, rng);
    Rng order(seed + 1);
    const std::vector<Job> jobs =
        stream_from_demand(d, ArrivalOrder::kShuffled, order);
    writer.append(jobs.data(), jobs.size());
  }
  writer.close();
  return 0;
}

// --- run: trace replay through the stream engine ----------------------------

int run_stream(const Args& a, const Workload& w, std::uint64_t seed) {
  const bool traced = a.has("traced");
  const std::string trace_path = a.get("input") + "/jobs.trace";
  const std::string work = a.get("work");
  const std::string outcomes_path = work + "/outcomes.trace";
  const std::string stats_path = work + "/stats.jsonl";
  std::filesystem::create_directories(work);

  SpanLog log(traced);
  std::optional<TraceReader> reader;
  std::optional<StreamEngine> engine;
  std::optional<OutcomeRecorder> recorder;
  std::optional<TimedObserver> timed_recorder;
  std::ofstream stats_out;
  std::optional<StatsSnapshotter> stats;
  StreamConfig cfg;
  DemandMap demand(2);
  std::vector<double> batch_ms;
  double feed_cpu_s = 0.0;  // process CPU time of the feed loop
  StreamResult r;

  const Clock::time_point t0 = Clock::now();
  Clock::time_point t_setup, t_served;
  {
    ScopedSpan run(log, "run", Layer::kBench);
    {
      ScopedSpan setup(log, "setup", Layer::kBench);
      {
        ScopedSpan s(log, "trace.open", Layer::kTrace);
        reader.emplace(trace_path);
      }
      CMVRP_CHECK_MSG(reader->job_count() > 0, "trace has no jobs");
      // One worker on every workload: on a shared host, runs with a worker
      // pool stalled at each fork/join barrier whenever one vCPU was slowed.
      cfg.threads = 1;
      cfg.batch_size = w.batch;
      cfg.online.seed = seed;
      if (w.theory_sized) {
        {
          ScopedSpan s(log, "trace.demand", Layer::kTrace);
          demand = trace_demand(*reader);
        }
        {
          ScopedSpan s(log, "core.size", Layer::kCore);
          cfg.online = default_online_config(demand, seed);
        }
        cfg.region = demand.bounding_box();
      } else {
        cfg.online.capacity = w.capacity;
        cfg.online.cube_side = w.cube_side;
        cfg.online.anchor = Point::origin(reader->dim());
      }
      cfg.online.monitor_stride = w.monitor_stride;
      cfg.online.obs.counters = traced;
      {
        ScopedSpan s(log, "stream.ctor", Layer::kStream);
        engine.emplace(reader->dim(), cfg);
      }
      if (w.record) {
        {
          ScopedSpan s(log, "record.open", Layer::kRecord);
          recorder.emplace(outcomes_path, reader->dim());
        }
        if (traced) {
          timed_recorder.emplace(*recorder, log);
          engine->set_observer(&*timed_recorder);
        } else {
          engine->set_observer(&*recorder);
        }
        ScopedSpan s(log, "obs.stats_open", Layer::kObs);
        stats_out.open(stats_path);
        CMVRP_CHECK_MSG(stats_out.good(), "cannot open " << stats_path);
        stats.emplace(stats_out, kStatsStride);
        engine->set_snapshotter(&*stats);
      }
    }
    t_setup = Clock::now();
    {
      // Closed loop: one feeder; the next batch is read only once the
      // previous ingest() has returned (TraceReplayer::replay's loop).
      ScopedSpan serve(log, "serve", Layer::kBench);
      const double cpu0 = cpu_seconds();
      std::vector<Job> chunk(static_cast<std::size_t>(w.batch));
      batch_ms.reserve(reader->job_count() / chunk.size() + 1);
      while (true) {
        ScopedSpan feed(log, "feed", Layer::kBench);
        std::size_t n = 0;
        {
          ScopedSpan s(log, "trace.read", Layer::kTrace);
          n = reader->next_batch(chunk.data(), chunk.size());
        }
        if (n == 0) break;
        const Clock::time_point b0 = Clock::now();
        {
          ScopedSpan s(log, "stream.ingest", Layer::kStream);
          engine->ingest(chunk.data(), n);
        }
        batch_ms.push_back(ms_between(b0, Clock::now()));
      }
      feed_cpu_s = cpu_seconds() - cpu0;
      ScopedSpan s(log, "stream.finish", Layer::kStream);
      r = engine->finish();
    }
    t_served = Clock::now();
    ScopedSpan teardown(log, "teardown", Layer::kBench);
    if (recorder) {
      ScopedSpan s(log, "record.close", Layer::kRecord);
      recorder->close();
    }
    if (stats) {
      ScopedSpan s(log, "obs.stats_close", Layer::kObs);
      stats_out.flush();
      CMVRP_CHECK_MSG(stats_out.good(), "failed writing " << stats_path);
    }
  }
  const Clock::time_point t_end = Clock::now();
  const double rss_kb = peak_rss_kb();

  const std::uint64_t n = reader->job_count();
  Checks checks;
  checks.expect("all_jobs_ingested", r.jobs_ingested == n);
  checks.expect("served_failed_shed_partition_arrivals", partitions(r, n));
  checks.expect("max_energy_le_capacity",
                r.metrics.max_energy_spent <= cfg.online.capacity);
  if (recorder) {
    checks.expect("recorder_digests_equal_result",
                  recorder->recorded() == n &&
                      recorder->served_digest() ==
                          index_set_digest(r.served_jobs) &&
                      recorder->failed_digest() ==
                          index_set_digest(r.failed_jobs) &&
                      recorder->dropped_digest() ==
                          index_set_digest(r.shed_jobs));
  }
  const std::uint64_t flood_bound = query_flood_bound(
      cfg.online.cube_side, cfg.online.neighbor_radius, reader->dim());
  if (traced) {
    checks.expect("max_queries_per_comp_le_flood_bound",
                  r.counters.max_queries_per_comp <= flood_bound);
  }

  const NetworkStats& net = r.metrics.network;
  const double arrivals = static_cast<double>(n);
  JsonObject digests;
  digests.str("served", digest_hex(index_set_digest(r.served_jobs)))
      .str("failed", digest_hex(index_set_digest(r.failed_jobs)))
      .str("shed", digest_hex(index_set_digest(r.shed_jobs)))
      .str("metrics", digest_hex(metrics_digest(r.metrics)))
      .str("counters", digest_hex(r.counters.digest()));

  JsonObject out;
  out.str("workload", w.name)
      .flag("traced", traced)
      .num("setup_s", ms_between(t0, t_setup) / 1000.0)
      .num("total_s", ms_between(t0, t_end) / 1000.0)
      .num("serve_s", ms_between(t_setup, t_served) / 1000.0)
      .num("arrivals", arrivals)
      .num("peak_rss_kb", rss_kb)
      .num("msgs_per_job", static_cast<double>(net.total()) / arrivals)
      .num("failed_frac", static_cast<double>(r.metrics.jobs_failed +
                                              r.jobs_shed + r.jobs_rejected) /
                              arrivals)
      .list("batch_ms", batch_ms)
      .raw("digests", digests.str())
      .raw("checks", checks.json());

  if (traced) {
    // Grid facts of the demand the sizing scan saw; pinned runs never
    // induce it, so it is induced here, after the timed run, for context.
    if (!w.theory_sized) {
      TraceReader again(trace_path);
      demand = trace_demand(again);
    }
    const CubeCounters& c = r.counters;
    const double ingest_ms = log.total_ms("stream.ingest");
    JsonObject layers;
    layers.num("trace.open_ms", log.total_ms("trace.open"))
        .num("trace.demand_ms", log.total_ms("trace.demand"))
        .num("trace.read_ms", log.total_ms("trace.read"))
        .num("trace.bytes", static_cast<double>(file_bytes(trace_path)))
        .num("grid.bbox_extent", largest_side(demand.bounding_box()))
        .num("grid.support", static_cast<double>(demand.support_size()))
        .num("core.size_ms", log.total_ms("core.size"))
        .num("core.cube_side", static_cast<double>(cfg.online.cube_side))
        .num("core.capacity", cfg.online.capacity)
        // default_online_config sets W = won_upper_bound(omega_c, dim).
        .num("core.omega_c",
             w.theory_sized ? cfg.online.capacity /
                                  won_upper_bound(1.0, reader->dim())
                            : 0.0)
        .num("stream.ctor_ms", log.total_ms("stream.ctor"))
        .num("stream.ingest_ms", ingest_ms)
        .num("stream.finish_ms", log.total_ms("stream.finish"))
        .num("stream.route_ms", r.stages.route_ms)
        .num("stream.serve_ms", r.stages.serve_ms)
        .num("stream.cpu_util",
             feed_cpu_s /
                 (ingest_ms / 1000.0 * static_cast<double>(cfg.threads)))
        .num("stream.batches", static_cast<double>(r.batches))
        .num("stream.cubes", static_cast<double>(r.cubes))
        .num("stream.cube_slots", static_cast<double>(r.cube_slots))
        .num("online.replacements", static_cast<double>(r.metrics.replacements))
        .num("online.comps_started",
             static_cast<double>(r.metrics.computations_started))
        .num("online.comps_failed",
             static_cast<double>(r.metrics.computations_failed))
        .num("online.queries_per_repl",
             r.metrics.replacements == 0
                 ? 0.0
                 : static_cast<double>(net.queries) /
                       static_cast<double>(r.metrics.replacements))
        .num("online.flood_msgs",
             static_cast<double>(net.queries + net.replies + net.moves))
        .num("online.max_queries_per_comp",
             static_cast<double>(c.max_queries_per_comp))
        .num("online.flood_bound", static_cast<double>(flood_bound))
        .num("sim.messages", static_cast<double>(net.total()))
        .num("sim.heartbeats", static_cast<double>(net.heartbeats))
        .num("sim.heartbeats_elided", static_cast<double>(net.heartbeat_skips))
        .num("sim.heartbeat_useful_ratio",
             net.heartbeats == 0
                 ? 0.0
                 : static_cast<double>(net.heartbeats - net.heartbeat_skips) /
                       static_cast<double>(net.heartbeats))
        .num("record.on_batch_ms", log.total_ms("record.on_batch"))
        .num("record.close_ms", log.total_ms("record.close"))
        .num("record.bytes",
             static_cast<double>(recorder ? file_bytes(outcomes_path) : 0))
        .num("record.outcomes",
             static_cast<double>(recorder ? recorder->recorded() : 0))
        .num("obs.stats_lines",
             static_cast<double>(stats ? stats->lines_written() : 0))
        .num("obs.stats_bytes",
             static_cast<double>(stats ? file_bytes(stats_path) : 0));
    const auto self = log.self_ms();
    for (std::size_t i = 0; i < kLayers; ++i)
      layers.num(std::string(kLayerNames[i]) + ".self_ms", self[i]);
    out.raw("layers", layers.str());
    write_spans(log, a, w);
  }
  std::cout << out.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const Workload w =
        workload_for(a.get("workload"), a.get("scale") == "smoke");
    const std::uint64_t seed = std::stoull(a.get("seed"));
    if (a.command == "gen") return cmd_gen(a, w, seed);
    CMVRP_CHECK_MSG(a.command == "run", "unknown command: " << a.command);
    return run_stream(a, w, seed);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
