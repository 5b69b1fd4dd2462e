// iobt benchmark harness.
//
//   iobt_perfbench --workload <sweep|serve|mission> --seed N --seconds S
//                  --trace <0|1> [--work-dir DIR] [--source-id ID]
//                  [--expect-digest HEX]
//
// Prints the workload's metrics one per line, a metadata JSON line, and as
// its last line one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end set, measured untraced; with
// --trace 1 they are the per-layer set, from a traced run. Every metric of
// the set is printed on every workload: a layer the workload never calls
// reads 0. Exits nonzero when an output check fails.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <thread>

#include "common.h"

namespace perfbench {

// ---------------------------------------------------------------- common --

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const auto i = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return xs[std::min(i, xs.size() - 1)];
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

std::vector<double> item_medians(const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  for (std::size_t i = 0; !rows.empty() && i < rows.front().size(); ++i) {
    std::vector<double> column;
    for (const auto& row : rows) column.push_back(row.at(i));
    out.push_back(median(std::move(column)));
  }
  return out;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, value, unit});
}
void Report::layer(const std::string& name, double value, const std::string& unit) {
  layers_.push_back({name, value, unit});
}
void Report::info(const std::string& name, double value, const std::string& unit) {
  infos_.push_back({name, value, unit});
}
void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}
void Report::fail(const std::string& what) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(what);
}

TagTotals tag_totals(const iobt::sim::Simulator& sim) {
  TagTotals t;
  for (const auto& row : sim.profile()) {
    t.executed[row.tag] = row.executed;
    t.busy_ms[row.tag] = row.busy_ms;
  }
  return t;
}

std::string tag_layer(const std::string& tag) {
  const std::string head = tag.substr(0, tag.find('.'));
  static const std::map<std::string, std::string> kLayers = {
      {"world", "things"},   {"net", "net"},          {"dissem", "dissem"},
      {"disc", "discovery"}, {"char", "discovery"},   {"mission", "core"},
      {"adapt", "adapt"},    {"reflex", "adapt"},     {"tree", "adapt"},
      {"attack", "security"}, {"social", "social"},   {"health", "diag"},
  };
  const auto it = kLayers.find(head);
  return it == kLayers.end() ? "other" : it->second;
}

int OpTrace::open(const std::string& name, const std::string& layer, int parent) {
  return record(name, layer, parent, wall_ms(), 0.0);
}

int OpTrace::record(const std::string& name, const std::string& layer, int parent,
                    double start_ms, double end_ms) {
  if (!on_) return -1;
  spans_.push_back(Span{name, layer, op_, parent, start_ms, end_ms, false});
  return static_cast<int>(spans_.size()) - 1;
}

void OpTrace::close(int span) {
  if (on_ && span >= 0) spans_[static_cast<std::size_t>(span)].end_ms = wall_ms();
}

void OpTrace::add_kernel(int parent, const TagTotals& before, const TagTotals& after) {
  if (!on_ || parent < 0) return;
  const double start = spans_[static_cast<std::size_t>(parent)].start_ms;
  for (const auto& [tag, busy] : after.busy_ms) {
    const auto b = before.busy_ms.find(tag);
    const double d = busy - (b == before.busy_ms.end() ? 0.0 : b->second);
    const auto e = before.executed.find(tag);
    const std::uint64_t n =
        after.executed.at(tag) - (e == before.executed.end() ? 0 : e->second);
    if (n == 0) continue;
    spans_.push_back(Span{tag, tag_layer(tag), op_, parent, start, start + d, true});
    kernel_counts_.emplace_back(spans_.size() - 1, n);
  }
}

void SpanLog::append(OpTrace& t) {
  if (!t.on()) return;
  std::vector<Span>& spans = t.spans();
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double dur = s.end_ms - s.start_ms;
    self_ms_[s.parent < 0 ? "other" : s.layer] += dur - child_ms[i];
    span_ms_[s.name] += dur;
    if (s.aggregate) tag_busy_ms_[s.name] += dur;
    if (s.parent < 0) {
      root_ms_ += dur;
      ++ops_;
    }
  }
  for (const auto& [idx, n] : t.kernel_counts()) tag_executed_[spans[idx].name] += n;
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

double SpanLog::self_ms(const std::string& layer) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = self_ms_.find(layer);
  return ops_ == 0 || it == self_ms_.end() ? 0.0 : it->second / static_cast<double>(ops_);
}

std::size_t SpanLog::ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

double SpanLog::op_wall_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_ == 0 ? 0.0 : root_ms_ / static_cast<double>(ops_);
}

std::uint64_t SpanLog::tag_executed(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t n = 0;
  for (const auto& [tag, c] : tag_executed_) {
    if (tag.rfind(prefix, 0) == 0) n += c;
  }
  return n;
}

double SpanLog::tag_busy_ms(const std::string& prefix) const {
  std::lock_guard<std::mutex> lock(mu_);
  double ms = 0.0;
  for (const auto& [tag, b] : tag_busy_ms_) {
    if (tag.rfind(prefix, 0) == 0) ms += b;
  }
  return ms;
}

double SpanLog::span_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = span_ms_.find(name);
  return it == span_ms_.end() ? 0.0 : it->second;
}

bool SpanLog::write_json(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start_ms;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%" PRIu64 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64
                  ",\"parent\":%d,\"aggregate\":%s}}",
                  i == 0 ? "" : ",\n", s.name.c_str(), s.layer.c_str(), s.op,
                  (s.start_ms - t0) * 1e3, (s.end_ms - s.start_ms) * 1e3, s.op,
                  s.parent, s.aggregate ? "true" : "false");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void SpanLog::report_layers(Report& r) const {
  const auto n = static_cast<double>(std::max<std::size_t>(1, ops()));
  const double wall = op_wall_ms();
  const double events = static_cast<double>(tag_executed("")) / n;
  const double dispatch = self_ms("sim");
  r.layer("sim.events", events, "count");
  r.layer("sim.dispatch_self_ms", dispatch, "ms");
  r.layer("sim.ns_per_event", events > 0 ? dispatch * 1e6 / events : 0.0, "ns");
  const double tick = tag_busy_ms("world.tick") / n;
  r.layer("things.tick_ms", tick, "ms");
  r.layer("things.tick_count", static_cast<double>(tag_executed("world.tick")) / n, "count");
  r.layer("things.tick_share", wall > 0 ? tick / wall : 0.0, "ratio");
  const auto deliveries = static_cast<double>(tag_executed("net.deliver"));
  const double deliver_ms = tag_busy_ms("net.deliver");
  r.layer("net.deliver_ms", deliver_ms / n, "ms");
  r.layer("net.deliver_count", deliveries / n, "count");
  r.layer("net.deliver_ns_each", deliveries > 0 ? deliver_ms * 1e6 / deliveries : 0.0, "ns");
  r.layer("dissem.gossip_ms", tag_busy_ms("dissem.") / n, "ms");
  r.layer("dissem.gossip_count", static_cast<double>(tag_executed("dissem.")) / n, "count");

  static const char* kLayers[] = {"build",  "sim",       "things",   "net",
                                  "dissem", "discovery", "synthesis", "core",
                                  "adapt",  "security",  "social",   "diag",
                                  "checkpoint", "wire",  "other"};
  for (const char* l : kLayers) r.layer(std::string("self_ms.") + l, self_ms(l), "ms");
  r.layer("self.other_share", wall > 0 ? self_ms("other") / wall : 0.0, "ratio");
}

}  // namespace perfbench

namespace {

using namespace perfbench;

// The metric sets, as BENCHMARK.json lists them (run.py checks that the two
// agree). Units are part of the contract.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},     {"peak_rss_mb", "MB"}, {"cpu_ms_per_op", "ms"},
    {"ops_per_s", "1/s"}, {"op_p50_ms", "ms"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.dispatch_self_ms", "ms"},
    {"sim.ns_per_event", "ns"},
    {"runner.utilization", "ratio"},
    {"runner.rep_ms_p50", "ms"},
    {"runner.rep_ms_max", "ms"},
    {"checkpoint.save_ms", "ms"},
    {"checkpoint.restore_ms", "ms"},
    {"wire.encode_ms", "ms"},
    {"wire.decode_ms", "ms"},
    {"wire.snapshot_bytes", "bytes"},
    {"things.tick_ms", "ms"},
    {"things.tick_count", "count"},
    {"things.tick_share", "ratio"},
    {"net.deliver_ms", "ms"},
    {"net.deliver_count", "count"},
    {"net.deliver_ns_each", "ns"},
    {"dissem.gossip_ms", "ms"},
    {"dissem.gossip_count", "count"},
    {"disc.beacon_ms", "ms"},
    {"disc.phase_ms", "ms"},
    {"synthesis.launch_ms", "ms"},
    {"core.mission_sweep_ms", "ms"},
    {"adapt.reflex_count", "count"},
    {"security.attack_ms", "ms"},
    {"serve.query_p50_ms.low", "ms"},
    {"serve.query_p99_ms.low", "ms"},
    {"serve.query_p50_ms.high", "ms"},
    {"serve.query_p99_ms.high", "ms"},
    {"serve.max_qps_at_slo", "1/s"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.service_ms_p50", "ms"},
    {"serve.batch_size_mean", "count"},
    {"serve.hit_rate", "ratio"},
    {"serve.disk_hit_rate", "ratio"},
    {"serve.prefix_sims", "count"},
    {"serve.evictions", "count"},
    {"serve.disk_stores", "count"},
    {"serve.disk_rejects", "count"},
    {"serve.gen_late_ms_p99", "ms"},
    {"serve.stack_build_ms", "ms"},
    {"serve.prefix_sim_ms", "ms"},
    {"serve.branch_run_ms", "ms"},
    {"serve.disk_put_ms", "ms"},
    {"serve.disk_get_ms", "ms"},
    {"trace.overhead", "ratio"},
    {"self_ms.build", "ms"},
    {"self_ms.sim", "ms"},
    {"self_ms.things", "ms"},
    {"self_ms.net", "ms"},
    {"self_ms.dissem", "ms"},
    {"self_ms.discovery", "ms"},
    {"self_ms.synthesis", "ms"},
    {"self_ms.core", "ms"},
    {"self_ms.adapt", "ms"},
    {"self_ms.security", "ms"},
    {"self_ms.social", "ms"},
    {"self_ms.diag", "ms"},
    {"self_ms.checkpoint", "ms"},
    {"self_ms.wire", "ms"},
    {"self_ms.other", "ms"},
    {"self.other_share", "ratio"},
};

void usage() {
  std::fprintf(stderr,
               "usage: iobt_perfbench --workload <sweep|serve|mission> --seed N "
               "--seconds S --trace <0|1> [--work-dir DIR] [--source-id ID]\n"
               "                      [--expect-digest HEX]\n");
}

std::string json_number(double v) {
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Host CPU time from /proc/stat as (busy, stolen) jiffies: stolen time is
/// when the hypervisor ran something else on this machine's CPUs.
std::pair<double, double> host_cpu_jiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0, steal = 0;
  stat >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> steal;
  return {user + nice + system + irq + softirq + steal, steal};
}

/// Selects the reported set, checks it against the canonical list, and
/// prints the result line. Returns the process exit code.
int finish(const RunConfig& cfg, Report& report) {
  const auto& emitted = cfg.trace ? report.layers() : report.metrics();
  std::map<std::string, Report::Entry> by_name;
  for (const auto& e : emitted) {
    if (!std::isfinite(e.value)) report.fail("metric " + e.name + " is not finite");
    by_name[e.name] = e;
  }
  // The reported set in canonical order. A layer this workload never calls
  // did no work: it reads 0. An end-to-end metric must be measured.
  std::vector<Report::Entry> out;
  const std::span<const MetricDef> set =
      cfg.trace ? std::span<const MetricDef>(kPerLayer) : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : set) {
    const auto it = by_name.find(m.name);
    if (it == by_name.end() && !cfg.trace) {
      report.fail(std::string("end-to-end metric not measured: ") + m.name);
    }
    out.push_back({m.name, it == by_name.end() ? 0.0 : it->second.value, m.unit});
    by_name.erase(m.name);
  }
  for (const auto& [name, e] : by_name) report.fail("metric not in the canonical set: " + name);

  for (const auto& e : report.infos()) {
    std::printf("  %-32s %14.4f %s\n", e.name.c_str(), e.value, e.unit.c_str());
  }
  std::string metrics;
  for (const auto& e : out) {
    std::printf("  %-32s %14.4f %s\n", e.name.c_str(), e.value, e.unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + e.name + "\": {\"value\": " + json_number(e.value) + ", \"unit\": \"" +
               e.unit + "\"}";
  }
  for (const auto& f : report.failures()) std::printf("CHECK FAILED: %s\n", f.c_str());

  std::string meta = "{\"workload\": \"" + cfg.workload + "\", \"seed\": " +
                     std::to_string(cfg.seed) + ", \"trace\": " +
                     (cfg.trace ? "1" : "0") + ", \"compiler\": \"" +
                     json_escape(PERFBENCH_COMPILER) + "\", \"build_type\": \"" +
                     PERFBENCH_BUILD_TYPE + "\", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"workers\": " + std::to_string(kWorkers) + ", \"source\": \"" +
                     json_escape(cfg.source_id) + "\"";
  for (const auto& [k, v] : report.notes()) meta += ", \"" + k + "\": \"" + json_escape(v) + "\"";
  meta += "}";
  std::printf("meta %s\n", meta.c_str());

  const bool correct = report.failed_count() == 0;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", std::max<std::size_t>(1, report.attempted_count()),
              report.failed_count(), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.work_dir = ".";
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::string_view(argv[++i]) == "1";
      have_trace = true;
    } else if (a == "--work-dir" && has_value) {
      cfg.work_dir = argv[++i];
    } else if (a == "--source-id" && has_value) {
      cfg.source_id = argv[++i];
    } else if (a == "--expect-digest" && has_value) {
      cfg.expect_digest = std::strtoull(argv[++i], nullptr, 16);
    } else {
      usage();
      return 2;
    }
  }
  if (cfg.workload.empty() || !have_trace || !(cfg.seconds > 0)) {
    usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.work_dir, ec);

  Report report;
  const auto [busy0, steal0] = host_cpu_jiffies();
  try {
    if (cfg.workload == "sweep") {
      run_sweep(cfg, report);
    } else if (cfg.workload == "serve") {
      run_serve(cfg, report);
    } else if (cfg.workload == "mission") {
      run_mission(cfg, report);
    } else {
      std::fprintf(stderr, "unknown workload: %s\n", cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s threw: %s\n", cfg.workload.c_str(), e.what());
    return 3;
  }
  // Stolen CPU slows every wall-time figure; the share is printed with the
  // run so that a slow run can be told from a slow program.
  const auto [busy1, steal1] = host_cpu_jiffies();
  char steal[32];
  std::snprintf(steal, sizeof steal, "%.3f",
                busy1 > busy0 ? (steal1 - steal0) / (busy1 - busy0) : 0.0);
  report.note("host_steal_share", steal);
  return finish(cfg, report);
}
