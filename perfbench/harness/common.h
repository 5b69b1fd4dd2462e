#pragma once
// Shared pieces of the benchmark harness: run configuration, the result
// report (end-to-end and per-layer metrics, output-check failures), clocks,
// order statistics, and the benchmark-side span recorder that attributes
// each operation's wall time to the layers it called into.
//
// Spans are recorded here, around calls into the library's public API, and
// from the kernel's own per-tag profile (Simulator::set_profiling). Nothing
// inside src/ is instrumented for the benchmark.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span file and the serve disk tier (inside the
  /// checkout); created by the caller.
  std::string work_dir;
  /// Overrides the sweep's pinned merged digest (self-test of the check).
  std::optional<std::uint64_t> expect_digest;
  /// Identifies the source tree measured (git sha or content hash).
  std::string source_id = "unknown";
};

/// The default workload seed. The sweep's merged digest is pinned for it.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Worker count of the sweep and serve workloads. Fixed, so results do not
/// depend on the host's core count.
inline constexpr std::size_t kWorkers = 2;

// ---------------------------------------------------------------- clocks --

inline double wall_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the process (all threads), in ms.
inline double cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

/// CPU time of the calling thread, in ms.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb();

// ------------------------------------------------------------ statistics --

/// Nearest-rank percentile, p in [0, 1]. 0 for an empty sample.
double percentile(std::vector<double> xs, double p);
inline double median(std::vector<double> xs) { return percentile(std::move(xs), 0.5); }
double mean(const std::vector<double>& xs);
/// For repeated passes over the same items (rows[pass][item]), each item's
/// median across passes: a slow spell of the host during one pass does not
/// move it.
std::vector<double> item_medians(const std::vector<std::vector<double>>& rows);

/// FNV-style fold used for merged digests.
inline std::uint64_t fold_digest(std::uint64_t acc, std::uint64_t v) {
  acc ^= v + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  return acc;
}

// ---------------------------------------------------------------- report --

class Report {
 public:
  /// End-to-end metric (reported by the untraced run).
  void metric(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (reported by the traced run).
  void layer(const std::string& name, double value, const std::string& unit);
  /// Human-readable line printed before the result (the workload's own
  /// names, e.g. cells_per_s or query_p99_ms.high, and run metadata).
  void info(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);

  /// Records `n` more attempted operations.
  void attempted(std::size_t n) { attempted_ += n; }
  /// Records a failed operation or a failed output check.
  void fail(const std::string& what);

  std::size_t attempted_count() const { return attempted_; }
  std::size_t failed_count() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Entry>& metrics() const { return metrics_; }
  const std::vector<Entry>& layers() const { return layers_; }
  const std::vector<Entry>& infos() const { return infos_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

 private:
  std::vector<Entry> metrics_, layers_, infos_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ----------------------------------------------------------------- spans --

/// One timed interval at a layer boundary. `aggregate` spans carry a kernel
/// tag's summed handler time inside their parent, not one interval; they
/// start at the parent's start.
struct Span {
  std::string name;
  std::string layer;
  std::uint64_t op = 0;
  int parent = -1;  ///< index into the op's spans; -1 for the root
  double start_ms = 0.0;
  double end_ms = 0.0;
  bool aggregate = false;
};

/// Per-tag totals read from Simulator::profile().
struct TagTotals {
  std::map<std::string, std::uint64_t> executed;
  std::map<std::string, double> busy_ms;
};
TagTotals tag_totals(const iobt::sim::Simulator& sim);

/// The library layer a kernel tag belongs to ("world.tick" -> "things").
std::string tag_layer(const std::string& tag);

/// Spans of one operation (cell, query replay or mission), built by one
/// thread. Inert when tracing is off, so the untraced run pays nothing.
class OpTrace {
 public:
  OpTrace(bool on, std::uint64_t op) : on_(on), op_(op) {}
  bool on() const { return on_; }

  int open(const std::string& name, const std::string& layer, int parent);
  void close(int span);
  /// Adds a span whose interval was timed elsewhere.
  int record(const std::string& name, const std::string& layer, int parent,
             double start_ms, double end_ms);
  /// Adds the handler time each kernel tag accrued between `before` and
  /// `after` as aggregate children of `parent`.
  void add_kernel(int parent, const TagTotals& before, const TagTotals& after);

  std::vector<Span>& spans() { return spans_; }
  /// (span index, handler executions) of each aggregate kernel span.
  const std::vector<std::pair<std::size_t, std::uint64_t>>& kernel_counts() const {
    return kernel_counts_;
  }

 private:
  bool on_;
  std::uint64_t op_;
  std::vector<Span> spans_;
  std::vector<std::pair<std::size_t, std::uint64_t>> kernel_counts_;
};

/// Every span of a traced run, kept in memory and written out at the end,
/// plus per-layer self time and per-tag totals summed over operations.
class SpanLog {
 public:
  void append(OpTrace& t);
  /// Mean self time per operation of `layer` (ms).
  double self_ms(const std::string& layer) const;
  /// Mean wall per operation of the root spans (ms).
  double op_wall_ms() const;
  std::size_t ops() const;
  std::uint64_t tag_executed(const std::string& prefix) const;
  double tag_busy_ms(const std::string& prefix) const;
  /// Summed duration of every span named `name` (ms).
  double span_ms(const std::string& name) const;
  /// Writes Chrome trace-event JSON (open in ui.perfetto.dev).
  bool write_json(const std::string& path) const;
  /// Reports the per-operation kernel figures (sim.*, things.tick_*,
  /// net.deliver_*, dissem.gossip_*) and self_ms.<layer> for every layer
  /// plus self.other_share, the residual's share of operation wall.
  void report_layers(Report& r) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::string, double> self_ms_;
  std::map<std::string, std::uint64_t> tag_executed_;
  std::map<std::string, double> tag_busy_ms_;
  std::map<std::string, double> span_ms_;
  double root_ms_ = 0.0;
  std::size_t ops_ = 0;
};

// ------------------------------------------------------------- workloads --

void run_sweep(const RunConfig& cfg, Report& report);
void run_serve(const RunConfig& cfg, Report& report);
void run_mission(const RunConfig& cfg, Report& report);

}  // namespace perfbench
