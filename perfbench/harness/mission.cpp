// mission: the paper's Fig. 1 loop on core::Runtime, run serially. The
// scenario is bench_end_to_end's: 88 assets, a Sybil infiltration, 300 s of
// discovery, launch_mission, a camera blackout plus a mass kill, and a run
// to 1300 s. One cycle runs kMissionsPerCycle missions, each with its own
// seed derived from the workload seed and the 4 configurations in turn;
// cycles repeat for the run's duration. Many seeds per cycle average out
// how much work one battlefield happens to generate.
//
// Latency is per mission-loop step: run 25 s of battle, then read the
// mission status.
//
// Checks: every mission launches, and the network metrics digest and the
// MissionStatus fields of a (configuration, seed) repeat exactly across
// cycles.

#include <cstring>

#include "common.h"
#include "core/runtime.h"
#include "sim/rng.h"

namespace perfbench {
namespace {

using namespace iobt;

struct Config {
  const char* name;
  bool use_directory;
  bool reflexes;
};

constexpr Config kConfigs[] = {
    {"full", true, true},
    {"no_reflex", true, false},
    {"oracle", false, true},
    {"oracle_no_reflex", false, false},
};
constexpr std::size_t kMissionsPerCycle = 32;
constexpr int kSetupRepeats = 9;
const sim::Rect kArea{{0, 0}, {1400, 1000}};

struct MissionSpec {
  Config config;
  std::uint64_t seed = 0;  ///< runtime seed; the attack streams derive from it
};

struct MissionResult {
  bool launched = false;
  std::uint64_t digest = 0;  ///< network metrics digest + MissionStatus fields
  double reflexes = 0.0;  ///< modality switches + repairs
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> step_ms;  ///< wall of each 25 s mission-loop step
};

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

std::vector<MissionSpec> cycle_specs(std::uint64_t workload_seed) {
  const sim::Rng root = sim::Rng(workload_seed).child("perfbench.mission");
  std::vector<MissionSpec> specs;
  for (std::size_t k = 0; k < kMissionsPerCycle; ++k) {
    specs.push_back({kConfigs[k % std::size(kConfigs)], root.child(k).next_u64()});
  }
  return specs;
}

/// Runtime construction, population, targets and the Sybil attack: the
/// mission's scenario build.
std::unique_ptr<core::Runtime> build_runtime(const MissionSpec& m) {
  core::RuntimeConfig rcfg;
  rcfg.area = kArea;
  rcfg.channel_max_edge_loss = 0.1;
  rcfg.seed = m.seed;
  auto rt = std::make_unique<core::Runtime>(rcfg);
  things::PopulationConfig pop;
  pop.sensor_motes = 45;
  pop.drones = 10;
  pop.vehicles = 4;
  pop.edge_servers = 1;
  pop.smartphones = 20;
  pop.humans = 8;
  pop.red_fraction = 0.08;
  pop.mobile_fraction = 0.25;
  rt->populate(pop);
  for (int i = 0; i < 6; ++i) {
    rt->world().add_target({250.0 + 160 * i, 500.0}, nullptr, "hostile");
  }
  rt->attacks().schedule_sybil(6, sim::SimTime::seconds(20), sim::Rng(m.seed).child(9));
  return rt;
}

/// Runs `rt.run_until(t)` (or run_for) inside a sim-layer span whose kernel
/// handler time is attributed per tag.
template <typename Advance>
void advance(core::Runtime& rt, OpTrace& t, int root, const char* name, Advance&& step) {
  TagTotals before;
  if (t.on()) before = tag_totals(rt.simulator());
  const int s = t.open(name, "sim", root);
  step();
  t.close(s);
  if (t.on()) t.add_kernel(s, before, tag_totals(rt.simulator()));
}

MissionResult run_mission(const MissionSpec& m, OpTrace& t) {
  MissionResult out;
  const int root = t.open("mission", "other", -1);
  int s = t.open("core.Runtime", "build", root);
  auto rt = build_runtime(m);
  t.close(s);
  if (t.on()) rt->simulator().set_profiling(true);

  s = t.open("core.start", "core", root);
  rt->start();
  t.close(s);
  advance(*rt, t, root, "disc.phase", [&] { rt->run_for(sim::Duration::seconds(300)); });

  synthesis::Goal goal{synthesis::GoalKind::kPersistentSurveillance,
                       {{100, 100}, {1300, 900}}, 0.5};
  core::Runtime::MissionOptions opts;
  opts.use_directory = m.config.use_directory;
  opts.reflexes = m.config.reflexes;
  s = t.open("synthesis.launch_mission", "synthesis", root);
  const auto mid = rt->launch_mission(goal, opts);
  t.close(s);
  if (!mid) {
    t.close(root);
    return out;
  }
  out.launched = true;

  s = t.open("security.schedule", "security", root);
  rt->attacks().schedule_sensor_blackout(things::Modality::kCamera, kArea,
                                         sim::SimTime::seconds(500),
                                         sim::SimTime::seconds(800), 1.0);
  rt->attacks().schedule_mass_kill(
      0.6, sim::SimTime::seconds(560),
      [](const things::Asset& a) {
        return a.device_class == things::DeviceClass::kSensorMote ||
               a.device_class == things::DeviceClass::kDrone;
      },
      sim::Rng(m.seed).child(11));
  t.close(s);

  std::uint64_t digest = 0;
  core::MissionStatus st;
  for (int step = 1; step <= 40; ++step) {
    const double step0 = wall_ms();
    advance(*rt, t, root, "core.run_until",
            [&] { rt->run_until(sim::SimTime::seconds(300.0 + 25.0 * step)); });
    s = t.open("core.mission_status", "core", root);
    st = rt->mission_status(*mid);
    t.close(s);
    out.step_ms.push_back(wall_ms() - step0);
    digest = fold_digest(digest, bits(st.quality));
  }
  for (std::uint64_t v :
       {rt->network().metrics().digest(), std::uint64_t{st.feasible}, std::uint64_t{st.member_count},
        std::uint64_t{st.modality_switches}, std::uint64_t{st.repairs},
        std::uint64_t{st.confirmed_tracks}, bits(st.tracking_error_m),
        bits(st.service_latency_s), std::uint64_t{st.service_placed},
        rt->simulator().executed_count()}) {
    digest = fold_digest(digest, v);
  }
  out.digest = digest;
  out.reflexes = static_cast<double>(st.modality_switches + st.repairs);
  s = t.open("core.~Runtime", "build", root);
  rt.reset();
  t.close(s);
  t.close(root);
  return out;
}

struct Cycle {
  double wall_ms = 0.0;
  std::vector<MissionResult> results;
};

Cycle run_cycle(const std::vector<MissionSpec>& specs, bool traced, SpanLog* log,
                std::uint64_t& op) {
  Cycle c;
  const double t0 = wall_ms();
  for (const MissionSpec& m : specs) {
    OpTrace t(traced, op++);
    const double wall0 = wall_ms();
    const double cpu0 = thread_cpu_ms();
    MissionResult r = run_mission(m, t);
    r.cpu_ms = thread_cpu_ms() - cpu0;
    r.wall_ms = wall_ms() - wall0;
    c.results.push_back(std::move(r));
    if (log) log->append(t);
  }
  c.wall_ms = wall_ms() - t0;
  return c;
}

}  // namespace

void run_mission(const RunConfig& cfg, Report& report) {
  const std::vector<MissionSpec> specs = cycle_specs(cfg.seed);

  // ---- set-up: the scenario build of every mission, repeated -------------
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = wall_ms();
    for (const MissionSpec& m : specs) build_runtime(m);
    setup_s.push_back((wall_ms() - t0) / 1e3);
  }

  // ---- measured phase ----------------------------------------------------
  SpanLog log;
  std::vector<Cycle> plain, traced;
  std::uint64_t op = 0;
  const double start = wall_ms();
  for (std::size_t n = 0; plain.empty() || (cfg.trace && traced.empty()) ||
                          wall_ms() - start < cfg.seconds * 1e3;
       ++n) {
    const bool trace_this = cfg.trace && n % 2 == 1;
    Cycle c = run_cycle(specs, trace_this, trace_this ? &log : nullptr, op);
    report.attempted(specs.size());
    (trace_this ? traced : plain).push_back(std::move(c));
  }

  // ---- output checks -----------------------------------------------------
  std::vector<Cycle> repeat;
  if (plain.size() + traced.size() < 2) {
    repeat.push_back(run_cycle({specs.front()}, false, nullptr, op));
    report.attempted(1);
  }
  const Cycle& ref = plain.front();
  for (std::size_t i = 0; i < ref.results.size(); ++i) {
    if (!ref.results[i].launched) report.fail("mission " + std::to_string(i) + " did not launch");
  }
  for (const auto* set : {&plain, &traced, &repeat}) {
    for (const Cycle& c : *set) {
      for (std::size_t i = 0; i < c.results.size(); ++i) {
        if (c.results[i].digest != ref.results[i].digest) {
          report.fail("mission " + std::to_string(i) + " (" + specs[i].config.name +
                      ") did not repeat: digest or status differs");
        }
      }
    }
  }

  // ---- metrics -----------------------------------------------------------
  // Each mission's (and each step's) median over cycles, so that a slow
  // spell of the host during one cycle does not move the figures.
  std::vector<std::vector<double>> walls, cpus, steps;
  for (const Cycle& c : plain) {
    auto& w = walls.emplace_back();
    auto& u = cpus.emplace_back();
    auto& st = steps.emplace_back();
    for (const MissionResult& r : c.results) {
      w.push_back(r.wall_ms);
      u.push_back(r.cpu_ms);
      st.insert(st.end(), r.step_ms.begin(), r.step_ms.end());
    }
  }
  const std::vector<double> mission_ms = item_medians(walls);
  const std::vector<double> step_ms = item_medians(steps);
  double cycle_ms = 0.0;
  for (double ms : mission_ms) cycle_ms += ms;
  const double missions_per_s = 1e3 * static_cast<double>(specs.size()) / cycle_ms;
  report.info("missions_per_s", missions_per_s, "1/s");
  report.info("fail_share", static_cast<double>(report.failed_count()) /
                                static_cast<double>(report.attempted_count()), "ratio");
  report.info("cycles", static_cast<double>(plain.size() + traced.size()), "count");
  report.info("step_samples", static_cast<double>(step_ms.size()), "count");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("cpu_ms_per_op", mean(item_medians(cpus)), "ms");
  report.metric("ops_per_s", missions_per_s, "1/s");
  report.metric("op_p50_ms", percentile(step_ms, 0.50), "ms");
  report.info("step_p99_ms", percentile(step_ms, 0.99), "ms");

  if (!cfg.trace) return;
  std::vector<double> plain_wall, traced_wall;
  for (const Cycle& c : plain) plain_wall.push_back(c.wall_ms);
  double reflexes = 0.0;
  for (const Cycle& c : traced) {
    traced_wall.push_back(c.wall_ms);
    for (const MissionResult& r : c.results) reflexes += r.reflexes;
  }
  const double n_ops = static_cast<double>(log.ops());
  report.layer("disc.beacon_ms", log.tag_busy_ms("disc.beacon") / n_ops, "ms");
  report.layer("disc.phase_ms", log.span_ms("disc.phase") / n_ops, "ms");
  report.layer("synthesis.launch_ms", log.span_ms("synthesis.launch_mission") / n_ops, "ms");
  report.layer("core.mission_sweep_ms", log.tag_busy_ms("mission.sweep") / n_ops, "ms");
  report.layer("adapt.reflex_count", reflexes / n_ops, "count");
  report.layer("security.attack_ms",
               (log.tag_busy_ms("attack.") + log.span_ms("security.schedule")) / n_ops, "ms");
  report.layer("trace.overhead", median(traced_wall) / median(plain_wall), "ratio");
  log.report_layers(report);
  const std::string path = cfg.work_dir + "/spans-mission.json";
  if (!log.write_json(path)) report.fail("could not write " + path);
  report.note("spans", path);
}

}  // namespace perfbench
