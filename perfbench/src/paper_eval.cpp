/// paper_eval: the Fig. 5–7 evaluation matrix (six strategies × the
/// SMALLER and LARGER clouds) over seeded ~10k-VM EGEE-like traces. It is
/// the paper's own experiment; the proactive search is a large share of
/// a pass and the rest is the event loop on a small, loaded fleet.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "core/first_fit.hpp"
#include "core/proactive.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aeva::datacenter::CloudConfig;
using aeva::datacenter::SimMetrics;
using aeva::datacenter::Simulator;

constexpr int kSetups = 9;
constexpr int kTargetVms = 10000;
/// Traces per run. Whether PA saturates the SMALLER cloud, and so how
/// many queue retries re-run the search, varies from trace to trace;
/// averaging over several traces keeps a run's figures steady across
/// seeds.
constexpr std::size_t kTraces = 12;

struct CloudSpec {
  const char* name;
  int servers;
};
constexpr CloudSpec kClouds[] = {{"SMALLER", 60}, {"LARGER", 69}};
constexpr const char* kStrategyNames[] = {"FF",   "FF-2", "FF-3",
                                          "PA-1", "PA-0", "PA-0.5"};
constexpr int kStrategies = 6;
constexpr int kCells = 12;

[[nodiscard]] bool is_proactive(int strategy) { return strategy >= 3; }

std::unique_ptr<aeva::core::Allocator> make_strategy(
    const aeva::modeldb::ModelDatabase& db, int strategy) {
  if (!is_proactive(strategy)) {
    return std::make_unique<aeva::core::FirstFitAllocator>(strategy + 1);
  }
  constexpr double kAlpha[] = {1.0, 0.0, 0.5};
  aeva::core::ProactiveConfig config;
  config.alpha = kAlpha[strategy - 3];
  return std::make_unique<aeva::core::ProactiveAllocator>(db, config);
}

struct PassResult {
  SimMetrics cells[kCells];
  ObservedAllocator::Tally pa;
  ObservedAllocator::Tally ff;
  std::uint64_t memo_hits = 0;    ///< traced passes only
  std::uint64_t memo_misses = 0;  ///< traced passes only
  std::uint64_t events = 0;       ///< sim.events, when `count_events`
};

void add_tally(ObservedAllocator::Tally& sum,
               const ObservedAllocator::Tally& t) {
  sum.calls += t.calls;
  sum.placed += t.placed;
  sum.partitions_examined += t.partitions_examined;
}

/// One pass over the 12 cells, building fresh allocators per cell as a
/// user's run does. `decorate` routes allocator calls through the timing
/// decorator (latencies into `latency_us`, spans into `tracer`).
PassResult run_pass(const aeva::modeldb::ModelDatabase& db,
                    const aeva::trace::PreparedWorkload& workload,
                    bool decorate, Tracer* tracer,
                    std::vector<double>* latency_us,
                    bool count_events = false) {
  PassResult out;
  const Scope pass(tracer, Layer::kPass);
  int cell = 0;
  for (const CloudSpec& spec : kClouds) {
    for (int s = 0; s < kStrategies; ++s, ++cell) {
      std::unique_ptr<aeva::core::Allocator> strategy;
      {
        const Scope build(tracer, Layer::kCoreBuild, cell);
        strategy = make_strategy(db, s);
      }
      CloudConfig cloud;
      cloud.server_count = spec.servers;
      if (count_events) {
        aeva::obs::ObsConfig obs;
        obs.enabled = true;
        cloud.obs = aeva::obs::Session::create(obs);
      }
      {
        const Scope run(tracer, Layer::kDatacenterRun, cell);
        const Simulator sim(db, cloud);
        if (decorate) {
          const ObservedAllocator observed(
              *strategy, is_proactive(s) ? Layer::kCorePa : Layer::kCoreFf,
              tracer, latency_us);
          out.cells[cell] = sim.run(workload, observed);
          add_tally(is_proactive(s) ? out.pa : out.ff, observed.tally());
        } else {
          out.cells[cell] = sim.run(workload, *strategy);
        }
      }
      if (count_events) {
        out.events += cloud.obs->metrics().counter("sim.events").value();
      }
      if (tracer != nullptr && is_proactive(s)) {
        const auto stats =
            static_cast<const aeva::core::ProactiveAllocator&>(*strategy)
                .memo_stats();
        out.memo_hits += stats.hits;
        out.memo_misses += stats.misses;
      }
    }
  }
  return out;
}

/// Compares a pass against the reference pass, cell by cell, and counts
/// jobs attempted and failed.
void check_pass(const PassResult& pass, const PassResult& reference,
                const aeva::trace::PreparedWorkload& workload,
                const char* what, Report& report) {
  for (int c = 0; c < kCells; ++c) {
    const SimMetrics& m = pass.cells[c];
    const bool same =
        metrics_digest(m) == metrics_digest(reference.cells[c]);
    const bool conserved =
        m.vms + m.vms_abandoned == static_cast<std::size_t>(workload.total_vms);
    report.attempted += workload.jobs.size();
    if (!same || !conserved) report.failed += workload.jobs.size();
    const std::string cell = std::string(kStrategyNames[c % kStrategies]) +
                             "/" + kClouds[c / kStrategies].name;
    report.check(same, "paper_eval " + cell + ": SimMetrics of a " + what +
                           " pass differ from the reference pass");
    report.check(conserved, "paper_eval " + cell +
                                ": completed + abandoned VMs != trace VMs");
  }
}

/// PA-1's energy saving against the FF-family mean, and the best PA
/// strategy's makespan gain against FF, both on SMALLER (Figs. 5–6).
void print_paper_claims(const PassResult& ref) {
  const double ff_energy =
      (ref.cells[0].energy_j + ref.cells[1].energy_j + ref.cells[2].energy_j) /
      3.0;
  const double energy_saving_pct =
      100.0 * (ff_energy - ref.cells[3].energy_j) / ff_energy;
  double best_pa = ref.cells[3].makespan_s;
  for (int s = 4; s < kStrategies; ++s) {
    best_pa = std::min(best_pa, ref.cells[s].makespan_s);
  }
  const double ff_makespan = ref.cells[0].makespan_s;
  const double makespan_gain_pct =
      100.0 * (ff_makespan - best_pa) / ff_makespan;
  std::printf("paper claim  energy_saving_pct = %.1f %% (PA-1 vs FF family, "
              "SMALLER; paper ~12)\n",
              energy_saving_pct);
  std::printf("paper claim  makespan_gain_pct = %.1f %% (best PA vs FF, "
              "SMALLER; paper up to 18)\n",
              makespan_gain_pct);
}

/// Seeds of the run's traces: the first is the run seed itself, so the
/// paper claims printed for trace 0 match the figure benches at that seed.
std::vector<std::uint64_t> trace_seeds(std::uint64_t seed) {
  std::vector<std::uint64_t> seeds = {seed};
  std::uint64_t state = seed;
  while (seeds.size() < kTraces) seeds.push_back(aeva::util::splitmix64(state));
  return seeds;
}

}  // namespace

void run_paper_eval(const Options& options, Report& report) {
  const std::vector<std::uint64_t> seeds = trace_seeds(options.seed);
  std::vector<SetupTimes> setups;
  std::optional<aeva::modeldb::ModelDatabase> db;
  std::vector<aeva::trace::PreparedWorkload> traces(kTraces);
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes times;
    const std::int64_t t0 = now_ns();
    db.emplace(build_database());
    times.campaign_s = seconds_since(t0);
    for (std::size_t k = 0; k < kTraces; ++k) {
      traces[k] = make_workload(*db, seeds[k], kTargetVms, times);
    }
    times.total_s = seconds_since(t0);
    setups.push_back(times);
  }
  std::size_t completed_vms = 0;
  for (std::size_t k = 0; k < kTraces; ++k) {
    std::printf("inputs: trace %zu seed %llu: %zu jobs, %d VMs, fingerprint "
                "%016llx\n",
                k, static_cast<unsigned long long>(seeds[k]),
                traces[k].jobs.size(), traces[k].total_vms,
                static_cast<unsigned long long>(
                    workload_fingerprint(traces[k])));
  }

  // Each trace's first pass is its reference; every later pass, plain,
  // decorated or traced, must reproduce it bit for bit. A traced run's
  // reference pass also reads the sim.events obs counter (untimed there).
  std::vector<PassResult> reference(kTraces);
  std::vector<std::vector<double>> walls(kTraces);
  const std::int64_t measure_start = now_ns();
  for (std::size_t k = 0; k < kTraces; ++k) {
    const std::int64_t t0 = now_ns();
    reference[k] = run_pass(*db, traces[k], false, nullptr, nullptr,
                            /*count_events=*/options.trace);
    walls[k].push_back(seconds_since(t0));
    check_pass(reference[k], reference[k], traces[k], "reference", report);
    for (const SimMetrics& m : reference[k].cells) completed_vms += m.vms;
  }
  std::printf("trace 0 (seed %llu):\n",
              static_cast<unsigned long long>(seeds[0]));
  print_paper_claims(reference[0]);

  if (options.trace) {
    TracedRun traced;
    Tracer tracer;
    std::uint64_t events = 0;
    PassResult sum;  // counts summed over the traces of one sweep
    const auto add = [](PassResult& to, const PassResult& from) {
      add_tally(to.pa, from.pa);
      add_tally(to.ff, from.ff);
      to.memo_hits += from.memo_hits;
      to.memo_misses += from.memo_misses;
    };
    const int sweeps = repeat_for(options.seconds, 1, [&](int sweep) {
      for (std::size_t k = 0; k < kTraces; ++k) {
        const std::int64_t t0 = now_ns();
        check_pass(run_pass(*db, traces[k], false, nullptr, nullptr),
                   reference[k], traces[k], "plain", report);
        traced.untraced_wall_s.push_back(seconds_since(t0));
        const PassResult pass =
            run_pass(*db, traces[k], true, &tracer, nullptr);
        check_pass(pass, reference[k], traces[k], "traced", report);
        traced.fold(tracer);
        if (sweep == 0) add(sum, pass);
      }
    });
    for (const PassResult& r : reference) events += r.events;
    std::printf("%d sweeps over %zu traces; per-layer figures are per pass "
                "(one trace)\n",
                sweeps, kTraces);
    const double per = 1.0 / static_cast<double>(kTraces);
    report_setup_layers(setups, report);
    const double memo_total =
        static_cast<double>(sum.memo_hits + sum.memo_misses);
    report.add("modeldb.memo_hits", static_cast<double>(sum.memo_hits) * per,
               "count");
    report.add("modeldb.memo_misses",
               static_cast<double>(sum.memo_misses) * per, "count");
    report.add("modeldb.memo_hit_ratio",
               static_cast<double>(sum.memo_hits) / memo_total, "ratio");
    const auto& pa_us =
        traced.durations_us[static_cast<std::size_t>(Layer::kCorePa)];
    const auto& ff_us =
        traced.durations_us[static_cast<std::size_t>(Layer::kCoreFf)];
    report.add("core.pa.calls", static_cast<double>(sum.pa.calls) * per,
               "count");
    report.add("core.pa.self_s", traced.self_s(Layer::kCorePa), "s");
    report.add("core.pa.p50_us", percentile(pa_us, 0.50), "us",
               sample_note(pa_us.size(), 0.50));
    report.add("core.pa.p99_us", percentile(pa_us, 0.99), "us",
               sample_note(pa_us.size(), 0.99));
    report.add("core.pa.place_ratio",
               static_cast<double>(sum.pa.placed) /
                   static_cast<double>(sum.pa.calls),
               "ratio");
    report.add("core.pa.partitions_examined",
               static_cast<double>(sum.pa.partitions_examined) * per, "count");
    report.add("core.ff.calls", static_cast<double>(sum.ff.calls) * per,
               "count");
    report.add("core.ff.self_s", traced.self_s(Layer::kCoreFf), "s");
    report.add("core.ff.p99_us", percentile(ff_us, 0.99), "us",
               sample_note(ff_us.size(), 0.99));
    report.add("core.ff.place_ratio",
               static_cast<double>(sum.ff.placed) /
                   static_cast<double>(sum.ff.calls),
               "ratio");
    report.add("core.build_s", traced.self_s(Layer::kCoreBuild), "s");
    const double dc_self = traced.self_s(Layer::kDatacenterRun);
    const double events_per_pass = static_cast<double>(events) * per;
    report.add("datacenter.run_s", traced.total_s(Layer::kDatacenterRun), "s");
    report.add("datacenter.self_s", dc_self, "s");
    report.add("datacenter.events", events_per_pass, "count");
    report.add("datacenter.self_us_per_event", 1e6 * dc_self / events_per_pass,
               "us");
    traced.finish(options, report);
    return;
  }

  // Untraced: one decorated pass per trace (decision latency and
  // allocator-call counts), then plain passes round-robin over the traces
  // until `seconds` have passed since the reference sweep began.
  DecisionLatency latency;
  std::vector<double> latency_us;
  std::uint64_t decisions = 0;
  for (std::size_t k = 0; k < kTraces; ++k) {
    latency_us.clear();
    const PassResult timed =
        run_pass(*db, traces[k], true, nullptr, &latency_us);
    check_pass(timed, reference[k], traces[k], "decorated", report);
    decisions += timed.pa.calls + timed.ff.calls;
    latency.add_pass(latency_us);
  }
  for (std::size_t k = 0; seconds_since(measure_start) < options.seconds;
       k = (k + 1) % kTraces) {
    const std::int64_t t0 = now_ns();
    check_pass(run_pass(*db, traces[k], false, nullptr, nullptr),
               reference[k], traces[k], "plain", report);
    walls[k].push_back(seconds_since(t0));
  }
  // One pass over the 12-cell matrix, averaged over the run's traces.
  double wall = 0.0;
  for (const std::vector<double>& w : walls) wall += median(w);
  wall /= static_cast<double>(kTraces);
  const double traces_d = static_cast<double>(kTraces);
  report.add("setup_s", median_setup_s(setups), "s",
             "median of " + std::to_string(kSetups) + " setups");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::size_t passes = 0;
  for (const std::vector<double>& w : walls) passes += w.size();
  report.add("eval_wall_s", wall, "s",
             "mean over " + std::to_string(kTraces) +
                 " traces of each trace's median pass; " +
                 std::to_string(passes) + " plain passes");
  report.add("fleet_vms_per_s", static_cast<double>(completed_vms) /
                                    traces_d / wall,
             "1/s", std::to_string(completed_vms) + " VMs over all traces");
  report.add("serve_decisions_per_s",
             static_cast<double>(decisions) / traces_d / wall, "1/s",
             std::to_string(decisions) + " allocator calls over all traces");
  latency.report(report, false, "one decorated pass per trace");
}

}  // namespace perfbench
