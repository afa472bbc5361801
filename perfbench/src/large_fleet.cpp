/// large_fleet: a 10,000-server fleet on a rack/PDU topology running the
/// evaluation trace scaled to ~30k VMs under first-fit (FF-2) with rack
/// spread, sampled per-server crashes plus PDU faults, and hook-only
/// AEVASNAP snapshots every simulated hour. It bypasses the proactive
/// search and loads the event loop, the fault schedule and the snapshot
/// codec.

#include <cstdio>
#include <optional>
#include <string>

#include "core/first_fit.hpp"
#include "datacenter/topology.hpp"
#include "persist/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aeva::datacenter::CloudConfig;
using aeva::datacenter::SimMetrics;
using aeva::datacenter::Simulator;

constexpr int kSetups = 9;
constexpr int kMinPasses = 2;
/// Decorated passes timed for decision latency (a fixed count spread over
/// the run, so the minimum is over the same number of passes however fast
/// they run). A pass makes only ~12k calls, so its p99.9 rests on ~12
/// calls and host jitter moves it; the minimum over several passes keeps
/// it steady.
constexpr int kLatencyPasses = 5;
constexpr int kServers = 10000;
constexpr int kTargetVms = 30000;
constexpr double kSnapshotEveryS = 3600.0;

/// Inputs built once per setup; the simulator and allocator are reused by
/// every pass (the allocator is stateless between calls).
struct Fleet {
  aeva::datacenter::Topology topology;
  aeva::core::FirstFitAllocator strategy{2};
  CloudConfig cloud;
};

struct PassResult {
  SimMetrics metrics;
  ObservedAllocator::Tally ff;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t events = 0;
};

void build_fleet(Fleet& fleet, std::uint64_t seed) {
  aeva::datacenter::SyntheticTopologyConfig layout;
  layout.server_count = kServers;
  layout.servers_per_rack = 20;
  layout.racks_per_pdu = 5;
  layout.racks_per_tor = 1;
  fleet.topology = aeva::datacenter::make_synthetic_topology(layout);
  fleet.strategy.set_spread(
      aeva::datacenter::spread_by_rack(fleet.topology, 2));

  CloudConfig& cloud = fleet.cloud;
  cloud.server_count = kServers;
  cloud.failure.enabled = true;
  cloud.failure.seed = seed;
  // ~250 per-server crashes and two or three PDU faults over the ~14 h
  // trace. First-fit packs the busy servers onto the lowest ids, so a
  // fault on feed 0 re-places most running VMs; rarer PDU faults keep
  // that outcome rare across seeds.
  cloud.failure.mtbf_s = 2.0e6;
  cloud.failure.mttr_s = 3600.0;
  cloud.failure.topology = &fleet.topology;
  cloud.failure.domains.pdu_mtbf_s = 2.0e6;
  cloud.failure.domains.pdu_mttr_s = 1800.0;
  cloud.failure.recovery.policy =
      aeva::datacenter::RecoveryPolicy::kCheckpointRestart;
  cloud.snapshot.every_s = kSnapshotEveryS;
}

/// One simulation of the fleet. The snapshot hook encodes each AEVASNAP
/// snapshot in memory (nothing is written to disk).
PassResult run_pass(const aeva::modeldb::ModelDatabase& db,
                    const aeva::trace::PreparedWorkload& workload,
                    const Fleet& fleet, bool decorate, Tracer* tracer,
                    std::vector<double>* latency_us,
                    bool count_events = false) {
  PassResult out;
  CloudConfig cloud = fleet.cloud;
  cloud.snapshot.hook = [&](const aeva::persist::SimSnapshot& snapshot) {
    const std::int64_t t0 = now_ns();
    const std::string bytes = aeva::persist::encode_snapshot(snapshot);
    if (tracer != nullptr) {
      tracer->leaf(Layer::kPersistEncode, -1, t0, now_ns());
    }
    ++out.snapshots;
    out.snapshot_bytes += bytes.size();
  };
  if (count_events) {
    aeva::obs::ObsConfig obs;
    obs.enabled = true;
    cloud.obs = aeva::obs::Session::create(obs);
  }
  const Scope pass(tracer, Layer::kPass);
  {
    const Scope run(tracer, Layer::kDatacenterRun);
    const Simulator sim(db, cloud);
    if (decorate) {
      const ObservedAllocator observed(fleet.strategy, Layer::kCoreFf, tracer,
                                       latency_us);
      out.metrics = sim.run(workload, observed);
      out.ff = observed.tally();
    } else {
      out.metrics = sim.run(workload, fleet.strategy);
    }
  }
  if (count_events) {
    out.events = cloud.obs->metrics().counter("sim.events").value();
  }
  return out;
}

void check_pass(const PassResult& pass, const PassResult& reference,
                const aeva::trace::PreparedWorkload& workload,
                const char* what, Report& report) {
  const SimMetrics& m = pass.metrics;
  const bool same = metrics_digest(m) == metrics_digest(reference.metrics) &&
                    pass.snapshots == reference.snapshots &&
                    pass.snapshot_bytes == reference.snapshot_bytes;
  const bool conserved =
      m.vms + m.vms_abandoned == static_cast<std::size_t>(workload.total_vms);
  report.attempted += workload.jobs.size();
  if (!same || !conserved) report.failed += workload.jobs.size();
  report.check(same, std::string("large_fleet: SimMetrics or snapshots of a ") +
                         what + " pass differ from the reference pass");
  report.check(conserved,
               "large_fleet: completed + abandoned VMs != trace VMs");
}

}  // namespace

void run_large_fleet(const Options& options, Report& report) {
  std::vector<SetupTimes> setups;
  std::optional<aeva::modeldb::ModelDatabase> db;
  aeva::trace::PreparedWorkload workload;
  Fleet fleet;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes times;
    const std::int64_t t0 = now_ns();
    db.emplace(build_database());
    times.campaign_s = seconds_since(t0);
    workload = make_workload(*db, options.seed, kTargetVms, times);
    build_fleet(fleet, options.seed);
    times.total_s = seconds_since(t0);
    setups.push_back(times);
  }
  std::printf("inputs: %zu jobs, %d VMs, trace fingerprint %016llx, "
              "%d servers in %d racks / %d PDU feeds\n",
              workload.jobs.size(), workload.total_vms,
              static_cast<unsigned long long>(workload_fingerprint(workload)),
              kServers, fleet.topology.rack_count(),
              fleet.topology.pdu_count());

  // The first pass is the reference every later pass must reproduce bit
  // for bit. A traced run's reference pass also reads the sim.events obs
  // counter (untimed there).
  std::vector<double> walls;
  const std::int64_t measure_start = now_ns();
  const PassResult reference =
      run_pass(*db, workload, fleet, false, nullptr, nullptr,
               /*count_events=*/options.trace);
  walls.push_back(seconds_since(measure_start));
  check_pass(reference, reference, workload, "reference", report);
  const SimMetrics& ref = reference.metrics;
  std::printf("reference run: makespan %.0f s, %zu crashes, %zu correlated "
              "faults, %zu VM restarts, %llu snapshots\n",
              ref.makespan_s, ref.failures, ref.correlated_failures,
              ref.vm_restarts,
              static_cast<unsigned long long>(reference.snapshots));

  if (options.trace) {
    TracedRun traced;
    Tracer tracer;
    PassResult last;
    repeat_for(options.seconds, kMinPasses, [&](int) {
      const std::int64_t t0 = now_ns();
      check_pass(run_pass(*db, workload, fleet, false, nullptr, nullptr),
                 reference, workload, "plain", report);
      traced.untraced_wall_s.push_back(seconds_since(t0));
      last = run_pass(*db, workload, fleet, true, &tracer, nullptr);
      check_pass(last, reference, workload, "traced", report);
      traced.fold(tracer);
    });

    report_setup_layers(setups, report);
    const auto& ff_us =
        traced.durations_us[static_cast<std::size_t>(Layer::kCoreFf)];
    report.add("core.ff.calls", static_cast<double>(last.ff.calls), "count");
    report.add("core.ff.self_s", traced.self_s(Layer::kCoreFf), "s");
    report.add("core.ff.p99_us", percentile(ff_us, 0.99), "us",
               sample_note(ff_us.size(), 0.99));
    report.add("core.ff.place_ratio",
               static_cast<double>(last.ff.placed) /
                   static_cast<double>(last.ff.calls),
               "ratio");
    const double dc_self = traced.self_s(Layer::kDatacenterRun);
    report.add("datacenter.run_s", traced.total_s(Layer::kDatacenterRun), "s");
    report.add("datacenter.self_s", dc_self, "s");
    report.add("datacenter.events", static_cast<double>(reference.events),
               "count");
    report.add("datacenter.self_us_per_event",
               1e6 * dc_self / static_cast<double>(reference.events), "us");
    report.add("datacenter.failures", static_cast<double>(ref.failures),
               "count");
    report.add("datacenter.correlated_failures",
               static_cast<double>(ref.correlated_failures), "count");
    report.add("datacenter.vm_restarts", static_cast<double>(ref.vm_restarts),
               "count");
    report.add("persist.snapshots", static_cast<double>(last.snapshots),
               "count");
    report.add("persist.encode_s", traced.self_s(Layer::kPersistEncode), "s");
    report.add("persist.snapshot_bytes",
               static_cast<double>(last.snapshot_bytes), "bytes");
    traced.finish(options, report);
    return;
  }

  // Untraced: plain passes (wall time) until the time is up, with
  // kLatencyPasses decorated passes (decision latency) spread among them;
  // passes still due when the time is up run before the loop ends.
  DecisionLatency latency;
  LatencySchedule schedule(options.seconds, kLatencyPasses);
  std::vector<double> latency_us;
  std::uint64_t decisions = 0;
  const auto decorated_pass = [&] {
    latency_us.clear();
    const PassResult timed =
        run_pass(*db, workload, fleet, true, nullptr, &latency_us);
    check_pass(timed, reference, workload, "decorated", report);
    decisions = timed.ff.calls;
    latency.add_pass(latency_us);
  };
  for (int plain = 0;;) {
    const double elapsed = seconds_since(measure_start);
    if (schedule.due(elapsed)) {
      decorated_pass();
      continue;
    }
    if (elapsed >= options.seconds && plain >= kMinPasses) break;
    const std::int64_t t0 = now_ns();
    check_pass(run_pass(*db, workload, fleet, false, nullptr, nullptr),
               reference, workload, "plain", report);
    walls.push_back(seconds_since(t0));
    ++plain;
  }
  const double wall = median(walls);
  report.add("setup_s", median_setup_s(setups), "s",
             "median of " + std::to_string(kSetups) + " setups");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("eval_wall_s", wall, "s",
             "median of " + std::to_string(walls.size()) + " passes");
  report.add("fleet_vms_per_s", static_cast<double>(ref.vms) / wall, "1/s",
             std::to_string(ref.vms) + " VMs per pass");
  report.add("serve_decisions_per_s", static_cast<double>(decisions) / wall,
             "1/s", std::to_string(decisions) + " allocator calls per pass");
  latency.report(report, true, "decorated passes");
}

}  // namespace perfbench
