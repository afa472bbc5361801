/// serve_churn and serve_durable: a 480-server AllocationService serving
/// a seeded open-loop request stream (Poisson arrivals in simulated
/// time) with the incremental planner on and the exhaustive oracle every
/// 64 decisions. serve_durable adds hook-only AEVASRV snapshots every 5
/// simulated seconds on a shorter stream.
///
/// Each pass runs the service once through AllocationService::run, and
/// once as a planner pass: the same stream replayed through the public
/// core calls (FleetState::plan, allocate, deallocate, and the exhaustive
/// ProactiveAllocator::allocate on oracle decisions), because the serve
/// loop has no per-decision boundary visible from outside the program.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/incremental.hpp"
#include "core/proactive.hpp"
#include "persist/serve_snapshot.hpp"
#include "persist/snapshot.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using aeva::core::AllocationResult;
using aeva::core::VmRequest;

constexpr int kSetups = 9;
constexpr int kMinPasses = 3;
/// Planner passes timed for decision latency (a fixed count spread over
/// the run, so the minimum is over the same number of passes however fast
/// they run).
constexpr int kLatencyPasses = 8;
constexpr int kServers = 480;
constexpr int kMaxVms = 4;  ///< VMs per request (stream bound)
constexpr std::uint64_t kOracleEvery = 64;
/// Planner-pass decisions excluded from latency percentiles while the
/// planner's score memo fills.
constexpr std::size_t kWarmup = 2000;

struct ServeShape {
  const char* name;
  std::size_t requests;
  double snapshot_every_s;  ///< 0 = no snapshots
};
constexpr ServeShape kChurn = {"serve_churn", 50000, 0.0};
constexpr ServeShape kDurable = {"serve_durable", 12000, 5.0};

aeva::serve::ArrivalStreamConfig stream_config(const ServeShape& shape) {
  aeva::serve::ArrivalStreamConfig config;
  config.count = shape.requests;
  config.rate_rps = 20.0;
  config.hold_mean_s = 106.0;
  config.min_vms = 1;
  config.max_vms = kMaxVms;
  return config;
}

aeva::serve::ServeConfig serve_config(const ServeShape& shape,
                                      std::uint64_t seed) {
  aeva::serve::ServeConfig config;
  config.server_count = kServers;
  config.proactive.alpha = 0.5;
  config.incremental.enabled = true;
  config.incremental.oracle_every_decisions = kOracleEvery;
  config.retry.max_attempts = 10;
  config.seed = seed;
  config.snapshot.every_s = shape.snapshot_every_s;
  return config;
}

/// Exact result equality, doubles bitwise; the incremental planner's
/// kIncremental path label equals the batch search's kPrimary.
bool same_result(const AllocationResult& a, const AllocationResult& b) {
  const auto norm = [](aeva::core::AllocationPath p) {
    return p == aeva::core::AllocationPath::kIncremental
               ? aeva::core::AllocationPath::kPrimary
               : p;
  };
  if (a.complete != b.complete || a.satisfied_qos != b.satisfied_qos ||
      a.partitions_examined != b.partitions_examined ||
      norm(a.outcome.path) != norm(b.outcome.path) ||
      a.outcome.reason != b.outcome.reason ||
      a.outcome.search_truncated != b.outcome.search_truncated ||
      std::bit_cast<std::uint64_t>(a.score.est_time_s) !=
          std::bit_cast<std::uint64_t>(b.score.est_time_s) ||
      std::bit_cast<std::uint64_t>(a.score.est_energy_j) !=
          std::bit_cast<std::uint64_t>(b.score.est_energy_j) ||
      std::bit_cast<std::uint64_t>(a.score.combined) !=
          std::bit_cast<std::uint64_t>(b.score.combined) ||
      a.placements.size() != b.placements.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.placements.size(); ++i) {
    if (a.placements[i].vm_id != b.placements[i].vm_id ||
        a.placements[i].server_id != b.placements[i].server_id) {
      return false;
    }
  }
  return true;
}

struct Inputs {
  std::vector<aeva::serve::ServeRequest> stream;
  std::vector<std::vector<VmRequest>> vms;  ///< per request, planner pass
  /// Request indices by release instant (arrival + hold): the planner
  /// pass releases a placed request's VMs by walking this order, so the
  /// replay needs no event heap.
  std::vector<std::uint32_t> release_order;
};

Inputs make_inputs(const ServeShape& shape, std::uint64_t seed) {
  Inputs in;
  in.stream = aeva::serve::generate_stream(stream_config(shape), seed);
  std::int64_t next_vm = 1;
  in.vms.reserve(in.stream.size());
  for (const aeva::serve::ServeRequest& r : in.stream) {
    if (r.vm_count < 1 || r.vm_count > kMaxVms) {
      throw std::logic_error("perfbench: request wider than kMaxVms");
    }
    std::vector<VmRequest> vms;
    for (int i = 0; i < r.vm_count; ++i) {
      vms.push_back(VmRequest{next_vm++, r.profile, r.qos_time_s});
    }
    in.vms.push_back(std::move(vms));
  }
  in.release_order.resize(in.stream.size());
  std::iota(in.release_order.begin(), in.release_order.end(), 0U);
  std::stable_sort(in.release_order.begin(), in.release_order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return in.stream[a].arrival_s + in.stream[a].hold_s <
                            in.stream[b].arrival_s + in.stream[b].hold_s;
                   });
  return in;
}

// --- AllocationService::run -------------------------------------------------

struct ServePass {
  aeva::serve::ServeMetrics metrics;
  std::uint64_t decisions = 0;  ///< journaled DecisionRecords
  std::uint64_t vms_placed = 0;
  std::uint64_t log_digest = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  double wall_s = 0.0;
};

/// Summarizes one AllocationService::run: decision and VM counts, and a
/// digest of the rendered decision log.
ServePass summarize(const aeva::serve::ServeResult& result) {
  ServePass out;
  out.metrics = result.metrics;
  out.decisions = result.log.size();
  for (const aeva::serve::DecisionRecord& rec : result.log) {
    if (rec.event == aeva::serve::DecisionEvent::kPlaced) {
      out.vms_placed += rec.servers.size();
    }
  }
  aeva::persist::Fingerprint fp;
  fp.mix_string(aeva::serve::render_decision_log(result.log));
  out.log_digest = fp.value();
  return out;
}

/// The service under test, rebuilt by every setup. Its snapshot hook
/// encodes each AEVASRV snapshot in memory and, when tracing, records a
/// persist span; the hook holds `this`, so the object never moves.
struct Service {
  Service() = default;
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  std::optional<aeva::serve::AllocationService> service;
  std::uint64_t snapshots = 0;
  std::uint64_t snapshot_bytes = 0;
  Tracer* tracer = nullptr;

  void build(const aeva::modeldb::ModelDatabase& db, const ServeShape& shape,
             std::uint64_t seed) {
    aeva::serve::ServeConfig config = serve_config(shape, seed);
    if (shape.snapshot_every_s > 0.0) {
      config.snapshot.hook = [this](const aeva::persist::ServeSnapshot& s) {
        const std::int64_t t0 = now_ns();
        const std::string bytes = aeva::persist::encode_serve_snapshot(s);
        if (tracer != nullptr) {
          tracer->leaf(Layer::kPersistEncode, -1, t0, now_ns());
        }
        ++snapshots;
        snapshot_bytes += bytes.size();
      };
    }
    service.emplace(db, config);
  }

  /// Runs the service; a traced run records a serve.run span around it.
  aeva::serve::ServeResult run_raw(const Inputs& in, Tracer* with_tracer,
                                   double& wall_s) {
    tracer = with_tracer;
    snapshots = 0;
    snapshot_bytes = 0;
    const std::int64_t t0 = now_ns();
    aeva::serve::ServeResult result;
    {
      const Scope run(tracer, Layer::kServeRun);
      result = service->run(in.stream);
    }
    wall_s = seconds_since(t0);
    tracer = nullptr;
    return result;
  }

  /// Summary of the run_raw() that returned `result`.
  [[nodiscard]] ServePass summary(
      const aeva::serve::ServeResult& result) const {
    ServePass out = summarize(result);
    out.snapshots = snapshots;
    out.snapshot_bytes = snapshot_bytes;
    return out;
  }

  ServePass run(const Inputs& in) {
    double wall_s = 0.0;
    ServePass out = summary(run_raw(in, nullptr, wall_s));
    out.wall_s = wall_s;
    return out;
  }
};

// --- planner pass -----------------------------------------------------------

enum class Kind : std::uint8_t { kWarm, kCold, kOracle };

struct PlannerPass {
  std::vector<double> decision_us;  ///< post-warmup (untraced passes)
  std::vector<double> plan_warm_us;  ///< warm plan() calls (traced passes)
  std::vector<Kind> kinds;           ///< per decision (classifying pass)
  std::uint64_t decisions = 0;
  std::uint64_t placed = 0;
  std::uint64_t oracle_calls = 0;
  std::uint64_t mismatches = 0;
  aeva::core::FleetStats stats;
};

/// Where each request of a planner pass was placed; sized once per run.
struct Placements {
  std::vector<std::array<int, kMaxVms>> servers;
  std::vector<std::uint8_t> count;  ///< 0 = not placed
};

/// Replays the stream in simulated-time order: releases due by a
/// request's arrival are applied first, then the request is planned and
/// committed. Refused requests are not retried here. Three modes:
///  - timing (tracer null, classify false): each decision's host time;
///  - classifying (classify true): tags each decision cold/oracle/warm
///    from FleetStats around plan(), untimed;
///  - traced (tracer set): a span per public call, and warm plan() times
///    by the kinds of a classifying pass.
PlannerPass run_planner(const aeva::modeldb::ModelDatabase& db,
                        const aeva::serve::ServeConfig& config,
                        const Inputs& in, Placements& placed, Tracer* tracer,
                        bool classify, const std::vector<Kind>* kinds) {
  PlannerPass out;
  const bool traced = tracer != nullptr;
  std::optional<aeva::core::FleetState> fleet;
  std::optional<aeva::core::ProactiveAllocator> oracle;
  {
    const Scope build(tracer, Layer::kCoreBuild);
    std::vector<aeva::core::ServerState> ground(kServers);
    for (int i = 0; i < kServers; ++i) {
      ground[static_cast<std::size_t>(i)].id = i;
    }
    fleet.emplace(db, config.proactive);
    fleet->reset(ground);
    oracle.emplace(db, config.proactive);
  }
  placed.servers.resize(in.stream.size());
  placed.count.assign(in.stream.size(), 0);
  if (!traced && !classify) out.decision_us.reserve(in.stream.size());
  if (classify) out.kinds.reserve(in.stream.size());

  std::size_t next_release = 0;
  for (std::size_t d = 0; d < in.stream.size(); ++d) {
    const aeva::serve::ServeRequest& req = in.stream[d];
    // Release every placed request whose hold ended by this arrival.
    std::size_t end = next_release;
    while (end < in.release_order.size()) {
      const aeva::serve::ServeRequest& r = in.stream[in.release_order[end]];
      if (r.arrival_s + r.hold_s > req.arrival_s) break;
      ++end;
    }
    if (end > next_release) {
      const std::int64_t t0 = traced ? now_ns() : 0;
      for (; next_release < end; ++next_release) {
        const std::uint32_t i = in.release_order[next_release];
        for (std::uint8_t k = 0; k < placed.count[i]; ++k) {
          fleet->deallocate(placed.servers[i][k], in.stream[i].profile);
        }
      }
      if (traced) tracer->leaf(Layer::kCoreRelease, req.id, t0, now_ns());
    }
    const std::vector<VmRequest>& vms = in.vms[d];
    const bool oracle_due = (d + 1) % kOracleEvery == 0;
    const std::uint64_t misses_before =
        classify ? fleet->stats().memo_misses : 0;

    // One decision: plan(), the oracle on every 64th, then the commits.
    // Traced spans chain end to start, so no clock read falls between.
    const std::int64_t t_start = now_ns();
    const AllocationResult plan = fleet->plan(vms);
    std::int64_t t = traced ? now_ns() : 0;
    if (traced) tracer->leaf(Layer::kCorePlan, req.id, t_start, t);
    const std::int64_t t_plan = t;
    if (classify) {
      out.kinds.push_back(oracle_due ? Kind::kOracle
                          : fleet->stats().memo_misses > misses_before
                              ? Kind::kCold
                              : Kind::kWarm);
    }
    if (oracle_due) {
      const AllocationResult exact =
          oracle->allocate(vms, fleet->up_servers());
      if (traced) {
        const std::int64_t t_oracle = now_ns();
        tracer->leaf(Layer::kCoreOracle, req.id, t, t_oracle);
        t = t_oracle;
      }
      ++out.oracle_calls;
      if (!same_result(plan, exact)) ++out.mismatches;
    }
    if (plan.complete) {
      for (const aeva::core::Placement& p : plan.placements) {
        fleet->allocate(p.server_id, req.profile);
      }
      if (traced) tracer->leaf(Layer::kCoreCommit, req.id, t, now_ns());
    }
    const std::int64_t t_end = traced ? 0 : now_ns();

    if (plan.complete) {
      ++out.placed;
      for (const aeva::core::Placement& p : plan.placements) {
        placed.servers[d][placed.count[d]++] = p.server_id;
      }
    }
    if (!traced && !classify && d >= kWarmup) {
      out.decision_us.push_back(static_cast<double>(t_end - t_start) * 1e-3);
    }
    if (traced && kinds != nullptr && (*kinds)[d] == Kind::kWarm) {
      out.plan_warm_us.push_back(static_cast<double>(t_plan - t_start) * 1e-3);
    }
    ++out.decisions;
  }
  out.stats = fleet->stats();
  return out;
}

void check_serve(const ServePass& pass, const ServePass& reference,
                 const char* workload, Report& report) {
  const aeva::serve::ServeMetrics& m = pass.metrics;
  const std::string name = workload;
  const bool same_log = pass.log_digest == reference.log_digest &&
                        pass.snapshots == reference.snapshots &&
                        pass.snapshot_bytes == reference.snapshot_bytes;
  report.attempted += m.offered;
  report.failed += same_log ? (m.offered - m.placed) + m.oracle_divergences
                            : m.offered;
  report.check(m.placed == m.offered,
               name + ": " + std::to_string(m.offered - m.placed) +
                   " offered requests were never placed");
  report.check(m.oracle_divergences == 0,
               name + ": the serve oracle saw " +
                   std::to_string(m.oracle_divergences) + " divergences");
  report.check(same_log, name + ": decision log or snapshots differ between "
                                "repeats");
}

void check_planner(const PlannerPass& pass, const char* workload,
                   Report& report) {
  report.failed += pass.mismatches;
  report.check(pass.mismatches == 0,
               std::string(workload) + ": " + std::to_string(pass.mismatches) +
                   " planner decisions differ from the exhaustive search");
}

void run_serve(const ServeShape& shape, const Options& options,
               Report& report) {
  std::vector<SetupTimes> setups;
  std::optional<aeva::modeldb::ModelDatabase> db;
  Inputs in;
  Service service;
  for (int i = 0; i < kSetups; ++i) {
    SetupTimes times;
    const std::int64_t t0 = now_ns();
    db.emplace(build_database());
    times.campaign_s = seconds_since(t0);
    const std::int64_t t = now_ns();
    in = make_inputs(shape, options.seed);
    times.stream_s = seconds_since(t);
    service.build(*db, shape, options.seed);
    times.total_s = seconds_since(t0);
    setups.push_back(times);
  }
  const aeva::serve::ServeConfig config = serve_config(shape, options.seed);
  Placements placed;
  std::printf("inputs: %zu requests, stream fingerprint %016llx, %d servers\n",
              in.stream.size(),
              static_cast<unsigned long long>(
                  aeva::serve::stream_fingerprint(in.stream)),
              kServers);

  const ServePass reference = service.run(in);
  check_serve(reference, reference, shape.name, report);
  const aeva::serve::ServeMetrics& ref = reference.metrics;
  std::printf("reference run: %llu offered, %llu placed, %llu retries, "
              "%llu oracle checks, %llu decisions, %llu snapshots (%llu "
              "bytes)\n",
              static_cast<unsigned long long>(ref.offered),
              static_cast<unsigned long long>(ref.placed),
              static_cast<unsigned long long>(ref.retries),
              static_cast<unsigned long long>(ref.oracle_checks),
              static_cast<unsigned long long>(reference.decisions),
              static_cast<unsigned long long>(reference.snapshots),
              static_cast<unsigned long long>(reference.snapshot_bytes));

  if (options.trace) {
    const PlannerPass classified =
        run_planner(*db, config, in, placed, nullptr, true, nullptr);
    check_planner(classified, shape.name, report);
    std::uint64_t cold = 0;
    for (const Kind k : classified.kinds) cold += k == Kind::kCold ? 1 : 0;

    TracedRun traced;
    Tracer tracer;
    PlannerPass last;
    ServePass last_serve;
    std::vector<double> warm_us;
    double wall_s = 0.0;
    repeat_for(options.seconds, kMinPasses, [&](int) {
      // Walls cover the calls into the program only; log digests and
      // checks run outside them.
      const std::int64_t t0 = now_ns();
      aeva::serve::ServeResult result = service.run_raw(in, nullptr, wall_s);
      const PlannerPass plain =
          run_planner(*db, config, in, placed, nullptr, false, nullptr);
      traced.untraced_wall_s.push_back(seconds_since(t0));
      check_serve(service.summary(result), reference, shape.name, report);
      check_planner(plain, shape.name, report);
      {
        const Scope pass(&tracer, Layer::kPass);
        result = service.run_raw(in, &tracer, wall_s);
        last = run_planner(*db, config, in, placed, &tracer, false,
                           &classified.kinds);
      }
      last_serve = service.summary(result);
      check_serve(last_serve, reference, shape.name, report);
      check_planner(last, shape.name, report);
      warm_us.insert(warm_us.end(), last.plan_warm_us.begin(),
                     last.plan_warm_us.end());
      traced.fold(tracer);
    });

    report_setup_layers(setups, report);
    const auto& plan_us =
        traced.durations_us[static_cast<std::size_t>(Layer::kCorePlan)];
    const auto& oracle_us =
        traced.durations_us[static_cast<std::size_t>(Layer::kCoreOracle)];
    report.add("core.build_s", traced.self_s(Layer::kCoreBuild), "s");
    report.add("core.plan_s", traced.self_s(Layer::kCorePlan), "s");
    report.add("core.plan_p50_us", percentile(plan_us, 0.50), "us",
               sample_note(plan_us.size(), 0.50));
    report.add("core.plan_p99_us", percentile(plan_us, 0.99), "us",
               sample_note(plan_us.size(), 0.99));
    report.add("core.plan_warm_p99_us", percentile(warm_us, 0.99), "us",
               sample_note(warm_us.size(), 0.99));
    report.add("core.commit_s", traced.self_s(Layer::kCoreCommit), "s");
    report.add("core.release_s", traced.self_s(Layer::kCoreRelease), "s");
    report.add("core.fleet_memo_misses",
               static_cast<double>(last.stats.memo_misses), "count");
    report.add("core.fleet_groups", static_cast<double>(last.stats.groups),
               "count");
    report.add("core.cold_plans", static_cast<double>(cold), "count");
    report.add("core.oracle.calls", static_cast<double>(last.oracle_calls),
               "count");
    report.add("core.oracle.self_s", traced.self_s(Layer::kCoreOracle), "s");
    report.add("core.oracle.p50_us", percentile(oracle_us, 0.50), "us",
               sample_note(oracle_us.size(), 0.50));
    report.add("core.oracle.divergences",
               static_cast<double>(last.mismatches), "count");
    report.add("serve.run_s", traced.total_s(Layer::kServeRun), "s");
    report.add("serve.self_s", traced.self_s(Layer::kServeRun), "s");
    report.add("serve.decisions", static_cast<double>(last_serve.decisions),
               "count");
    report.add("serve.oracle_checks",
               static_cast<double>(last_serve.metrics.oracle_checks), "count");
    report.add("serve.retries",
               static_cast<double>(last_serve.metrics.retries), "count");
    report.add("persist.snapshots", static_cast<double>(last_serve.snapshots),
               "count");
    report.add("persist.encode_s", traced.self_s(Layer::kPersistEncode), "s");
    report.add("persist.snapshot_bytes",
               static_cast<double>(last_serve.snapshot_bytes), "bytes");
    traced.finish(options, report);
    return;
  }

  // Untraced: serve runs (wall time) until the time is up, with
  // kLatencyPasses planner passes (decision latency) spread among them.
  std::vector<double> walls;
  DecisionLatency latency;
  LatencySchedule schedule(options.seconds, kLatencyPasses);
  const auto planner_pass = [&] {
    const PlannerPass planner =
        run_planner(*db, config, in, placed, nullptr, false, nullptr);
    check_planner(planner, shape.name, report);
    latency.add_pass(planner.decision_us);
  };
  const std::int64_t start = now_ns();
  repeat_for(options.seconds, kMinPasses, [&](int) {
    const ServePass pass = service.run(in);
    check_serve(pass, reference, shape.name, report);
    walls.push_back(pass.wall_s);
    if (schedule.due(seconds_since(start))) planner_pass();
  });
  while (schedule.remaining() > 0 && schedule.due(options.seconds)) {
    planner_pass();
  }
  const double wall = median(walls);
  report.add("setup_s", median_setup_s(setups), "s",
             "median of " + std::to_string(kSetups) + " setups");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.add("eval_wall_s", wall, "s",
             "AllocationService::run, median of " +
                 std::to_string(walls.size()) + " passes");
  report.add("fleet_vms_per_s",
             static_cast<double>(reference.vms_placed) / wall, "1/s",
             std::to_string(reference.vms_placed) + " VMs placed per run");
  report.add("serve_decisions_per_s",
             static_cast<double>(reference.decisions) / wall, "1/s",
             std::to_string(reference.decisions) + " DecisionRecords per run");
  latency.report(report, true,
                 "planner passes, first " + std::to_string(kWarmup) +
                     " decisions excluded as warmup");
}

}  // namespace

void run_serve_churn(const Options& options, Report& report) {
  run_serve(kChurn, options, report);
}

void run_serve_durable(const Options& options, Report& report) {
  run_serve(kDurable, options, report);
}

}  // namespace perfbench
