#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "modeldb/campaign.hpp"
#include "persist/snapshot.hpp"
#include "testbed/server_config.hpp"
#include "trace/generator.hpp"
#include "trace/swf.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit,
                 std::string note) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(note)});
}

void Report::check(bool ok, const std::string& what) {
  if (!ok) {
    check_failures.push_back(what);
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::string sample_note(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  return "n=" + std::to_string(n) + ", " + std::to_string(n - rank) +
         " above";
}

void DecisionLatency::add_pass(const std::vector<double>& latency_us) {
  samples = p50.empty() ? latency_us.size()
                        : std::min(samples, latency_us.size());
  p50.push_back(percentile(latency_us, 0.50));
  p99.push_back(percentile(latency_us, 0.99));
  p999.push_back(percentile(latency_us, 0.999));
}

void DecisionLatency::report(Report& report, bool same_inputs,
                             const std::string& what) const {
  const auto summary = [&](const std::vector<double>& v) {
    return same_inputs ? *std::min_element(v.begin(), v.end()) : median(v);
  };
  const std::string note = " per pass; " + what + ", " +
                           (same_inputs ? "minimum" : "median") + " of " +
                           std::to_string(p50.size()) + " passes";
  report.add("decision_p50_us", summary(p50), "us",
             sample_note(samples, 0.50) + note);
  report.add("decision_p99_us", summary(p99), "us",
             sample_note(samples, 0.99) + note);
  report.add("decision_p999_us", summary(p999), "us",
             sample_note(samples, 0.999) + note);
}

int repeat_for(double seconds, int min_passes,
               const std::function<void(int)>& pass) {
  const std::int64_t start = now_ns();
  int done = 0;
  while (done < min_passes || seconds_since(start) < seconds) {
    pass(done);
    ++done;
  }
  return done;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

aeva::modeldb::ModelDatabase build_database() {
  aeva::modeldb::CampaignConfig config;
  config.server = aeva::testbed::testbed_server();
  const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
  config.threads = static_cast<int>(std::min(4U, cores));
  return aeva::modeldb::Campaign(config).build();
}

aeva::trace::PreparedWorkload make_workload(
    const aeva::modeldb::ModelDatabase& db, std::uint64_t seed,
    int target_vms, SetupTimes& times) {
  std::int64_t t0 = now_ns();
  aeva::util::Rng rng(seed);
  aeva::trace::GeneratorConfig gen;
  gen.target_jobs = static_cast<int>(
      static_cast<long long>(gen.target_jobs) * target_vms / 10000);
  aeva::trace::SwfTrace raw = aeva::trace::generate_egee_like(gen, rng);
  aeva::trace::clean(raw);
  times.generate_s += seconds_since(t0);

  t0 = now_ns();
  aeva::trace::PreparationConfig prep;
  prep.target_total_vms = target_vms;
  for (const auto profile : aeva::workload::kAllProfileClasses) {
    prep.solo_time_s[static_cast<std::size_t>(profile)] =
        db.base().of(profile).solo_time_s;
  }
  aeva::trace::PreparedWorkload workload =
      aeva::trace::prepare_workload(raw, prep, rng);
  times.prepare_s += seconds_since(t0);
  return workload;
}

std::uint64_t workload_fingerprint(
    const aeva::trace::PreparedWorkload& workload) {
  aeva::persist::Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(workload.total_vms));
  for (const aeva::trace::JobRequest& job : workload.jobs) {
    fp.mix(static_cast<std::uint64_t>(job.id));
    fp.mix_double(job.submit_s);
    fp.mix(static_cast<std::uint64_t>(job.profile));
    fp.mix(static_cast<std::uint64_t>(job.vm_count));
    fp.mix_double(job.runtime_scale);
    fp.mix_double(job.deadline_s);
    fp.mix_double(job.max_exec_stretch);
    fp.mix(static_cast<std::uint64_t>(job.depends_on));
  }
  return fp.value();
}

std::uint64_t metrics_digest(const aeva::datacenter::SimMetrics& m) {
  aeva::persist::Fingerprint fp;
  for (const double d :
       {m.makespan_s, m.energy_j, m.sla_violation_pct, m.mean_response_s,
        m.mean_wait_s, m.mean_job_wait_s, m.mean_busy_servers,
        m.peak_busy_servers, m.migration_transfer_s, m.lost_work_s,
        m.goodput_fraction, m.blast_radius_vms_mean,
        m.lost_work_correlated_s}) {
    fp.mix_double(d);
  }
  for (const std::size_t n :
       {m.jobs, m.vms, m.sla_violations, m.servers_powered, m.migrations,
        m.failures, m.vm_restarts, m.vms_abandoned, m.correlated_failures,
        m.blast_radius_vms_max, m.fallback_allocations}) {
    fp.mix(n);
  }
  for (const std::size_t n : m.rejects_by_reason) fp.mix(n);
  fp.mix(m.completions.size());
  return fp.value();
}

aeva::core::AllocationResult ObservedAllocator::allocate(
    std::span<const aeva::core::VmRequest> vms,
    std::span<const aeva::core::ServerState> servers) const {
  const std::int64_t t0 = now_ns();
  aeva::core::AllocationResult result = inner_.allocate(vms, servers);
  note(t0, now_ns(), vms, result);
  return result;
}

void ObservedAllocator::allocate_into(
    std::span<const aeva::core::VmRequest> vms,
    std::span<const aeva::core::ServerState> servers,
    aeva::core::AllocationResult& out) const {
  const std::int64_t t0 = now_ns();
  inner_.allocate_into(vms, servers, out);
  note(t0, now_ns(), vms, out);
}

void ObservedAllocator::note(std::int64_t t0, std::int64_t t1,
                             std::span<const aeva::core::VmRequest> vms,
                             const aeva::core::AllocationResult& result) const {
  ++tally_.calls;
  tally_.placed += result.complete ? 1 : 0;
  tally_.partitions_examined += result.partitions_examined;
  if (latency_us_ != nullptr) {
    latency_us_->push_back(static_cast<double>(t1 - t0) * 1e-3);
  }
  if (tracer_ != nullptr) {
    tracer_->leaf(layer_, vms.empty() ? -1 : vms.front().id, t0, t1);
  }
}

}  // namespace perfbench

// --- traced-run book-keeping (workloads.hpp) --------------------------------

namespace perfbench {

void TracedRun::fold(Tracer& tracer) {
  accumulate(tracer.spans(), totals, durations_us);
  traced_wall_s.push_back(
      tracer.spans().empty()
          ? 0.0
          : static_cast<double>(tracer.spans().front().end_ns -
                                tracer.spans().front().start_ns) *
                1e-9);
  if (exported.empty()) {
    const std::vector<Span>& spans = tracer.spans();
    exported.assign(spans.begin(),
                    spans.begin() + static_cast<std::ptrdiff_t>(std::min(
                                        spans.size(), kMaxExportedSpans)));
  }
  tracer.clear();
  ++passes;
}

double TracedRun::self_s(Layer l) const {
  return passes > 0 ? totals.self(l) / passes : 0.0;
}
double TracedRun::total_s(Layer l) const {
  return passes > 0 ? totals.total(l) / passes : 0.0;
}

void TracedRun::finish(const Options& options, Report& report) const {
  std::printf("\nper-layer self time (%d traced passes)\n", passes);
  print_layer_table(totals, passes);
  const double traced = median(traced_wall_s);
  const double untraced = median(untraced_wall_s);
  const double unattributed_pct =
      totals.wall_s > 0 ? 100.0 * totals.unattributed_s() / totals.wall_s
                        : 0.0;
  std::printf("traced pass %.6f s vs untraced pass %.6f s (medians)\n",
              traced, untraced);
  report.add("tracing.wall_s", traced, "s",
             "median of " + std::to_string(traced_wall_s.size()) +
                 " traced passes");
  report.add("tracing.untraced_wall_s", untraced, "s",
             "median of " + std::to_string(untraced_wall_s.size()) +
                 " untraced passes");
  report.add("tracing.overhead_pct", 100.0 * (traced - untraced) / untraced,
             "%");
  report.add("tracing.unattributed_pct", unattributed_pct, "%");
  std::uint64_t spans = 0;
  for (const std::uint64_t n : totals.count) spans += n;
  report.add("tracing.spans", static_cast<double>(spans) / passes, "count",
             "per traced pass");
  report.check(unattributed_pct <= 5.0,
               "unattributed time is more than 5% of the traced wall time");
  if (!options.trace_dir.empty()) {
    const std::string path = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    write_chrome_trace(exported, path);
    std::printf("chrome trace: %s (%zu spans)\n", path.c_str(),
                exported.size());
  }
}

void report_setup_layers(const std::vector<SetupTimes>& setups,
                         Report& report) {
  std::vector<double> campaign, generate, prepare, stream;
  for (const SetupTimes& s : setups) {
    campaign.push_back(s.campaign_s);
    generate.push_back(s.generate_s);
    prepare.push_back(s.prepare_s);
    stream.push_back(s.stream_s);
  }
  const std::string note = "median of " + std::to_string(setups.size());
  report.add("modeldb.campaign_s", median(campaign), "s", note);
  report.add("trace.generate_s", median(generate), "s", note);
  report.add("trace.prepare_s", median(prepare), "s", note);
  report.add("serve.stream_s", median(stream), "s", note);
}

double median_setup_s(const std::vector<SetupTimes>& setups) {
  std::vector<double> totals;
  for (const SetupTimes& s : setups) totals.push_back(s.total_s);
  return median(totals);
}

}  // namespace perfbench
