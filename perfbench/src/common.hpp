#pragma once

/// \file common.hpp
/// Shared pieces of the benchmark's workloads: options, the result a
/// workload reports, sample statistics, seeded input generation, and the
/// pass-through allocator decorator that times calls into `core`.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "datacenter/simulator.hpp"
#include "modeldb/database.hpp"
#include "spans.hpp"
#include "trace/prepare.hpp"

namespace perfbench {

/// Seed the benchmark's figures were tuned on, and the held-out seed on
/// which a later performance claim must also hold.
inline constexpr std::uint64_t kTuningSeed = 2026;
inline constexpr std::uint64_t kHeldOutSeed = 7919;

struct Options {
  std::string workload;
  std::uint64_t seed = kTuningSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where a traced run writes its Chrome JSON
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts, …)
};

/// What one workload invocation reports.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;

  void add(std::string name, double value, std::string unit,
           std::string note = "");
  /// Records a failed output check (the run then exits non-zero).
  void check(bool ok, const std::string& what);
};

// --- statistics -------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// "n=<count>, <k> above" — the sample count behind a percentile.
[[nodiscard]] std::string sample_note(std::size_t n, double q);

/// Decision-latency percentiles of a fixed number of passes, each pass's
/// sample summarized on its own.
struct DecisionLatency {
  std::vector<double> p50;
  std::vector<double> p99;
  std::vector<double> p999;
  std::size_t samples = 0;  ///< fewest decisions timed in one pass

  void add_pass(const std::vector<double>& latency_us);
  /// Adds decision_p50_us, decision_p99_us and decision_p999_us: the
  /// minimum over passes of the same inputs (host noise only ever adds
  /// latency), or the median over passes of different inputs.
  void report(Report& report, bool same_inputs, const std::string& what) const;
};

/// Spreads a fixed number of latency passes evenly over a timed loop, so
/// their minimum sees the whole run rather than its first seconds (host
/// contention comes and goes within seconds).
class LatencySchedule {
 public:
  LatencySchedule(double seconds, int count)
      : seconds_(seconds), count_(count) {}
  /// True, once per pass, when the next pass is due `elapsed` seconds in.
  [[nodiscard]] bool due(double elapsed) {
    if (done_ >= count_ || elapsed < seconds_ * done_ / count_) return false;
    ++done_;
    return true;
  }
  [[nodiscard]] int remaining() const { return count_ - done_; }

 private:
  double seconds_;
  int count_;
  int done_ = 0;
};

/// Runs `pass` at least `min_passes` times and until `seconds` elapsed.
int repeat_for(double seconds, int min_passes,
               const std::function<void(int)>& pass);

[[nodiscard]] double seconds_since(std::int64_t start_ns);

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

// --- inputs -----------------------------------------------------------------

/// Setup phases that the per-layer run reports (seconds).
struct SetupTimes {
  double campaign_s = 0.0;
  double generate_s = 0.0;
  double prepare_s = 0.0;
  double stream_s = 0.0;
  double total_s = 0.0;
};

/// The model database from the default measurement campaign, built with
/// at most four threads (results do not depend on the thread count).
[[nodiscard]] aeva::modeldb::ModelDatabase build_database();

/// The evaluation's EGEE-like trace, cleaned and prepared to request
/// `target_vms` VMs; the job count scales with `target_vms` so arrival
/// density is kept (same pipeline as bench/harness_common.hpp).
[[nodiscard]] aeva::trace::PreparedWorkload make_workload(
    const aeva::modeldb::ModelDatabase& db, std::uint64_t seed,
    int target_vms, SetupTimes& times);

/// Order-sensitive hash of a prepared trace.
[[nodiscard]] std::uint64_t workload_fingerprint(
    const aeva::trace::PreparedWorkload& workload);

/// Hash of every SimMetrics field, doubles by exact bit pattern.
[[nodiscard]] std::uint64_t metrics_digest(
    const aeva::datacenter::SimMetrics& metrics);

// --- timing decorator -------------------------------------------------------

/// Pass-through core::Allocator: forwards every call unchanged, counts
/// calls and outcomes, and optionally records each call's host latency
/// and a span. Placement results are untouched, so a run through the
/// decorator must match a plain run bit for bit (checked).
class ObservedAllocator final : public aeva::core::Allocator {
 public:
  struct Tally {
    std::uint64_t calls = 0;
    std::uint64_t placed = 0;
    std::uint64_t partitions_examined = 0;
  };

  ObservedAllocator(const aeva::core::Allocator& inner, Layer layer,
                    Tracer* tracer, std::vector<double>* latency_us)
      : inner_(inner), layer_(layer), tracer_(tracer),
        latency_us_(latency_us) {}

  [[nodiscard]] aeva::core::AllocationResult allocate(
      std::span<const aeva::core::VmRequest> vms,
      std::span<const aeva::core::ServerState> servers) const override;
  void allocate_into(std::span<const aeva::core::VmRequest> vms,
                     std::span<const aeva::core::ServerState> servers,
                     aeva::core::AllocationResult& out) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  [[nodiscard]] const Tally& tally() const noexcept { return tally_; }

 private:
  void note(std::int64_t t0, std::int64_t t1,
            std::span<const aeva::core::VmRequest> vms,
            const aeva::core::AllocationResult& result) const;

  const aeva::core::Allocator& inner_;
  Layer layer_;
  Tracer* tracer_;
  std::vector<double>* latency_us_;
  mutable Tally tally_;
};

}  // namespace perfbench
