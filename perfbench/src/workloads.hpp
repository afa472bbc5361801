#pragma once

/// \file workloads.hpp
/// The benchmark's four workloads. Each fills `report` with the
/// end-to-end metrics (untraced run) or the per-layer metrics (traced
/// run, `options.trace`), counts the operations it attempted and failed,
/// and records every failed output check.

#include <array>
#include <vector>

#include "common.hpp"

namespace perfbench {

void run_paper_eval(const Options& options, Report& report);
void run_large_fleet(const Options& options, Report& report);
void run_serve_churn(const Options& options, Report& report);
void run_serve_durable(const Options& options, Report& report);

/// Spans of the first traced pass written to the Chrome trace; keeps the
/// file loadable and small.
inline constexpr std::size_t kMaxExportedSpans = 100000;

/// Book-keeping of a traced run: untraced and traced passes alternate,
/// and every traced pass's spans are folded into per-layer totals. The
/// first traced pass's spans are kept for the Chrome trace export.
struct TracedRun {
  LayerTotals totals;
  std::array<std::vector<double>, kLayerCount> durations_us;
  std::vector<double> traced_wall_s;
  std::vector<double> untraced_wall_s;
  std::vector<Span> exported;
  int passes = 0;

  void fold(Tracer& tracer);
  /// Mean per traced pass of a layer's self / total seconds.
  [[nodiscard]] double self_s(Layer l) const;
  [[nodiscard]] double total_s(Layer l) const;
  /// Reports tracing.* metrics, prints the layer table, writes the
  /// Chrome trace and checks the unattributed share.
  void finish(const Options& options, Report& report) const;
};

/// Reports the four setup-phase metrics (medians over the setups).
void report_setup_layers(const std::vector<SetupTimes>& setups,
                         Report& report);

/// Median of the setups' total time.
[[nodiscard]] double median_setup_s(const std::vector<SetupTimes>& setups);

}  // namespace perfbench
