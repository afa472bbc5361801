/// aeva_perfbench — the repository benchmark (perfbench/README.md).
///
/// Usage: aeva_perfbench --workload <name> --seed <n> --seconds <s>
///                       --trace <0|1> [--trace-dir <dir>]
///
/// Runs one workload in this process. With --trace 0 it reports the
/// end-to-end metrics, measured without spans; with --trace 1 it runs the
/// workload again with a span around every call into the program and
/// reports the per-layer metrics of the layers the workload runs. The
/// last stdout line is one JSON object: {"correct", "attempted",
/// "failed", "metrics"}; perfbench/run.py checks it against
/// BENCHMARK.json. A failed output check makes the exit status 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Report;

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "aeva_perfbench: %s\nusage: aeva_perfbench --workload "
               "<paper_eval|large_fleet|serve_churn|serve_durable> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               what.c_str());
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else {
        usage_error("unknown flag " + std::string(flag));
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + std::string(flag) + ": " + value);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(options.seconds > 0.0)) usage_error("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  Report report;
  try {
    std::printf("aeva_perfbench: workload %s, seed %llu (held-out seed %llu), "
                "%g s, trace %d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                static_cast<unsigned long long>(perfbench::kHeldOutSeed),
                options.seconds, options.trace ? 1 : 0);
    if (options.workload == "paper_eval") {
      perfbench::run_paper_eval(options, report);
    } else if (options.workload == "large_fleet") {
      perfbench::run_large_fleet(options, report);
    } else if (options.workload == "serve_churn") {
      perfbench::run_serve_churn(options, report);
    } else if (options.workload == "serve_durable") {
      perfbench::run_serve_durable(options, report);
    } else {
      usage_error("unknown workload " + options.workload);
    }
    const std::vector<Metric>& metrics = report.metrics;
    for (const Metric& m : metrics) {
      report.check(std::isfinite(m.value), m.name + " is not a finite number");
    }

    std::printf("\n%-32s %16s  %-6s %s\n", "metric", "value", "unit", "");
    for (const Metric& m : metrics) {
      std::printf("%-32s %16.6f  %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    }
    const bool correct = report.check_failures.empty();
    std::printf("%s: %llu attempted, %llu failed, %zu failed checks\n",
                correct ? "PASS" : "FAIL",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                report.check_failures.size());

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);  // non-finite: failed above
      json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
              "\": {\"value\": " + buf + ", \"unit\": \"" + metrics[i].unit +
              "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "aeva_perfbench: error: %s\n", e.what());
    return 1;
  }
}
