#include "spans.hpp"

#include <cstdio>

#include "util/atomic_file.hpp"

namespace perfbench {

const char* layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kPass: return "pass";
    case Layer::kCoreBuild: return "core.build";
    case Layer::kDatacenterRun: return "datacenter.run";
    case Layer::kCorePa: return "core.pa";
    case Layer::kCoreFf: return "core.ff";
    case Layer::kPersistEncode: return "persist.encode";
    case Layer::kServeRun: return "serve.run";
    case Layer::kCorePlan: return "core.plan";
    case Layer::kCoreCommit: return "core.commit";
    case Layer::kCoreRelease: return "core.release";
    case Layer::kCoreOracle: return "core.oracle";
  }
  return "?";
}

int Tracer::open(Layer layer, std::int64_t id) {
  Span span;
  span.layer = layer;
  span.id = id;
  span.parent = current_;
  spans_.push_back(span);
  current_ = static_cast<int>(spans_.size()) - 1;
  spans_.back().start_ns = now_ns();
  return current_;
}

void Tracer::close(int index) {
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = now_ns();
  current_ = span.parent;  // Scope closes spans in reverse order of opening
}

void Tracer::leaf(Layer layer, std::int64_t id, std::int64_t start_ns,
                  std::int64_t end_ns) {
  Span span;
  span.layer = layer;
  span.id = id;
  span.parent = current_;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

void accumulate(const std::vector<Span>& spans, LayerTotals& totals,
                std::array<std::vector<double>, kLayerCount>& durations_us) {
  std::vector<double> child_s(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_s[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto l = static_cast<std::size_t>(span.layer);
    const double dur_s =
        static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    totals.total_s[l] += dur_s;
    totals.self_s[l] += dur_s - child_s[i];
    totals.count[l] += 1;
    durations_us[l].push_back(dur_s * 1e6);
    if (span.parent < 0) totals.wall_s += dur_s;
  }
}

void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const char* name = layer_name(s.layer);
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"id\":%lld}}",
                  i == 0 ? "" : ",\n", name, name,
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                  s.parent, static_cast<long long>(s.id));
    out += buf;
  }
  out += "\n]}\n";
  aeva::util::write_file_atomic(path, out);
}

void print_layer_table(const LayerTotals& totals, int passes) {
  const double per = passes > 0 ? 1.0 / passes : 0.0;
  std::printf("%-16s %10s %12s %12s %8s\n", "layer", "spans/pass",
              "self s/pass", "total s/pass", "self %");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    if (totals.count[l] == 0) continue;
    std::printf("%-16s %10.0f %12.6f %12.6f %7.2f%%\n",
                l == 0 ? "(unattributed)" : layer_name(static_cast<Layer>(l)),
                static_cast<double>(totals.count[l]) * per,
                totals.self_s[l] * per, totals.total_s[l] * per,
                totals.wall_s > 0 ? 100.0 * totals.self_s[l] / totals.wall_s
                                  : 0.0);
  }
  std::printf("%-16s %10s %12.6f\n", "traced wall", "", totals.wall_s * per);
}

}  // namespace perfbench
