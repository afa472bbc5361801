#pragma once

/// \file spans.hpp
/// In-memory span recorder for the benchmark's traced runs. Spans are
/// recorded by the benchmark around its calls into the program's public
/// functions (never inside the program), kept in a vector, and written
/// out once as Chrome trace-event JSON.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary origin.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What a span wraps. kPass is the benchmark's own root span: its self
/// time is the part of a traced pass that no layer span covers (the
/// "unattributed" share the layer-sum check bounds).
enum class Layer : std::uint8_t {
  kPass,
  kCoreBuild,      ///< constructing an allocator (core)
  kDatacenterRun,  ///< datacenter::Simulator construction + run
  kCorePa,         ///< ProactiveAllocator call from the simulator
  kCoreFf,         ///< FirstFitAllocator call from the simulator
  kPersistEncode,  ///< persist::encode_snapshot / encode_serve_snapshot
  kServeRun,       ///< serve::AllocationService::run
  kCorePlan,       ///< core::FleetState::plan
  kCoreCommit,     ///< core::FleetState::allocate for one placement
  kCoreRelease,    ///< core::FleetState::deallocate for one release
  kCoreOracle,     ///< exhaustive ProactiveAllocator::allocate (oracle)
};
inline constexpr std::size_t kLayerCount = 11;

[[nodiscard]] const char* layer_name(Layer layer) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = -1;      ///< job, VM or request id; -1 when none
  std::int32_t parent = -1;  ///< index of the enclosing span; -1 = root
  Layer layer = Layer::kPass;
};

/// Append-only span log. `open`/`close` bracket a span that may have
/// children; `leaf` records an already-timed span under the open one.
class Tracer {
 public:
  [[nodiscard]] int open(Layer layer, std::int64_t id = -1);
  void close(int index);
  void leaf(Layer layer, std::int64_t id, std::int64_t start_ns,
            std::int64_t end_ns);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  void clear() noexcept {
    spans_.clear();
    current_ = -1;
  }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

/// RAII span; a null tracer makes it inert.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, std::int64_t id = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->open(layer, id) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

/// Per-layer sums over one or more traced passes.
struct LayerTotals {
  std::array<double, kLayerCount> self_s{};   ///< duration minus children
  std::array<double, kLayerCount> total_s{};  ///< duration
  std::array<std::uint64_t, kLayerCount> count{};
  double wall_s = 0.0;  ///< summed duration of root spans

  [[nodiscard]] double self(Layer l) const {
    return self_s[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double total(Layer l) const {
    return total_s[static_cast<std::size_t>(l)];
  }
  /// Root self time: traced wall time no layer span covers.
  [[nodiscard]] double unattributed_s() const { return self(Layer::kPass); }
};

/// Folds `spans` into `totals` and appends each span's duration (µs) to
/// `durations_us[layer]`.
void accumulate(const std::vector<Span>& spans, LayerTotals& totals,
                std::array<std::vector<double>, kLayerCount>& durations_us);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events; load
/// it in chrome://tracing or Perfetto).
void write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

/// Prints the per-layer self-time table of one workload's traced run.
void print_layer_table(const LayerTotals& totals, int passes);

}  // namespace perfbench
