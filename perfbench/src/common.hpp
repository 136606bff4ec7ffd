#pragma once
// Shared pieces of the serving-stack benchmark: clocks and sample summaries,
// the pinned model and input generator, the in-memory span recorder, and the
// machine/model fingerprint every result carries.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "nn/mlp.hpp"
#include "nn/quantize.hpp"
#include "numeric/format.hpp"
#include "runtime/model.hpp"

namespace pb {

namespace nn = dp::nn;
namespace num = dp::num;
namespace runtime = dp::runtime;

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Median, the tail percentile and the sample count of one distribution.
/// The tail is p99, reported only as "supported" when at least ten samples
/// lie beyond it (n >= 1000).
struct Summary {
  double p50 = 0;
  double p99 = 0;
  std::size_t n = 0;
  bool tail_supported() const { return n >= 1000; }
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);

/// Constant-memory latency record for the load generator: log-linear
/// buckets about 0.1% of the value wide (exact below 1 us), so a long or
/// fast run grows no sample buffer and the process's peak RSS stays the
/// program's own. summary() reports each bucket's midpoint.
class Histogram {
 public:
  void add(double us);
  Summary summary() const;

 private:
  static constexpr int kSubBits = 10;  // 1024 buckets per power of two
  static std::size_t index(std::uint64_t ns);
  static double midpoint_us(std::size_t index);
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(std::size_t{64 - kSubBits} << kSubBits);
  std::uint64_t n_ = 0;
};

/// One reported number. The order of a Metrics list is the print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// The verdict of one run: what was attempted, what failed, and every
/// self-check that did not hold (any entry makes the run incorrect).
struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  bool correct() const { return failed == 0 && problems.empty(); }
  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
};

// --- The pinned model and inputs --------------------------------------------

/// 64-128-128-64-10 ReLU MLP with fixed weights: the model identity stays
/// the same across seeds, so a seed only changes the traffic.
nn::Mlp bench_mlp();
/// The uniform serve format, posit<8,0>.
num::Format uniform_format();
/// The mixed offline assignment: posit<8,0> | posit<5,1> x2 | posit<8,0>.
std::vector<num::Format> mixed_formats();
/// rows x dim features drawn uniformly from [-1, 1) by a generator seeded
/// with (seed, stream), so each workload gets its own reproducible stream.
std::vector<double> make_rows(std::uint64_t seed, std::uint64_t stream, std::size_t rows,
                              std::size_t dim);
/// Activations converted between layer formats per inference.
std::size_t conversions_per_inference(const nn::QuantizedNetwork& net);
/// runtime::Model's ReLU on a posit pattern: negatives clear to zero, NaR
/// passes through.
inline std::uint32_t posit_relu(std::uint32_t bits, const num::PositFormat& f) {
  bits &= f.mask();
  if (bits == f.nar_pattern()) return bits;
  return ((bits >> (f.n - 1)) & 1u) ? f.zero_pattern() : bits;
}
/// std::thread::hardware_concurrency(), at least 1.
std::size_t nproc();

/// Aggregate CPU time from /proc/stat, in clock ticks. On a virtual machine
/// `steal` is the time the host ran something else while a vCPU wanted to
/// run: the main cause of run-to-run drift on a shared host.
struct CpuTimes {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTimes cpu_times();
/// Steal as a share of all CPU time between two snapshots (0 if unknown).
double steal_share(const CpuTimes& before, const CpuTimes& after);

// --- Span recording -----------------------------------------------------------

/// In-memory span recorder: name, start, end, parent and a request id shared
/// by every span of one request. Single-threaded — each recorder belongs to
/// the one thread that drives a workload. When off, every call is a no-op,
/// so the untraced runs pay one branch per span site.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Spans past this many are counted as dropped, bounding memory.
  static constexpr std::size_t kCapacity = std::size_t{1} << 22;

  explicit Tracer(bool on);

  bool on() const { return on_; }

  /// Record a span whose end is not known yet; close() it later.
  std::uint32_t open(const char* name, std::uint64_t request, std::uint32_t parent,
                     Clock::time_point start);
  void close(std::uint32_t span, Clock::time_point end);
  /// Record a finished span.
  std::uint32_t add(const char* name, std::uint64_t request, std::uint32_t parent,
                    Clock::time_point start, Clock::time_point end);

  /// Per span name: count, median duration and median self time (duration
  /// minus the part of it that child spans cover), in microseconds.
  struct NameStats {
    std::string name;
    std::size_t count = 0;
    double duration_p50_us = 0;
    double self_p50_us = 0;
  };
  std::vector<NameStats> summarize() const;
  /// Median duration of the spans called `name` (0 when there are none).
  double median_us(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// One JSON object per line, times in nanoseconds since the recorder was
  /// made. Returns false if the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t request;
    std::uint32_t parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool on_;
  std::size_t dropped_ = 0;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// --- Fingerprint ----------------------------------------------------------------

/// Machine, build and model identity as one JSON object: CPU model, nproc,
/// AVX2, compiler, build type, seed, and per model its layer formats,
/// bits/weight and dispatched kernel.
std::string fingerprint_json(std::uint64_t seed,
                             const std::vector<std::pair<std::string, const runtime::Model*>>& models);

}  // namespace pb
