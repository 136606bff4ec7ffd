#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <thread>

#include "core/percentile.hpp"

namespace pb {

Summary summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {dp::core::percentile(samples, 50), dp::core::percentile(samples, 99), samples.size()};
}

double median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return dp::core::percentile(samples, 50);
}

std::size_t Histogram::index(std::uint64_t ns) {
  constexpr std::uint64_t sub = std::uint64_t{1} << kSubBits;
  if (ns < sub) return static_cast<std::size_t>(ns);
  const int e = std::bit_width(ns) - 1 - kSubBits;
  return (static_cast<std::size_t>(e + 1) << kSubBits) + static_cast<std::size_t>((ns >> e) - sub);
}

double Histogram::midpoint_us(std::size_t index) {
  constexpr std::size_t sub = std::size_t{1} << kSubBits;
  if (index < sub) return static_cast<double>(index) / 1e3;
  const int e = static_cast<int>(index >> kSubBits) - 1;
  const double lower = std::ldexp(static_cast<double>((index & (sub - 1)) + sub), e);
  return (lower + std::ldexp(0.5, e)) / 1e3;
}

void Histogram::add(double us) {
  ++counts_[index(static_cast<std::uint64_t>(std::llround(std::max(0.0, us) * 1e3)))];
  ++n_;
}

Summary Histogram::summary() const {
  Summary s;
  s.n = static_cast<std::size_t>(n_);
  if (n_ == 0) return s;
  // Nearest rank, as core::percentile computes it over a sorted sample.
  auto rank_of = [&](double p) {
    return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(n_) - 1e-9)));
  };
  const std::uint64_t r50 = rank_of(50);
  const std::uint64_t r99 = rank_of(99);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size() && seen < r99; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t before = seen;
    seen += counts_[i];
    if (before < r50 && seen >= r50) s.p50 = midpoint_us(i);
    if (seen >= r99) s.p99 = midpoint_us(i);
  }
  return s;
}

nn::Mlp bench_mlp() { return nn::Mlp({64, 128, 128, 64, 10}, /*seed=*/7); }

num::Format uniform_format() { return num::Format{num::PositFormat{8, 0}}; }

std::vector<num::Format> mixed_formats() {
  std::vector<num::Format> fmts(4, num::Format{num::PositFormat{5, 1}});
  fmts.front() = num::Format{num::PositFormat{8, 0}};
  fmts.back() = num::Format{num::PositFormat{8, 0}};
  return fmts;
}

std::vector<double> make_rows(std::uint64_t seed, std::uint64_t stream, std::size_t rows,
                              std::size_t dim) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream)};
  std::mt19937_64 rng(seq);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> xs(rows * dim);
  for (double& v : xs) v = u(rng);
  return xs;
}

std::size_t conversions_per_inference(const nn::QuantizedNetwork& net) {
  std::size_t n = 0;
  for (std::size_t li = 1; li < net.layers.size(); ++li) {
    if (!(net.layer_format(li - 1) == net.layer_format(li))) n += net.layers[li].fan_in;
  }
  return n;
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

CpuTimes cpu_times() {
  std::ifstream is("/proc/stat");
  std::string cpu;
  is >> cpu;
  CpuTimes t;
  if (cpu != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(is >> v)) return CpuTimes{};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

// --- Tracer ---------------------------------------------------------------------

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now()) {
  if (on_) spans_.reserve(std::size_t{1} << 16);
}

std::uint32_t Tracer::open(const char* name, std::uint64_t request, std::uint32_t parent,
                           Clock::time_point start) {
  return add(name, request, parent, start, start);
}

void Tracer::close(std::uint32_t span, Clock::time_point end) {
  if (span != kNone) spans_[span].end = end;
}

std::uint32_t Tracer::add(const char* name, std::uint64_t request, std::uint32_t parent,
                          Clock::time_point start, Clock::time_point end) {
  if (!on_) return kNone;
  if (spans_.size() >= kCapacity) {
    ++dropped_;
    return kNone;
  }
  spans_.push_back({name, request, parent, start, end});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<Tracer::NameStats> Tracer::summarize() const {
  // A child covers its parent's interval only where it lies inside it (the
  // offline replay runs after the call it belongs to and covers none).
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent == kNone) continue;
    const Span& p = spans_[s.parent];
    if (s.start >= p.start && s.end <= p.end) child_us[s.parent] += us_between(s.start, s.end);
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = us_between(spans_[i].start, spans_[i].end);
    auto& [dur, self] = by_name[spans_[i].name];
    dur.push_back(d);
    self.push_back(d - child_us[i]);
  }
  std::vector<NameStats> out;
  for (auto& [name, v] : by_name) {
    out.push_back({name, v.first.size(), median(v.first), median(v.second)});
  }
  return out;
}

double Tracer::median_us(std::string_view name) const {
  std::vector<double> d;
  for (const Span& s : spans_) {
    if (name == s.name) d.push_back(us_between(s.start, s.end));
  }
  return median(std::move(d));
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"request\":" << s.request
       << ",\"parent\":";
    if (s.parent == kNone) {
      os << "null";
    } else {
      os << s.parent;
    }
    os << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end) << "}\n";
  }
  return static_cast<bool>(os);
}

// --- Fingerprint ------------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

bool cpu_has_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

std::string fingerprint_json(
    std::uint64_t seed, const std::vector<std::pair<std::string, const runtime::Model*>>& models) {
  std::ostringstream os;
  os << "{\"cpu\":\"" << json_escape(cpu_model()) << "\",\"nproc\":" << nproc()
     << ",\"avx2\":" << (cpu_has_avx2() ? "true" : "false") << ",\"compiler\":\""
     << json_escape(PERFBENCH_COMPILER) << "\",\"build_type\":\"" << json_escape(PERFBENCH_BUILD_TYPE)
     << "\",\"seed\":" << seed << ",\"models\":{";
  for (std::size_t m = 0; m < models.size(); ++m) {
    const runtime::Model& model = *models[m].second;
    const nn::QuantizedNetwork& net = model.network();
    os << (m == 0 ? "" : ",") << "\"" << models[m].first << "\":{\"shape\":\"" << net.input_dim();
    for (const nn::QuantizedLayer& layer : net.layers) os << "-" << layer.fan_out;
    os << "\",\"formats\":[";
    for (std::size_t li = 0; li < net.layers.size(); ++li) {
      os << (li == 0 ? "\"" : ",\"") << net.layer_format(li).name() << "\"";
    }
    os << "],\"bits_per_weight\":" << model.bits_per_weight() << ",\"kernel\":\""
       << model.kernel_name() << "\",\"tile\":" << model.preferred_tile() << "}";
  }
  os << "}}";
  return os.str();
}

}  // namespace pb
