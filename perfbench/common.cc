#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "eval/metrics.h"

namespace perfbench {

namespace {

thread_local std::vector<uint64_t> open_spans;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::Count(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::printf("FAILED: %s\n", what.c_str());
    std::fflush(stdout);
  }
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

uint64_t Tracer::Begin(const char* layer, const char* name) {
  Record r;
  r.layer = layer;
  r.name = name;
  r.parent = open_spans.empty() ? 0 : open_spans.back();
  r.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(r));
  spans_.back().id = spans_.size();
  open_spans.push_back(spans_.size());
  return spans_.size();
}

void Tracer::End(uint64_t id) {
  const int64_t end = NowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].end_ns = end;
  }
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
}

bool Tracer::WriteSpans(const std::string& path,
                        const std::vector<double>& untraced_op_s) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out << "{\"id\": " << r.id << ", \"parent\": " << r.parent
        << ", \"layer\": \"" << r.layer << "\", \"name\": \"" << r.name
        << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "], \"untraced_op_s\": [";
  for (size_t i = 0; i < untraced_op_s.size(); ++i) {
    out << (i ? ", " : "") << JsonNumber(untraced_op_s[i]);
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* layer, const char* name, bool on) {
  Tracer& t = Tracer::Get();
  if (on && t.enabled()) id_ = t.Begin(layer, name);
}

Span::~Span() {
  if (id_ != 0) Tracer::Get().End(id_);
}

namespace {

// The calibration kernel: all pairwise squared distances among 256 fixed
// 74-d points, the same arithmetic as the distance kernels.
constexpr size_t kCalibPoints = 256;
constexpr size_t kCalibDim = 74;
// Its duration on the VM the bounds were set on, when that VM was fast.
constexpr double kReferenceSeconds = 0.0015;

double CalibrationKernel() {
  static const std::vector<double> points = [] {
    std::vector<double> v(kCalibPoints * kCalibDim);
    uint64_t x = 88172645463325252ULL;
    for (double& d : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      d = static_cast<double>(x % 10000) / 100.0;
    }
    return v;
  }();
  double close = 0.0;
  for (size_t i = 0; i < kCalibPoints; ++i) {
    for (size_t j = i + 1; j < kCalibPoints; ++j) {
      double sum = 0.0;
      for (size_t k = 0; k < kCalibDim; ++k) {
        const double t = points[i * kCalibDim + k] - points[j * kCalibDim + k];
        sum += t * t;
      }
      close += sum < 40000.0 ? 1.0 : 0.0;
    }
  }
  return close;
}

}  // namespace

void HostSpeed::Sample() {
  const double start = NowSeconds();
  volatile double sink = CalibrationKernel();
  (void)sink;
  const double seconds = NowSeconds() - start;
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(seconds);
}

double HostSpeed::MedianSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Median(samples_);
}

double HostSpeed::Factor() const {
  const double median = MedianSeconds();
  return median > 0.0 ? kReferenceSeconds / median : 1.0;
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double TailQuantileFor(size_t n) {
  if (n == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(n);
  return std::clamp(q, 0.5, 0.95);
}

ddp::Dataset PointsOnly(const ddp::Dataset& data) {
  return std::move(ddp::Dataset::FromValues(data.dim(), data.values())).value();
}

uint64_t ResultDigest(const ddp::DdpRunResult& run) {
  uint64_t h = Digest(std::span<const uint32_t>(run.scores.rho));
  h = Digest(std::span<const double>(run.scores.delta), h);
  h = Digest(std::span<const ddp::PointId>(run.scores.upslope), h);
  return Digest(std::span<const int>(run.clusters.assignment), h);
}

double Ari(std::span<const int> assignment, const std::vector<int>& labels) {
  auto ari = ddp::eval::AdjustedRandIndex(assignment, labels);
  return ari.ok() ? *ari : -1.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ScaleWallMetrics(Report* report) {
  const double f = report->host.Factor();
  std::printf("host speed: calibration %.3f ms (median), scale factor %.4f; "
              "unscaled:",
              1e3 * report->host.MedianSeconds(), f);
  for (const char* name :
       {"setup_s", "points_per_s", "jobs_per_s", "job_p50_ms", "job_p95_ms"}) {
    auto it = report->metrics.find(name);
    if (it == report->metrics.end()) continue;
    std::printf(" %s %.6g", name, it->second.value);
    const bool rate = it->second.unit.find("/s") != std::string::npos;
    it->second.value = rate ? it->second.value / f : it->second.value * f;
  }
  std::printf("\n");
  report->Set("bench.host_calib_ms", 1e3 * report->host.MedianSeconds(), "ms");
}

void PrintReport(const Report& report, bool correct) {
  std::printf("\n%-28s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : report.metrics) {
    std::printf("%-28s %18.6g  %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("operations: %llu attempted, %llu failed (fail_ratio %.4g)\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted
                  ? static_cast<double>(report.failed) /
                        static_cast<double>(report.attempted)
                  : 0.0);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
