#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ddp/driver.h"

/// \file common.h
/// Shared pieces of the repository benchmark: command-line arguments, the
/// in-memory span recorder of the traced run, order statistics, result
/// digests and the metric report every workload prints.

namespace perfbench {

/// Every metric value is a number with a unit; the names and units are
/// checked against BENCHMARK.json by run.py.
struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for data files, spill files and the span dump. The
  /// benchmark deletes what it creates inside it.
  std::string work_dir;
  /// Self-test hook: corrupt one point's cluster id in the first timed
  /// operation, so the correctness gate must reject the run.
  bool inject_mismatch = false;
};

// Host speed. On a shared VM the speed the host lends each vCPU drifts by
// 20-30% over tens of minutes, and every wall time with it. The benchmark
// times a fixed single-thread kernel (a few ms) next to its operations and
// scales its wall-time metrics to a reference speed:
//   scaled time = raw time * Factor(),  scaled rate = raw rate / Factor(),
// so a change to the program moves the metrics and a change of host speed
// mostly does not.

class HostSpeed {
 public:
  /// Times the calibration kernel once. Thread-safe.
  void Sample();
  /// kReferenceSeconds / the median sample (1.0 with no samples).
  double Factor() const;
  double MedianSeconds() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

/// What one workload run reports.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Wall times of operations run without spans, for obs.trace_overhead
  /// (traced run only).
  std::vector<double> untraced_op_s;
  /// Sampled by the workloads next to their set-up and timed operations.
  HostSpeed host;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts one operation; a failed one is also printed with its reason.
  void Count(bool ok, const std::string& what);
};

// ---------------------------------------------------------------------------
// Spans of the traced run. Recorded only from the benchmark's own code, around
// calls into the library's public functions; kept in memory and written out
// once the run ends (WriteSpans). A span's parent is the innermost span open
// on the same thread.

class Tracer {
 public:
  static Tracer& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  struct Record {
    uint64_t id = 0;
    uint64_t parent = 0;  // 0 = root
    std::string layer;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  uint64_t Begin(const char* layer, const char* name);
  void End(uint64_t id);
  /// Writes {"spans": [...], "untraced_op_s": [...]} as JSON.
  bool WriteSpans(const std::string& path,
                  const std::vector<double>& untraced_op_s) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // id = index + 1
};

/// RAII span; a no-op unless tracing is enabled. `layer` is the module
/// under src/ that the wrapped call belongs to (or "bench" for the
/// benchmark's own root spans); `name` says which call.
class Span {
 public:
  /// `on` = false records nothing (an untraced operation of a traced run).
  Span(const char* layer, const char* name, bool on = true);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  uint64_t id_ = 0;
};

// ---------------------------------------------------------------------------
// Order statistics over samples.

double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// The tail quantile to report for `n` samples: 0.95 when at least ten
/// samples lie beyond it, else the highest quantile that has ten beyond it,
/// but never below the median.
double TailQuantileFor(size_t n);

// ---------------------------------------------------------------------------
// Correctness digests and helpers.

/// FNV-1a over the raw bytes of a span of trivially copyable values.
template <typename T>
uint64_t Digest(std::span<const T> values, uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (size_t i = 0; i < values.size_bytes(); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The coordinates of `data` without its labels: what the program is given.
ddp::Dataset PointsOnly(const ddp::Dataset& data);

/// Digest of a whole pipeline output: scores and assignment.
uint64_t ResultDigest(const ddp::DdpRunResult& run);

/// Adjusted Rand index of `assignment` against the generator's labels
/// (-1 when it cannot be computed).
double Ari(std::span<const int> assignment, const std::vector<int>& labels);

double PeakRssMb();
double NowSeconds();

/// Scales setup_s, points_per_s, jobs_per_s, job_p50_ms and job_p95_ms to
/// the reference host speed, prints their raw values, and records the
/// calibration as bench.host_calib_ms.
void ScaleWallMetrics(Report* report);

/// Prints the report's human-readable metric table and, as the last line,
/// the JSON result object.
void PrintReport(const Report& report, bool correct);

}  // namespace perfbench
