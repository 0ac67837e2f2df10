// The two batch workloads: whole RunDistributedDp pipelines back to back in
// one closed loop, on one process.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <optional>
#include <random>

#include "common/stopwatch.h"
#include "core/assignment.h"
#include "core/decision_graph.h"
#include "core/sequential_dp.h"
#include "dataset/binary_io.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/lsh_ddp.h"
#include "workloads.h"

namespace perfbench {

using ddp::Dataset;
using ddp::DdpOptions;
using ddp::DdpRunResult;
using ddp::DistributedDpAlgorithm;
using ddp::Result;
using ddp::Stopwatch;
namespace mr = ddp::mr;

namespace {

// Set-up is repeated this many times per run and reported as its median.
constexpr int kSetupRepeats = 3;
// Every pipeline uses this many MapReduce workers, whatever the host has.
// One: on a shared host, multi-worker wall time measures how many physical
// cores the host lends, not the program (README.md, "One worker").
constexpr size_t kWorkers = 1;
// LSH-DDP's hash-group seed; the data seed comes from --seed.
constexpr uint64_t kLshSeed = 7;

struct BatchConfig {
  const char* name;
  size_t datasets;  // data sets per run, cycled through by the timed loop
  size_t points;    // per data set
  // Makes the run's `count` data sets of `n` points from the workload seed.
  Result<std::vector<Dataset>> (*make)(uint64_t seed, size_t n, size_t count);
  size_t clusters;  // TopK peaks = the generator's cluster count
  bool lsh;         // LSH-DDP, else Basic-DDP
  mr::ExecMode exec_mode;
  uint64_t memory_budget_bytes;
};

std::unique_ptr<DistributedDpAlgorithm> MakeAlgorithm(const BatchConfig& c) {
  if (c.lsh) {
    ddp::LshDdp::Params params;
    params.accuracy = 0.99;
    params.lsh.num_layouts = 10;
    params.lsh.pi = 3;
    params.seed = kLshSeed;
    return std::make_unique<ddp::LshDdp>(params);
  }
  return std::make_unique<ddp::BasicDdp>();
}

DdpOptions MakeOptions(const BatchConfig& c, const std::string& spill_dir) {
  DdpOptions options;
  options.mr.num_workers = kWorkers;
  options.mr.exec_mode = c.exec_mode;
  options.mr.memory_budget_bytes = c.memory_budget_bytes;
  options.mr.spill_dir = spill_dir;
  options.selector = ddp::PeakSelector::TopK(c.clusters);
  return options;
}

// The deterministic outputs every repetition of a pipeline must reproduce.
struct Expected {
  uint64_t digest = 0;
  uint64_t distance_evaluations = 0;
  uint64_t shuffle_bytes = 0;
};

Expected ExpectedOf(const DdpRunResult& run) {
  return {ResultDigest(run), run.distance_evaluations,
          run.stats.TotalShuffleBytes()};
}

// Checks one pipeline against the expected outputs; a fork pipeline must also
// have run on fork workers with no crash or restart.
bool Matches(const BatchConfig& c, const DdpRunResult& run,
             const Expected& expected, std::string* why) {
  const Expected got = ExpectedOf(run);
  if (got.digest != expected.digest) {
    *why = "scores/assignment digest differs from the first pipeline";
  } else if (got.distance_evaluations != expected.distance_evaluations) {
    *why = "distance evaluations differ from the first pipeline";
  } else if (got.shuffle_bytes != expected.shuffle_bytes) {
    *why = "shuffle bytes differ from the first pipeline";
  } else if (run.stats.TotalWorkerCrashes() != 0 ||
             run.stats.TotalWorkerRestarts() != 0) {
    *why = "fork workers crashed or restarted";
  } else if (c.exec_mode == mr::ExecMode::kFork &&
             run.stats.TotalExecFallbacks() != 0) {
    *why = "a fork phase fell back to in-process execution";
  } else {
    return true;
  }
  return false;
}

// One data set of a batch workload and what its pipelines must reproduce.
struct Input {
  std::optional<Dataset> data;
  std::vector<int> labels;  // the generator's, kept from the program
  std::string path;
  std::optional<DdpRunResult> first;  // the first pipeline's output
  Expected expected;
  std::vector<double> op_s;  // timed, untraced pipeline wall times
};

// The first pipeline on a data set becomes its reference; every later one
// must match it. Counts the operation either way.
bool Check(const BatchConfig& c, DdpRunResult run, Input* in, Report* report,
           const std::string& what) {
  if (!in->first) {
    in->expected = ExpectedOf(run);
    in->first.emplace(std::move(run));
    report->Count(true, what);
    return true;
  }
  std::string why;
  const bool ok = Matches(c, run, in->expected, &why);
  report->Count(ok, what + ": " + why);
  return ok;
}

bool SameScores(const ddp::DpScores& a, const ddp::DpScores& b) {
  return a.rho == b.rho && a.upslope == b.upslope &&
         a.delta.size() == b.delta.size() &&
         std::memcmp(a.delta.data(), b.delta.data(),
                     a.delta.size() * sizeof(double)) == 0;
}

// KddLike draws its cluster layout (centers, per-cluster scales) from the
// generator seed, and that layout alone moves LSH-DDP's pipeline time, its
// distance evaluations and its ARI by 20-40% from one seed to the next. So
// the layout comes from one fixed draw of 4n points, and the workload seed
// picks which n of them each data set holds and in which order.
constexpr uint64_t kKddLayoutSeed = 1;

Result<std::vector<Dataset>> KddSamples(uint64_t seed, size_t n,
                                        size_t count) {
  DDP_ASSIGN_OR_RETURN(Dataset pool, ddp::gen::KddLike(kKddLayoutSeed, 4 * n));
  std::vector<Dataset> out;
  for (size_t k = 0; k < count; ++k) {
    std::vector<ddp::PointId> ids(pool.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::mt19937_64 rng(seed * 1000 + k);
    std::shuffle(ids.begin(), ids.end(), rng);
    ids.resize(n);
    out.push_back(pool.Subset(ids));
  }
  return out;
}

Result<std::vector<Dataset>> BigCross(uint64_t seed, size_t n, size_t count) {
  std::vector<Dataset> out;
  for (size_t k = 0; k < count; ++k) {
    DDP_ASSIGN_OR_RETURN(Dataset data,
                         ddp::gen::BigCrossLike(seed * 1000 + k, n));
    out.push_back(std::move(data));
  }
  return out;
}

bool RunBatch(const BatchConfig& c, const Args& args, Report* report) {
  namespace fs = std::filesystem;
  const std::string spill_dir = args.work_dir + "/spill";
  fs::create_directories(spill_dir);
  auto algorithm = MakeAlgorithm(c);
  const DdpOptions options = MakeOptions(c, spill_dir);
  std::printf("workload %s: %zu data sets of %zu points, %s, %s, %zu "
              "workers, budget %llu B\n",
              c.name, c.datasets, c.points, algorithm->name().c_str(),
              c.exec_mode == mr::ExecMode::kFork ? "fork/pipe" : "in-process",
              kWorkers,
              static_cast<unsigned long long>(c.memory_budget_bytes));

  // ---- Set-up: generate and write the data sets, then one warm-up pipeline
  // on the first (which also starts the first fork crew). Repeated; each
  // repetition must reproduce the first one's outputs.
  std::vector<Input> inputs(c.datasets);
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    report->host.Sample();
    Stopwatch watch;
    std::vector<Dataset> made;
    {
      Span span("dataset", "gen");
      auto generated = c.make(args.seed, c.points, c.datasets);
      if (!generated.ok()) {
        std::printf("FAILED: data generation: %s\n",
                    generated.status().ToString().c_str());
        return false;
      }
      made = std::move(generated).value();
    }
    for (size_t k = 0; k < c.datasets; ++k) {
      Input& in = inputs[k];
      in.labels = made[k].labels();
      in.data.emplace(PointsOnly(made[k]));
      Span span("dataset", "WriteBinaryFile");
      in.path = args.work_dir + "/points-" + std::to_string(k) + ".ddpb";
      ddp::Status st = ddp::WriteBinaryFile(in.path, *in.data);
      if (!st.ok()) {
        std::printf("FAILED: writing data: %s\n", st.ToString().c_str());
        return false;
      }
    }
    Result<DdpRunResult> warm = [&] {
      Span span("ddp", "RunDistributedDp");
      return ddp::RunDistributedDp(algorithm.get(), *inputs[0].data, options);
    }();
    setup_s.push_back(watch.ElapsedSeconds());
    if (!warm.ok()) {
      report->Count(false, "warm-up pipeline: " + warm.status().ToString());
      return false;
    }
    Check(c, std::move(warm).value(), &inputs[0], report, "set-up pipeline");
  }
  report->Set("setup_s", Median(setup_s), "s");
  std::printf("set-up: %.3f s median of %d\n", Median(setup_s), kSetupRepeats);
  if (!inputs[0].first) return false;

  // ---- Reference checks, outside every timed region.
  uint64_t basic_evals = 0;
  if (!c.lsh) {
    const Input& in = inputs[0];
    // Basic-DDP is exact: its scores must equal the sequential oracle's.
    ddp::CountingMetric metric;
    auto exact = ddp::ComputeExactDp(*in.data, in.first->dc, metric);
    report->Count(exact.ok() && SameScores(*exact, in.first->scores),
                  "Basic-DDP scores differ from ComputeExactDp");
    // Fork workers do not ship their distance counters back, so the count
    // comes from the same pipeline run in-process; Basic-DDP's evaluations
    // do not depend on the execution substrate. Its output must match too.
    DdpOptions inproc = options;
    inproc.mr.exec_mode = mr::ExecMode::kInProc;
    auto reference = ddp::RunDistributedDp(algorithm.get(), *in.data, inproc);
    report->Count(
        reference.ok() && ResultDigest(*reference) == in.expected.digest,
        "in-process Basic-DDP differs from the fork pipeline");
    if (reference.ok()) basic_evals = reference->distance_evaluations;
  }

  // ---- Timed window: pipelines back to back, cycling over the data sets.
  // The traced run alternates a cycle of phase-split pipelines with spans
  // and a cycle of plain, untraced ones.
  std::vector<double> all_s;
  std::vector<PhasedRun> traced;
  const double start = NowSeconds();
  double end = start;
  // At least one pipeline per data set and one untraced pipeline, whatever
  // --seconds says.
  for (size_t op = 0;
       end - start < args.seconds || op < c.datasets || all_s.empty(); ++op) {
    Input& in = inputs[op % c.datasets];
    const bool with_spans = args.trace && (op / c.datasets) % 2 == 0;
    report->host.Sample();
    Stopwatch watch;
    Result<DdpRunResult> run = ddp::Status::Internal("not run");
    if (with_spans) {
      Span span("bench", "pipeline");
      auto phased = RunPhased(algorithm.get(), *in.data, options);
      if (phased.ok()) {
        run = phased->result;
        traced.push_back(std::move(phased).value());
      } else {
        run = phased.status();
      }
    } else {
      run = ddp::RunDistributedDp(algorithm.get(), *in.data, options);
    }
    const double seconds = watch.ElapsedSeconds();
    end = NowSeconds();
    if (!run.ok()) {
      report->Count(false, "pipeline: " + run.status().ToString());
      continue;
    }
    if (args.inject_mismatch && op == 0 && !run->clusters.assignment.empty()) {
      run->clusters.assignment[0] += 1;
    }
    if (!Check(c, std::move(run).value(), &in, report,
               "pipeline " + std::to_string(op)) ||
        with_spans) {
      continue;
    }
    in.op_s.push_back(seconds);
    all_s.push_back(seconds);
    if (args.trace) report->untraced_op_s.push_back(seconds);
  }
  if (all_s.empty()) return false;

  // Per-pipeline figures, averaged over the data sets.
  double points = 0.0, median_s = 0.0, evals = 0.0, shuffle = 0.0, ari = 0.0;
  for (const Input& in : inputs) {
    if (!in.first) return false;
    if (!in.op_s.empty()) {
      points += static_cast<double>(c.points);
      median_s += Median(in.op_s);
    }
    evals += static_cast<double>(in.expected.distance_evaluations);
    shuffle += static_cast<double>(in.expected.shuffle_bytes);
    const double one = Ari(in.first->clusters.assignment, in.labels);
    std::printf("data set %zu: median %.4f s over %zu pipelines, ari %.4f\n",
                static_cast<size_t>(&in - inputs.data()), Median(in.op_s),
                in.op_s.size(), one);
    ari += one;
  }
  const double sets = static_cast<double>(c.datasets);
  if (!c.lsh) evals = static_cast<double>(basic_evals);
  const double window = end - start;
  report->Set("points_per_s", points / median_s, "points/s");
  report->Set("jobs_per_s",
              static_cast<double>(all_s.size() + traced.size()) / window,
              "jobs/s");
  report->Set("job_p50_ms", 1e3 * Median(all_s), "ms");
  report->Set("job_p95_ms",
              1e3 * Quantile(all_s, TailQuantileFor(all_s.size())), "ms");
  report->Set("distance_evals", evals / sets, "count");
  report->Set("shuffle_mb", shuffle / sets / 1e6, "MB");
  report->Set("ari", ari / sets, "ratio");
  std::printf("timed: %zu pipelines in %.2f s (job_p95_ms is the p%.0f of "
              "%zu samples)\n",
              all_s.size() + traced.size(), window,
              100.0 * TailQuantileFor(all_s.size()), all_s.size());

  if (args.trace) {
    AddPipelineLayerMetrics(traced, report);
    SetServerMetricsAbsent(report);
    ProbeInputs probe;
    probe.data = &*inputs[0].data;
    probe.data_path = inputs[0].path;
    probe.dc = inputs[0].first->dc;
    probe.lsh_seed = kLshSeed;
    probe.lsh_records = c.lsh;
    probe.exec_mode = c.exec_mode;
    probe.num_workers = kWorkers;
    probe.memory_budget_bytes = c.memory_budget_bytes;
    probe.work_dir = args.work_dir;
    report->Count(RunLayerProbes(probe, report), "a layer probe's output");
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  return true;
}

}  // namespace

Result<PhasedRun> RunPhased(DistributedDpAlgorithm* algorithm,
                            const Dataset& dataset, const DdpOptions& options) {
  PhasedRun out;
  DdpRunResult& result = out.result;
  ddp::DistanceCounter counter;
  ddp::CountingMetric metric(&counter);
  Stopwatch total;
  Stopwatch watch;
  {
    Span span("ddp", "ChooseCutoffMapReduce");
    DDP_ASSIGN_OR_RETURN(
        result.dc, ddp::ChooseCutoffMapReduce(dataset, metric, options.cutoff,
                                              options.mr, &result.stats));
  }
  out.choose_dc_s = watch.ElapsedSeconds();
  watch.Restart();
  {
    Span span("ddp", "ComputeScores");
    DDP_ASSIGN_OR_RETURN(result.scores,
                         algorithm->ComputeScores(dataset, result.dc, metric,
                                                  options.mr, &result.stats));
  }
  out.scores_s = watch.ElapsedSeconds();
  watch.Restart();
  std::vector<ddp::PointId> peaks;
  {
    ddp::DecisionGraph graph = [&] {
      Span span("core", "DecisionGraph::FromScores");
      return ddp::DecisionGraph::FromScores(result.scores);
    }();
    Span span("ddp", "PeakSelector::Select");
    peaks = options.selector.Select(graph);
  }
  out.peaks_s = watch.ElapsedSeconds();
  if (peaks.empty()) return ddp::Status::OutOfRange("no peaks selected");
  watch.Restart();
  {
    Span span("core", "AssignClusters");
    DDP_ASSIGN_OR_RETURN(
        result.clusters,
        ddp::AssignClusters(dataset, result.scores, peaks, metric));
  }
  out.assign_s = watch.ElapsedSeconds();
  result.distance_evaluations = counter.value();
  result.total_seconds = total.ElapsedSeconds();
  return out;
}

void AddPipelineLayerMetrics(const std::vector<PhasedRun>& runs,
                             Report* report) {
  std::vector<double> choose, scores, peaks, assign, map, shuffle, reduce,
      straggler, spill_write;
  uint64_t retries = 0, crashes = 0, restarts = 0;
  for (const PhasedRun& r : runs) {
    choose.push_back(r.choose_dc_s);
    scores.push_back(r.scores_s);
    peaks.push_back(r.peaks_s);
    assign.push_back(r.assign_s);
    double m = 0, s = 0, red = 0, worst = 0, sw = 0;
    for (const mr::JobCounters& job : r.result.stats.jobs) {
      m += job.map_seconds;
      s += job.shuffle_seconds;
      red += job.reduce_seconds;
      worst = std::max(worst, job.straggler_ratio);
      sw += job.spill_seconds;
    }
    map.push_back(m);
    shuffle.push_back(s);
    reduce.push_back(red);
    straggler.push_back(worst);
    spill_write.push_back(sw);
    retries += r.result.stats.TotalTaskRetries();
    crashes += r.result.stats.TotalWorkerCrashes();
    restarts += r.result.stats.TotalWorkerRestarts();
  }
  report->Set("ddp.choose_dc_s", Median(choose), "s");
  report->Set("ddp.scores_s", Median(scores), "s");
  report->Set("ddp.peaks_s", Median(peaks), "s");
  report->Set("ddp.assign_s", Median(assign), "s");
  report->Set("mr.map_s", Median(map), "s");
  report->Set("mr.shuffle_s", Median(shuffle), "s");
  report->Set("mr.reduce_s", Median(reduce), "s");
  report->Set("mr.straggler_ratio", Median(straggler), "ratio");
  report->Set("mr.task_retries", static_cast<double>(retries), "count");
  report->Set("spill.write_s", Median(spill_write), "s");
  const mr::RunStats empty;
  const mr::RunStats& stats = runs.empty() ? empty : runs[0].result.stats;
  report->Set("spill.bytes", static_cast<double>(stats.TotalSpilledBytes()),
              "bytes");
  report->Set("spill.files", static_cast<double>(stats.TotalSpillFiles()),
              "count");
  report->Set("spill.merge_passes",
              static_cast<double>(stats.TotalMergePasses()), "count");
  report->Set("channel.streamed_mb",
              static_cast<double>(stats.TotalShuffleStreamedBytes()) / 1e6,
              "MB");
  report->Set("supervisor.worker_crashes", static_cast<double>(crashes),
              "count");
  report->Set("supervisor.worker_restarts", static_cast<double>(restarts),
              "count");
}

bool RunLshKdd(const Args& args, Report* report) {
  const BatchConfig c{"lsh_kdd", 16, 5000, KddSamples, 20, true,
                      mr::ExecMode::kInProc, 0};
  return RunBatch(c, args, report);
}

bool RunBasicBigcrossFork(const Args& args, Report* report) {
  const BatchConfig c{"basic_bigcross_fork", 1, 4000, BigCross, 49,
                      false, mr::ExecMode::kFork, uint64_t{1} << 20};
  return RunBatch(c, args, report);
}

}  // namespace perfbench
