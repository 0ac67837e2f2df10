// The serving workload: one DdpServer in this process, three DdpClient
// connections in a closed loop, LSH-DDP jobs on a few S2Like files.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "common/stopwatch.h"
#include "dataset/csv.h"
#include "dataset/generators.h"
#include "ddp/lsh_ddp.h"
#include "obs/metrics.h"
#include "server/cache.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

using ddp::Dataset;
using ddp::Result;
using ddp::Stopwatch;
namespace server = ddp::server;
namespace fs = std::filesystem;

namespace {

constexpr int kSetupRepeats = 5;
constexpr size_t kDatasets = 3;
constexpr size_t kPointsPerDataset = 3000;
constexpr size_t kClusters = 15;  // S2Like's component count
constexpr size_t kClients = 3;
// One thread of pipeline work at a time, as in the batch workloads: on a
// shared host, multi-threaded wall time measures the host (README.md).
constexpr size_t kSchedulerThreads = 1;
constexpr uint64_t kJobWorkers = 1;
// Op j of a client repeats the client's own op j - 3 when j % 4 == 3, so one
// submission in four is a result-cache hit.
constexpr size_t kRepeatEvery = 4;
// The first cold jobs of each client (ops 0..2) are re-run in-process and
// compared.
constexpr size_t kCheckedPerClient = 3;
static_assert(kCheckedPerClient < kRepeatEvery, "checked ops must be cold");
// Clients poll for completion this often: the library's 100 ms default
// would quantize every latency to the poll period, and much faster polling
// takes CPU from the job being waited for.
constexpr double kPollSeconds = 0.01;

server::JobParams ParamsFor(uint64_t job_seed) {
  server::JobParams p;
  p.algo = "lsh";
  p.k = kClusters;
  p.accuracy = 0.99;
  p.num_layouts = 10;
  p.pi = 3;
  p.num_workers = kJobWorkers;
  p.seed = job_seed;
  return p;
}

struct OpKey {
  size_t dataset = 0;
  uint64_t job_seed = 0;
};

bool IsRepeat(size_t j) { return j % kRepeatEvery == kRepeatEvery - 1; }

OpKey KeyFor(size_t client, size_t j) {
  if (IsRepeat(j)) j -= 3;
  return {(client + j) % kDatasets, 1 + 1000000 * client + j};
}

// One completed (or failed) client operation.
struct OpRecord {
  size_t j = 0;
  bool ok = false;
  std::string why;
  bool repeat = false;
  double latency_s = 0.0;
  double submit_s = 0.0;
  std::string payload;  // encoded JobResultPayload
};

// Submits one job and waits for kDone; returns the client-side latency.
OpRecord RunOp(server::DdpClient* client, const std::vector<std::string>& paths,
               size_t c, size_t j, bool with_spans) {
  OpRecord rec;
  rec.j = j;
  rec.repeat = IsRepeat(j);
  const OpKey key = KeyFor(c, j);
  server::JobSubmitMsg msg;
  msg.params = ParamsFor(key.job_seed);
  msg.dataset_path = paths[key.dataset];
  std::optional<Span> op;
  op.emplace("bench", "job", with_spans);
  Stopwatch watch;
  Result<server::JobStatusMsg> status = [&] {
    Span span("server", "DdpClient::Submit", with_spans);
    return client->Submit(msg);
  }();
  rec.submit_s = watch.ElapsedSeconds();
  const auto state = [](const server::JobStatusMsg& s) {
    return static_cast<server::JobState>(s.state);
  };
  if (status.ok() && (state(*status) == server::JobState::kQueued ||
                      state(*status) == server::JobState::kRunning)) {
    Span span("server", "DdpClient::WaitForResult", with_spans);
    status = client->WaitForResult(status->job_id, 120.0, kPollSeconds);
  }
  rec.latency_s = watch.ElapsedSeconds();
  op.reset();
  if (!status.ok()) {
    rec.why = status.status().ToString();
    return rec;
  }
  if (state(*status) != server::JobState::kDone) {
    rec.why = "job ended " + std::string(server::JobStateName(state(*status))) +
              ": " + status->detail;
    return rec;
  }
  if ((status->from_result_cache != 0) != rec.repeat) {
    rec.why = rec.repeat ? "repeat missed the result cache"
                         : "new job answered from the result cache";
    return rec;
  }
  auto result = client->FetchResult(status->job_id);
  if (!result.ok() || static_cast<server::JobState>(result->state) !=
                          server::JobState::kDone) {
    rec.why = "fetching the result failed";
    return rec;
  }
  rec.payload = std::move(result->payload);
  rec.ok = true;
  return rec;
}

// A server plus its connected clients.
struct Deployment {
  std::unique_ptr<server::DdpServer> srv;
  std::vector<std::unique_ptr<server::DdpClient>> clients;

  void Stop() {
    clients.clear();
    if (srv) {
      srv->RequestShutdown();
      srv->WaitShutdown();
      srv.reset();
    }
  }
};

// The in-process pipeline the server runs for `params` (server.cc's
// RunJobPipeline without its checkpoint and spill directories).
ddp::DdpOptions InProcessOptions(const server::JobParams& params) {
  ddp::DdpOptions options;
  options.dc = params.dc;
  options.cutoff.percentile = params.percentile;
  options.selector = ddp::PeakSelector::TopK(static_cast<size_t>(params.k));
  options.mr.num_workers = static_cast<size_t>(params.num_workers);
  options.mr.faults.seed = params.seed;
  return options;
}

ddp::LshDdp InProcessAlgorithm(const server::JobParams& params) {
  ddp::LshDdp::Params lsh;
  lsh.accuracy = params.accuracy;
  lsh.lsh.num_layouts = static_cast<size_t>(params.num_layouts);
  lsh.lsh.pi = static_cast<size_t>(params.pi);
  lsh.seed = params.seed;
  return ddp::LshDdp(lsh);
}

bool SamePayload(const server::JobResultPayload& got,
                 const ddp::DdpRunResult& want) {
  if (std::memcmp(&got.dc, &want.dc, sizeof(double)) != 0) return false;
  if (got.num_clusters != want.clusters.num_clusters()) return false;
  if (got.distance_evaluations != want.distance_evaluations) return false;
  if (got.mr_jobs != want.stats.jobs.size()) return false;
  if (got.assignment.size() != want.clusters.assignment.size()) return false;
  for (size_t i = 0; i < got.assignment.size(); ++i) {
    if (got.assignment[i] != want.clusters.assignment[i]) return false;
  }
  return true;
}

double HistogramMeanMs(const char* name) {
  const auto snap =
      ddp::obs::MetricsRegistry::Global().GetHistogram(name)->Snap();
  return snap.count ? static_cast<double>(snap.sum) / 1e3 /
                          static_cast<double>(snap.count)
                    : 0.0;
}

double CounterRatio(const char* hits_name, const char* misses_name,
                    const char* label) {
  auto& registry = ddp::obs::MetricsRegistry::Global();
  const uint64_t hits = registry.GetCounter(hits_name)->value();
  const uint64_t misses = registry.GetCounter(misses_name)->value();
  std::printf("%s: %llu hits of %llu lookups\n", label,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(hits + misses));
  return hits + misses ? static_cast<double>(hits) /
                             static_cast<double>(hits + misses)
                       : 0.0;
}

}  // namespace

bool RunServeS2(const Args& args, Report* report) {
  const std::string data_dir = args.work_dir + "/data";
  fs::create_directories(data_dir);
  std::vector<std::string> paths;
  for (size_t d = 0; d < kDatasets; ++d) {
    paths.push_back(data_dir + "/s2-" + std::to_string(d) + ".csv");
  }
  std::printf("workload serve_s2: %zu clients, %zu scheduler threads x %llu "
              "workers, %zu S2Like files of %zu points, 1 in %zu repeats\n",
              kClients, kSchedulerThreads,
              static_cast<unsigned long long>(kJobWorkers), kDatasets,
              kPointsPerDataset, kRepeatEvery);

  // ---- Set-up: generate and write the files, start a server, connect the
  // clients and run one warm-up job. Repeated on fresh servers.
  std::vector<std::vector<int>> labels;
  std::vector<double> setup_s;
  Deployment dep;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    dep.Stop();
    labels.clear();
    report->host.Sample();
    Stopwatch watch;
    for (size_t d = 0; d < kDatasets; ++d) {
      Span span("dataset", "gen+WriteCsvFile");
      auto made = ddp::gen::S2Like(args.seed * 1000 + d, kPointsPerDataset);
      if (!made.ok() || !ddp::WriteCsvFile(paths[d], PointsOnly(*made)).ok()) {
        std::printf("FAILED: writing data set %zu\n", d);
        return false;
      }
      labels.push_back(made->labels());
    }
    server::ServerConfig config;
    config.scheduler_threads = kSchedulerThreads;
    config.result_cache_entries = 1 << 16;  // every repeat must hit
    config.work_dir = args.work_dir + "/server-" + std::to_string(rep);
    {
      Span span("server", "DdpServer::Start");
      auto srv = server::DdpServer::Start(config);
      if (!srv.ok()) {
        std::printf("FAILED: server start: %s\n",
                    srv.status().ToString().c_str());
        return false;
      }
      dep.srv = std::move(srv).value();
    }
    for (size_t c = 0; c < kClients; ++c) {
      Span span("server", "DdpClient::Connect");
      auto client = server::DdpClient::Connect("127.0.0.1", dep.srv->port());
      if (!client.ok()) {
        std::printf("FAILED: client connect\n");
        return false;
      }
      dep.clients.push_back(std::move(client).value());
    }
    // The warm-up uses a seed no client op uses.
    server::JobSubmitMsg warm;
    warm.params = ParamsFor(999999999);
    warm.dataset_path = paths[0];
    auto status = dep.clients[0]->Submit(warm);
    if (status.ok()) {
      status = dep.clients[0]->WaitForResult(status->job_id, 120.0,
                                             kPollSeconds);
    }
    setup_s.push_back(watch.ElapsedSeconds());
    report->Count(status.ok() && status->state == static_cast<uint8_t>(
                                                     server::JobState::kDone),
                  "warm-up job");
  }
  report->Set("setup_s", Median(setup_s), "s");
  std::printf("set-up: %.3f s median of %d\n", Median(setup_s), kSetupRepeats);

  // ---- Timed window: every client submits and waits, back to back. In the
  // traced run even ops carry spans and odd ones do not.
  ddp::obs::MetricsRegistry::Global().Reset();
  std::vector<std::vector<OpRecord>> per_client(kClients);
  const double start = NowSeconds();
  std::vector<double> client_end(kClients, start);
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<OpRecord>& ops = per_client[c];
        for (size_t j = 0; NowSeconds() - start < args.seconds; ++j) {
          ops.push_back(RunOp(dep.clients[c].get(), paths, c, j,
                              args.trace && j % 2 == 0));
          // A repeat must return its cold run's bytes. Payloads are then
          // dropped unless the in-process check below needs them, so memory
          // does not grow with the number of jobs.
          OpRecord& rec = ops.back();
          if (rec.repeat) {
            OpRecord& cold = ops[j - 3];
            if (rec.ok && rec.payload != cold.payload) {
              rec.ok = false;
              rec.why = "cache hit differs from its cold run";
            }
            if (j - 3 >= kCheckedPerClient) cold.payload = std::string();
            rec.payload = std::string();
          } else if (j % kRepeatEvery != 0 && j >= kCheckedPerClient) {
            rec.payload = std::string();
          }
        }
        client_end[c] = NowSeconds();
      });
    }
    // Host-speed samples through the window, from a thread of their own.
    std::atomic<bool> done{false};
    std::thread sampler([&] {
      while (!done.load()) {
        report->host.Sample();
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
      }
    });
    for (auto& t : threads) t.join();
    done.store(true);
    sampler.join();
  }
  const double window =
      *std::max_element(client_end.begin(), client_end.end()) - start;
  const double queue_wait_ms = HistogramMeanMs("server.queue_wait_seconds");
  const double exec_ms = HistogramMeanMs("server.job_seconds");
  const double result_hit_ratio = CounterRatio(
      "server.result_cache_hits", "server.result_cache_misses", "result cache");
  const double dataset_hit_ratio =
      CounterRatio("server.dataset_cache_hits", "server.dataset_cache_misses",
                   "dataset cache");
  dep.Stop();

  // ---- Every op is counted.
  std::vector<double> latency, hit_submit;
  size_t completed = 0;
  for (size_t c = 0; c < kClients; ++c) {
    std::vector<OpRecord>& ops = per_client[c];
    for (OpRecord& rec : ops) {
      if (args.inject_mismatch && c == 0 && rec.j == 0 && rec.ok) {
        rec.payload[rec.payload.size() / 2] ^= 1;
      }
      report->Count(rec.ok, "client " + std::to_string(c) + " op " +
                                std::to_string(rec.j) + ": " + rec.why);
      if (!rec.ok) continue;
      ++completed;
      latency.push_back(rec.latency_s);
      if (rec.repeat) hit_submit.push_back(rec.submit_s);
      // Odd non-repeat ops ran without spans: the trace-overhead baseline.
      if (args.trace && rec.j % 2 == 1 && !rec.repeat) {
        report->untraced_op_s.push_back(rec.latency_s);
      }
    }
  }
  if (latency.empty()) return false;

  // ---- The first cold jobs of each client against an in-process
  // RunDistributedDp with the same params, on the files as the server reads
  // them.
  std::vector<Dataset> datasets;
  for (const std::string& path : paths) {
    auto loaded = ddp::server::LoadDatasetForServing(path);
    if (!loaded.ok()) return false;
    datasets.push_back(std::move(loaded).value());
  }
  uint64_t distance_evals = 0, shuffle_bytes = 0;
  double ari_sum = 0.0;
  size_t checked = 0;
  std::vector<PhasedRun> phased;
  ProbeInputs probe;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t j = 0, n = 0; n < kCheckedPerClient; ++j) {
      if (IsRepeat(j)) continue;
      ++n;
      const OpKey key = KeyFor(c, j);
      const server::JobParams params = ParamsFor(key.job_seed);
      ddp::LshDdp algorithm = InProcessAlgorithm(params);
      const ddp::DdpOptions options = InProcessOptions(params);
      Result<ddp::DdpRunResult> want = ddp::Status::Internal("not run");
      if (args.trace) {
        Span span("bench", "reference_pipeline");
        auto run = RunPhased(&algorithm, datasets[key.dataset], options);
        if (run.ok()) {
          want = run->result;
          phased.push_back(std::move(run).value());
        } else {
          want = run.status();
        }
      } else {
        want = ddp::RunDistributedDp(&algorithm, datasets[key.dataset],
                                     options);
      }
      server::JobResultPayload got;
      const bool ok =
          j < per_client[c].size() && per_client[c][j].ok && want.ok() &&
          server::JobResultPayload::Decode(per_client[c][j].payload, &got)
              .ok() &&
          SamePayload(got, *want);
      report->Count(ok, "client " + std::to_string(c) + " op " +
                            std::to_string(j) +
                            " differs from in-process RunDistributedDp");
      if (!ok) continue;
      ++checked;
      distance_evals += got.distance_evaluations;
      shuffle_bytes += want->stats.TotalShuffleBytes();
      ari_sum += Ari(want->clusters.assignment, labels[key.dataset]);
      if (checked == 1) {
        probe.dc = want->dc;
        probe.lsh_seed = key.job_seed;
        probe.data = &datasets[key.dataset];
        probe.data_path = paths[key.dataset];
      }
    }
  }
  if (checked == 0) return false;

  report->Set("points_per_s",
              static_cast<double>(completed * kPointsPerDataset) / window,
              "points/s");
  report->Set("jobs_per_s", static_cast<double>(completed) / window, "jobs/s");
  report->Set("job_p50_ms", 1e3 * Median(latency), "ms");
  report->Set("job_p95_ms",
              1e3 * Quantile(latency, TailQuantileFor(latency.size())), "ms");
  report->Set("distance_evals", static_cast<double>(distance_evals), "count");
  report->Set("shuffle_mb", static_cast<double>(shuffle_bytes) / 1e6, "MB");
  report->Set("ari", ari_sum / static_cast<double>(checked), "ratio");
  std::printf("timed: %zu jobs in %.2f s (job_p95_ms is the p%.0f of %zu "
              "samples); distance_evals, shuffle_mb and ari cover the %zu "
              "checked jobs\n",
              completed, window, 100.0 * TailQuantileFor(latency.size()),
              latency.size(), checked);

  if (args.trace) {
    AddPipelineLayerMetrics(phased, report);
    report->Set("server.submit_hit_us", 1e6 * Median(hit_submit), "us");
    report->Set("server.queue_wait_ms", queue_wait_ms, "ms");
    report->Set("server.exec_ms", exec_ms, "ms");
    report->Set("server.result_hit_ratio", result_hit_ratio, "ratio");
    report->Set("server.dataset_hit_ratio", dataset_hit_ratio, "ratio");
    probe.lsh_records = true;
    probe.exec_mode = ddp::mr::ExecMode::kInProc;
    probe.num_workers = kJobWorkers;
    probe.memory_budget_bytes = 0;
    probe.work_dir = args.work_dir;
    report->Count(RunLayerProbes(probe, report), "a layer probe's output");
  }
  report->Set("peak_rss_mb", PeakRssMb(), "MB");
  return true;
}

}  // namespace perfbench
