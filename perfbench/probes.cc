// Per-layer probes of the traced run. Each probe drives one module through
// its public entry points on the workload's own data or record types, inside
// a span named after the call, and turns the measurement into the layer's
// metrics. Nothing here changes what the timed window measured.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "common/serde.h"
#include "common/stopwatch.h"
#include "core/local_dp.h"
#include "ddp/basic_ddp_jobs.h"
#include "ddp/lsh_ddp_jobs.h"
#include "ddp/records.h"
#include "lsh/partitioner.h"
#include "lsh/tuning.h"
#include "mapreduce/channel.h"
#include "mapreduce/mapreduce.h"
#include "mapreduce/spill.h"
#include "server/cache.h"
#include "workloads.h"

namespace perfbench {

using ddp::Dataset;
using ddp::PointId;
using ddp::Stopwatch;
namespace mr = ddp::mr;

namespace {

// Each record-based probe works on at most this many payload bytes.
constexpr uint64_t kRecordBytesCap = uint64_t{24} << 20;
// Kernel probes stop adding LSH layouts once this much time is spent.
constexpr double kKernelProbeSeconds = 0.5;
// Basic-DDP's default block size.
constexpr size_t kBlockSize = 500;

template <typename K, typename V>
using RecordList = std::vector<std::pair<K, V>>;

template <typename K, typename V>
uint64_t PayloadBytes(const RecordList<K, V>& records) {
  uint64_t total = 0;
  for (const auto& [k, v] : records) {
    total += ddp::SerializedSize(k) + ddp::SerializedSize(v);
  }
  return total;
}

// LSH-DDP's rho-job shuffle: every point once per layout, keyed by
// (layout, bucket).
RecordList<ddp::lshjobs::BucketMapKey, ddp::ddprec::PointRecord> LshRecords(
    const Dataset& data, const ddp::lsh::MultiLshPartitioner& part) {
  RecordList<ddp::lshjobs::BucketMapKey, ddp::ddprec::PointRecord> out;
  uint64_t bytes = 0;
  for (size_t m = 0; m < part.num_layouts() && bytes < kRecordBytesCap; ++m) {
    for (PointId i = 0; i < data.size() && bytes < kRecordBytesCap; ++i) {
      ddp::ddprec::PointRecord rec;
      rec.id = i;
      rec.coords.assign(data.point(i).begin(), data.point(i).end());
      out.emplace_back(
          ddp::lshjobs::BucketMapKey{static_cast<uint32_t>(m),
                                     part.Key(m, data.point(i))},
          std::move(rec));
      bytes += ddp::SerializedSize(out.back().first) +
               ddp::SerializedSize(out.back().second);
    }
  }
  return out;
}

// Basic-DDP's rho-job shuffle: every point to each of the floor(n/2) + 1
// reducers its block meets.
RecordList<uint32_t, ddp::basicjobs::BlockedPoint> BasicRecords(
    const Dataset& data) {
  RecordList<uint32_t, ddp::basicjobs::BlockedPoint> out;
  const uint32_t blocks =
      static_cast<uint32_t>((data.size() + kBlockSize - 1) / kBlockSize);
  std::vector<uint32_t> targets;
  uint64_t bytes = 0;
  for (PointId i = 0; i < data.size() && bytes < kRecordBytesCap; ++i) {
    ddp::basicjobs::BlockedPoint bp;
    bp.block = ddp::basicjobs::BlockOf(i, blocks);
    bp.point.id = i;
    bp.point.coords.assign(data.point(i).begin(), data.point(i).end());
    ddp::basicjobs::TargetsOf(bp.block, blocks, &targets);
    for (uint32_t t : targets) {
      out.emplace_back(t, bp);
      bytes += ddp::SerializedSize(t) + ddp::SerializedSize(bp);
    }
  }
  return out;
}

template <typename K, typename V>
uint64_t SpillBudget(const ProbeInputs& in, const RecordList<K, V>& records) {
  if (in.memory_budget_bytes > 0) return in.memory_budget_bytes;
  return std::max<uint64_t>(PayloadBytes(records) / 16, 4096);
}

// Serde round trips: encode every record, decode them back, compare.
template <typename K, typename V>
bool SerdeProbe(const RecordList<K, V>& records, Report* report) {
  std::vector<double> enc_rate, dec_rate;
  bool ok = true;
  for (int rep = 0; rep < 3; ++rep) {
    std::string buf;
    Stopwatch watch;
    {
      Span span("common", "Serde::Write");
      ddp::BufferWriter out(&buf);
      for (const auto& [k, v] : records) {
        ddp::Serde<K>::Write(&out, k);
        ddp::Serde<V>::Write(&out, v);
      }
    }
    const double enc_s = watch.ElapsedSeconds();
    RecordList<K, V> back(records.size());
    watch.Restart();
    {
      Span span("common", "Serde::Read");
      ddp::BufferReader in(buf);
      for (auto& [k, v] : back) {
        ok = ok && ddp::Serde<K>::Read(&in, &k).ok() &&
             ddp::Serde<V>::Read(&in, &v).ok();
      }
    }
    const double dec_s = watch.ElapsedSeconds();
    ok = ok && back == records;
    const double mb = static_cast<double>(buf.size()) / 1e6;
    enc_rate.push_back(mb / enc_s);
    dec_rate.push_back(mb / dec_s);
  }
  report->Set("serde.encode_mb_per_s", Median(enc_rate), "MB/s");
  report->Set("serde.decode_mb_per_s", Median(dec_rate), "MB/s");
  return ok;
}

// SpillingBuffer -> MergingGroupReader over the records at `budget`.
template <typename K, typename V>
bool SpillProbe(const RecordList<K, V>& records, uint64_t budget,
                size_t partitions, const std::string& dir, Report* report) {
  using Traits = mr::KeyTraits<K>;
  const double mb = static_cast<double>(PayloadBytes(records)) / 1e6;
  mr::internal::SpillingBuffer<K, V, Traits> buffer(partitions, budget, dir,
                                                    "perfbench");
  Stopwatch watch;
  {
    Span span("mapreduce", "SpillingBuffer::Add+Finish");
    for (const auto& [k, v] : records) buffer.Add(k, v);
    if (!buffer.Finish().ok()) return false;
  }
  const double write_s = watch.ElapsedSeconds();
  uint64_t merged = 0;
  watch.Restart();
  {
    Span span("mapreduce", "MergingGroupReader");
    for (size_t p = 0; p < partitions; ++p) {
      std::vector<std::unique_ptr<mr::FrameStream>> sources;
      for (const mr::SpillRun& run : buffer.runs()) {
        if (run.partition != p) continue;
        sources.push_back(std::make_unique<mr::SpillSegmentReader>(
            run.file, run.offset, run.length));
      }
      sources.push_back(
          std::make_unique<mr::MemoryFrameReader>(buffer.tails()[p]));
      mr::internal::MergingGroupReader<K, V, Traits> reader(
          std::move(sources), false, nullptr);
      if (!reader.Init().ok()) return false;
      K key;
      std::vector<V> values;
      for (bool has = true; has;) {
        if (!reader.NextGroup(&key, &values, &has).ok()) return false;
        if (has) merged += values.size();
      }
    }
  }
  const double merge_s = watch.ElapsedSeconds();
  report->Set("spill.write_mb_per_s", mb / write_s, "MB/s");
  report->Set("spill.merge_mb_per_s", mb / merge_s, "MB/s");
  std::printf("spill probe: %.1f MB at a %llu B budget -> %llu files\n", mb,
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(buffer.spill_files()));
  return merged == records.size();
}

bool LshAndCoreProbes(const ProbeInputs& in, Report* report) {
  const Dataset& data = *in.data;
  auto width = ddp::lsh::SolveMinimalWidth(0.99, 10, 3, in.dc);
  if (!width.ok()) return false;
  auto part = ddp::lsh::MultiLshPartitioner::Create(data.dim(), 10, 3, *width,
                                                    in.lsh_seed);
  if (!part.ok()) return false;

  // lsh: hashing cost per (point, layout) and the Eq. (7)/(8) cost driver.
  uint64_t keys = 0, sink = 0;
  Stopwatch watch;
  {
    Span span("lsh", "MultiLshPartitioner::Key");
    while (keys == 0 || watch.ElapsedSeconds() < 0.2) {
      for (size_t m = 0; m < part->num_layouts(); ++m) {
        for (PointId i = 0; i < data.size(); ++i) {
          sink += static_cast<uint64_t>(part->Key(m, data.point(i))[0]);
          ++keys;
        }
      }
    }
  }
  report->Set("lsh.ns_per_key",
              1e9 * watch.ElapsedSeconds() / static_cast<double>(keys), "ns");
  uint64_t sum_sq = 0, max_bucket = 0;
  {
    Span span("lsh", "MultiLshPartitioner::ComputeStats");
    for (const auto& s : part->ComputeStats(data)) {
      sum_sq += s.sum_squared_sizes;
      max_bucket = std::max<uint64_t>(max_bucket, s.largest_bucket);
    }
  }
  report->Set("lsh.sum_sq_bucket", static_cast<double>(sum_sq), "count");
  report->Set("lsh.max_bucket", static_cast<double>(max_bucket), "points");
  std::vector<ddp::lsh::MultiLshPartitioner::Layout> layouts;
  {
    Span span("lsh", "MultiLshPartitioner::PartitionAll");
    layouts = part->PartitionAll(data);
  }

  // core: Rho and Delta over the workload's own LSH buckets, layout by
  // layout, as the lsh-rho-local and lsh-delta-local reducers run them.
  const ddp::LocalDpEngine engine;
  ddp::DistanceCounter rho_evals, delta_evals;
  const ddp::CountingMetric rho_metric(&rho_evals), delta_metric(&delta_evals);
  double rho_s = 0.0, delta_s = 0.0;
  const std::vector<PointId>* largest = nullptr;
  for (const auto& layout : layouts) {
    for (const auto& [key, ids] : layout) {
      if (largest == nullptr || ids.size() > largest->size()) largest = &ids;
    }
  }
  for (size_t m = 0; m < layouts.size() && rho_s + delta_s < kKernelProbeSeconds;
       ++m) {
    for (const auto& [key, ids] : layouts[m]) {
      const auto view = ddp::LocalPointView::SubsetOf(data, ids);
      watch.Restart();
      std::vector<uint32_t> rho;
      {
        Span span("core", "LocalDpEngine::Rho");
        rho = engine.Rho(view, in.dc, ddp::DensityKernel::kCutoff, rho_metric);
      }
      rho_s += watch.ElapsedSeconds();
      watch.Restart();
      {
        Span span("core", "LocalDpEngine::Delta");
        sink += engine.Delta(view, rho, delta_metric).upslope.size();
      }
      delta_s += watch.ElapsedSeconds();
    }
  }
  // The slowest group: the largest bucket of any layout.
  std::vector<double> group_s;
  for (int rep = 0; rep < 3 && largest != nullptr; ++rep) {
    const auto view = ddp::LocalPointView::SubsetOf(data, *largest);
    const ddp::CountingMetric metric;
    watch.Restart();
    Span span("core", "LocalDpEngine::Rho+Delta(largest bucket)");
    auto rho = engine.Rho(view, in.dc, ddp::DensityKernel::kCutoff, metric);
    sink += engine.Delta(view, rho, metric).upslope.size();
    group_s.push_back(watch.ElapsedSeconds());
  }

  // core: the cross-group kernels over Basic-DDP block pairs (block 0
  // against the next few blocks).
  const uint32_t blocks =
      static_cast<uint32_t>((data.size() + kBlockSize - 1) / kBlockSize);
  std::vector<std::vector<PointId>> members(blocks);
  for (PointId i = 0; i < data.size(); ++i) {
    members[ddp::basicjobs::BlockOf(i, blocks)].push_back(i);
  }
  ddp::DistanceCounter cross_evals;
  const ddp::CountingMetric cross_metric(&cross_evals);
  double cross_s = 0.0;
  for (uint32_t b = 1; b < blocks && b <= 6; ++b) {
    const auto left = ddp::LocalPointView::SubsetOf(data, members[0]);
    const auto right = ddp::LocalPointView::SubsetOf(data, members[b]);
    std::vector<uint32_t> rho_l(left.size()), rho_r(right.size());
    std::vector<ddp::LocalDeltaBest> best_l(left.size()), best_r(right.size());
    watch.Restart();
    {
      Span span("core", "LocalDpEngine::RhoCross");
      engine.RhoCross(left, right, in.dc, cross_metric, rho_l, rho_r);
    }
    {
      Span span("core", "LocalDpEngine::DeltaCrossSymmetric");
      engine.DeltaCrossSymmetric(left, rho_l, right, rho_r, cross_metric,
                                 best_l, best_r);
    }
    cross_s += watch.ElapsedSeconds();
  }
  const auto per_eval = [](double s, const ddp::DistanceCounter& c) {
    return c.value() ? 1e9 * s / static_cast<double>(c.value()) : 0.0;
  };
  report->Set("core.rho_ns_per_eval", per_eval(rho_s, rho_evals), "ns");
  report->Set("core.delta_ns_per_eval", per_eval(delta_s, delta_evals), "ns");
  report->Set("core.cross_ns_per_eval", per_eval(cross_s, cross_evals), "ns");
  report->Set("core.evals",
              static_cast<double>(rho_evals.value() + delta_evals.value() +
                                  cross_evals.value()),
              "count");
  report->Set("core.group_max_s", Median(group_s), "s");

  // serde and spill over the workload's shuffle records.
  bool ok = sink != 0;
  // The workload's budget; without one, a budget that makes the records
  // spill about 16 times.
  const size_t partitions = 4 * in.num_workers;
  if (in.lsh_records) {
    const auto records = LshRecords(data, *part);
    ok = SerdeProbe(records, report) && ok;
    ok = SpillProbe(records, SpillBudget(in, records), partitions, in.work_dir,
                    report) && ok;
  } else {
    const auto records = BasicRecords(data);
    ok = SerdeProbe(records, report) && ok;
    ok = SpillProbe(records, SpillBudget(in, records), partitions, in.work_dir,
                    report) && ok;
  }
  return ok;
}

// kRunData frames over a socketpair, sized like the workload's shuffle runs.
bool PipeProbe(const ProbeInputs& in, Report* report) {
  auto pair = mr::PipeChannel::CreatePair();
  if (!pair.ok()) return false;
  auto& [tx, rx] = *pair;
  const size_t chunk =
      in.memory_budget_bytes > 0
          ? std::clamp<size_t>(in.memory_budget_bytes / (4 * in.num_workers),
                               4096, 256 * 1024)
          : 256 * 1024;
  const size_t frames = (size_t{64} << 20) / chunk;
  bool sent_ok = true;
  Stopwatch watch;
  Span span("mapreduce", "PipeChannel::Send/Recv");
  std::thread sender([&] {
    const mr::Frame frame{mr::MessageType::kRunData, std::string(chunk, 'x')};
    for (size_t i = 0; i < frames && sent_ok; ++i) {
      sent_ok = tx->Send(frame).ok();
    }
  });
  uint64_t bytes = 0;
  bool ok = true;
  for (size_t i = 0; i < frames && ok; ++i) {
    mr::Frame frame;
    ok = rx->Recv(&frame, 10.0).ok() && frame.payload.size() == chunk;
    bytes += frame.payload.size();
  }
  const double seconds = watch.ElapsedSeconds();
  rx->Close();
  sender.join();
  tx->Close();
  report->Set("channel.pipe_mb_per_s", static_cast<double>(bytes) / 1e6 / seconds,
              "MB/s");
  return ok && sent_ok;
}

// Small-frame round trips over loopback TCP, the server protocol's shape.
bool TcpProbe(Report* report) {
  auto listener = mr::TcpListener::Listen("127.0.0.1", 0);
  if (!listener.ok()) return false;
  std::thread echo([&] {
    auto conn = (*listener)->Accept(10.0);
    if (!conn.ok()) return;
    for (;;) {
      mr::Frame frame;
      if (!(*conn)->Recv(&frame, 10.0).ok()) return;
      if (frame.type == mr::MessageType::kShutdown) return;
      if (!(*conn)->Send(frame).ok()) return;
    }
  });
  auto client = mr::TcpChannel::Connect("127.0.0.1", (*listener)->port(),
                                        ddp::ExponentialBackoff::Params{}, 1,
                                        10.0);
  bool ok = client.ok();
  std::vector<double> rtt;
  if (ok) {
    Span span("mapreduce", "TcpChannel::Send/Recv");
    const mr::Frame ping{mr::MessageType::kJobStatus, std::string(32, 'p')};
    for (int i = 0; i < 2000 && ok; ++i) {
      Stopwatch watch;
      mr::Frame pong;
      ok = (*client)->Send(ping).ok() && (*client)->Recv(&pong, 10.0).ok() &&
           pong.payload == ping.payload;
      rtt.push_back(watch.ElapsedSeconds());
    }
    ok = (*client)->Send({mr::MessageType::kShutdown, ""}).ok() && ok;
  }
  echo.join();
  if (client.ok()) (*client)->Close();
  (*listener)->Close();
  report->Set("channel.tcp_frame_rtt_us", 1e6 * Median(rtt), "us");
  return ok;
}

// mr::RunJob with trivial bodies: per-task cost of the runtime in the
// workload's exec mode, and the fork crew's start-up over in-process.
bool TaskOverheadProbe(const ProbeInputs& in, Report* report) {
  mr::JobSpec<uint32_t, uint32_t, uint32_t, uint32_t> spec;
  spec.name = "perfbench-trivial";
  spec.map = [](const uint32_t& x, mr::Emitter<uint32_t, uint32_t>* out) {
    out->Emit(x % 64, 1);
  };
  spec.reduce = [](const uint32_t& key, std::span<const uint32_t> values,
                   std::vector<uint32_t>* out) {
    out->push_back(key * 1000 + static_cast<uint32_t>(values.size()));
  };
  // 4096 records split evenly into 4 x workers map tasks.
  std::vector<uint32_t> input(4096);
  for (uint32_t i = 0; i < input.size(); ++i) input[i] = i;
  const size_t tasks = 8 * in.num_workers;  // map tasks + reduce partitions
  const auto time_mode = [&](mr::ExecMode mode,
                             std::vector<uint32_t>* out) -> double {
    mr::Options options;
    options.num_workers = in.num_workers;
    options.exec_mode = mode;
    options.spill_dir = in.work_dir;
    std::vector<double> seconds;
    for (int rep = 0; rep < 5; ++rep) {
      Stopwatch watch;
      Span span("mapreduce", mode == mr::ExecMode::kFork ? "RunJob(fork)"
                                                         : "RunJob(inproc)");
      auto result = mr::RunJob(spec, std::span<const uint32_t>(input), options);
      seconds.push_back(watch.ElapsedSeconds());
      if (!result.ok()) return -1.0;
      *out = std::move(result).value();
    }
    return Median(seconds);
  };
  std::vector<uint32_t> inproc_out, fork_out;
  const double inproc_s = time_mode(mr::ExecMode::kInProc, &inproc_out);
  const double fork_s = time_mode(mr::ExecMode::kFork, &fork_out);
  const double mode_s =
      in.exec_mode == mr::ExecMode::kFork ? fork_s : inproc_s;
  report->Set("mr.task_overhead_us",
              1e6 * mode_s / static_cast<double>(tasks), "us");
  report->Set("supervisor.crew_start_ms", 1e3 * (fork_s - inproc_s), "ms");
  return inproc_s >= 0.0 && fork_s >= 0.0 && inproc_out == fork_out &&
         inproc_out.size() == 64;
}

bool DatasetProbe(const ProbeInputs& in, Report* report) {
  std::vector<double> seconds;
  bool ok = true;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch watch;
    Span span("dataset", "LoadDatasetForServing");
    auto loaded = ddp::server::LoadDatasetForServing(in.data_path);
    seconds.push_back(watch.ElapsedSeconds());
    ok = ok && loaded.ok() && loaded->size() == in.data->size();
  }
  report->Set("dataset.load_ms", 1e3 * Median(seconds), "ms");
  return ok;
}

}  // namespace

bool RunLayerProbes(const ProbeInputs& in, Report* report) {
  Span span("bench", "probes");
  bool ok = true;
  const auto check = [&](bool probe_ok, const char* name) {
    if (!probe_ok) std::printf("FAILED: %s probe\n", name);
    ok = ok && probe_ok;
  };
  check(LshAndCoreProbes(in, report), "lsh/core/serde/spill");
  check(PipeProbe(in, report), "pipe channel");
  check(TcpProbe(report), "tcp channel");
  check(TaskOverheadProbe(in, report), "task overhead");
  check(DatasetProbe(in, report), "dataset load");
  return ok;
}

void SetServerMetricsAbsent(Report* report) {
  report->Set("server.submit_hit_us", 0.0, "us");
  report->Set("server.queue_wait_ms", 0.0, "ms");
  report->Set("server.exec_ms", 0.0, "ms");
  report->Set("server.result_hit_ratio", 0.0, "ratio");
  report->Set("server.dataset_hit_ratio", 0.0, "ratio");
}

}  // namespace perfbench
