#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "dataset/dataset.h"
#include "ddp/driver.h"
#include "mapreduce/counters.h"
#include "mapreduce/mapreduce.h"

/// \file workloads.h
/// The benchmark's three workloads (README.md says why each exists) and the
/// per-layer probes the traced run adds to them.

namespace perfbench {

/// LSH-DDP, in-process, no memory budget, KddLike 74-d data.
bool RunLshKdd(const Args& args, Report* report);
/// Basic-DDP, fork workers over pipes, a spilling memory budget,
/// BigCrossLike 57-d data, checked bit-for-bit against ComputeExactDp.
bool RunBasicBigcrossFork(const Args& args, Report* report);
/// One DdpServer, three closed-loop DdpClient connections submitting
/// LSH-DDP jobs on S2Like 2-d files, one submission in four a repeat.
bool RunServeS2(const Args& args, Report* report);

// ---------------------------------------------------------------------------
// Shared by the workloads.

/// A pipeline run as RunDistributedDp runs it, but phase by phase with a span
/// around each phase call: ChooseCutoffMapReduce, ComputeScores,
/// DecisionGraph::FromScores + PeakSelector::Select, AssignClusters.
struct PhasedRun {
  ddp::DdpRunResult result;
  double choose_dc_s = 0.0;
  double scores_s = 0.0;
  double peaks_s = 0.0;
  double assign_s = 0.0;
};
ddp::Result<PhasedRun> RunPhased(ddp::DistributedDpAlgorithm* algorithm,
                                 const ddp::Dataset& dataset,
                                 const ddp::DdpOptions& options);

/// Medians of the phase times over `runs` as ddp.* metrics, and the
/// MapReduce, spill, channel and supervisor counters of their RunStats.
void AddPipelineLayerMetrics(const std::vector<PhasedRun>& runs,
                             Report* report);

/// What the layer probes need to know about a workload.
struct ProbeInputs {
  const ddp::Dataset* data = nullptr;
  std::string data_path;  // the workload's data file
  double dc = 0.0;
  uint64_t lsh_seed = 7;
  /// True when the workload shuffles LSH-DDP records, false for Basic-DDP's.
  bool lsh_records = true;
  ddp::mr::ExecMode exec_mode = ddp::mr::ExecMode::kInProc;
  size_t num_workers = 4;
  uint64_t memory_budget_bytes = 0;
  std::string work_dir;
};

/// Times each layer on the workload's own data and records: core.*, lsh.*,
/// serde.*, spill.write_mb_per_s, spill.merge_mb_per_s,
/// channel.pipe_mb_per_s, channel.tcp_frame_rtt_us, mr.task_overhead_us,
/// supervisor.crew_start_ms and dataset.load_ms. Returns false if a probe's
/// output was wrong.
bool RunLayerProbes(const ProbeInputs& in, Report* report);

/// Sets every server.* metric to 0: the batch workloads run no server.
void SetServerMetricsAbsent(Report* report);

}  // namespace perfbench
