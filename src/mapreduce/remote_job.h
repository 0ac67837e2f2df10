#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "mapreduce/mapreduce.h"
#include "mapreduce/remote_worker.h"

/// \file remote_job.h
/// Bridges a typed JobSpec to the JobRegistry a ddp_worker serves from:
/// `MakeRegisteredRunner` wraps the spec's map/reduce in the same
/// worker-attempt chaos order a forked worker runs
/// (internal::RunWorkerAttempt), decoding each kTaskAssign input into the
/// shape internal::ExecuteMapTask / ExecuteSortedReduceTask expect.
/// `RegisterRemoteJob` is the one-liner drivers use: register a factory
/// that decodes the JobSetupMsg's context blob back into a JobSpec and
/// hands it here. Bit-identity with local execution follows from the task
/// bodies being the exact same hoisted functions RunJob schedules.

namespace ddp {
namespace mr {

/// Builds the TaskRunner serving one installed job: phase 0 decodes a
/// by-value input slice and runs the map body (its sorted runs and tails
/// stream back to the supervisor as spill runs); phase 1
/// decodes the partition's (is_run, frame bytes) sources and merge-reduces
/// them. The spec is shared, not copied, into the per-task closures.
template <typename In, typename MidK, typename MidV, typename Out>
JobRegistry::TaskRunner MakeRegisteredRunner(
    std::shared_ptr<const JobSpec<In, MidK, MidV, Out>> spec,
    const JobSetupMsg& setup) {
  internal::WorkerChaosParams chaos;
  chaos.faults.seed = setup.fault_seed;
  chaos.faults.map_failure_rate = setup.map_failure_rate;
  chaos.faults.reduce_failure_rate = setup.reduce_failure_rate;
  chaos.faults.straggler_rate = setup.straggler_rate;
  chaos.faults.straggler_slowdown = setup.straggler_slowdown;
  chaos.faults.straggler_min_seconds = setup.straggler_min_seconds;
  chaos.faults.corruption_rate = setup.corruption_rate;
  chaos.faults.worker_crash_rate = setup.worker_crash_rate;
  chaos.faults.poison_task_rate = setup.poison_task_rate;
  chaos.faults.channel_drop_rate = setup.channel_drop_rate;
  chaos.failure_rate =
      setup.phase == 0 ? setup.map_failure_rate : setup.reduce_failure_rate;
  chaos.job_name = setup.job_name;
  chaos.phase = static_cast<int>(setup.phase);

  const size_t num_partitions = static_cast<size_t>(setup.num_partitions);
  const uint64_t budget = setup.memory_budget_bytes;
  const bool skip_bad = setup.skip_bad_records;

  if (setup.phase == 0) {
    // Map: the spill dir is interpreted on THIS host (the worker spills
    // locally, then streams run bytes back over the channel).
    const std::string spill_dir = internal::ResolveSpillDir(setup.spill_dir);
    return [spec, chaos, num_partitions, budget, spill_dir](
               uint64_t task, uint64_t attempt, bool quarantined,
               const std::string& input, TaskResult* result) -> Status {
      std::vector<In> slice;
      {
        BufferReader r(input);
        uint64_t count = 0;
        DDP_RETURN_NOT_OK(r.GetVarint64(&count));
        slice.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          In v{};
          DDP_RETURN_NOT_OK(Serde<In>::Read(&r, &v));
          slice.push_back(std::move(v));
        }
        if (!r.exhausted()) {
          return Status::IoError("map task input has trailing bytes");
        }
      }
      auto body = [&](size_t t, CancelToken* cancel,
                      internal::MapTaskOutput* out) -> Status {
        return internal::ExecuteMapTask(*spec, std::span<const In>(slice), t,
                                        num_partitions, chaos.faults, budget,
                                        spill_dir, cancel, out);
      };
      return internal::RunWorkerAttempt<internal::MapTaskOutput>(
          chaos, static_cast<size_t>(task), static_cast<size_t>(attempt),
          quarantined, body, internal::ExtractMapRuns,
          internal::SerializeMapCounters, result);
    };
  }

  // Reduce: only reachable for Serde-crossable outputs (RunJob gates remote
  // reduce the same way it gates fork reduce), but the runner must compile
  // for every registered job, so the body is constexpr-guarded.
  return [spec, chaos, skip_bad](uint64_t task, uint64_t attempt,
                                 bool quarantined, const std::string& input,
                                 TaskResult* result) -> Status {
    if constexpr (has_serde_v<Out>) {
      // Decode this partition's sources fully before wiring readers over
      // them: MemoryFrameReader borrows the blob strings, so the vector
      // must not reallocate afterwards.
      std::vector<std::string> blobs;
      bool any_run = false;
      {
        BufferReader r(input);
        uint64_t count = 0;
        DDP_RETURN_NOT_OK(r.GetVarint64(&count));
        blobs.reserve(static_cast<size_t>(count));
        for (uint64_t i = 0; i < count; ++i) {
          uint8_t is_run = 0;
          DDP_RETURN_NOT_OK(r.GetByte(&is_run));
          if (is_run != 0) any_run = true;
          std::string bytes;
          DDP_RETURN_NOT_OK(r.GetString(&bytes));
          blobs.push_back(std::move(bytes));
        }
        if (!r.exhausted()) {
          return Status::IoError("reduce task input has trailing bytes");
        }
      }
      auto body = [&](size_t p, CancelToken* cancel,
                      internal::ReduceTaskOutput<Out>* out) -> Status {
        std::vector<std::unique_ptr<FrameStream>> sources;
        sources.reserve(blobs.size());
        for (const std::string& b : blobs) {
          sources.push_back(std::make_unique<MemoryFrameReader>(b));
        }
        return internal::ExecuteSortedReduceTask(
            *spec, p, std::move(sources), any_run, skip_bad, cancel, out);
      };
      auto extract_none = [](internal::ReduceTaskOutput<Out>&) {
        return std::vector<OutboundRun>();
      };
      auto serialize = [](BufferWriter* w,
                          internal::ReduceTaskOutput<Out>& ro) {
        internal::SerializeReduceOutput<Out>(w, ro);
      };
      return internal::RunWorkerAttempt<internal::ReduceTaskOutput<Out>>(
          chaos, static_cast<size_t>(task), static_cast<size_t>(attempt),
          quarantined, body, extract_none, serialize, result);
    } else {
      (void)spec;
      (void)skip_bad;
      (void)task;
      (void)attempt;
      (void)quarantined;
      (void)input;
      (void)result;
      return Status::Internal(
          "reduce phase assigned for a job whose output type has no serde");
    }
  };
}

/// Registers `make_spec` — a `Result<JobSpec<...>>(const JobSetupMsg&)`
/// that decodes the setup's context blob — under `id` in the global
/// JobRegistry. The id must match the JobSpec::remote_task_id the
/// supervisor side sets (stable across rounds: round-suffixed job *names*
/// ride JobSetupMsg::job_name, not the registry id).
template <typename MakeSpec>
void RegisterRemoteJob(const std::string& id, MakeSpec make_spec) {
  JobRegistry::Global().Register(
      id,
      [make_spec](const JobSetupMsg& setup)
          -> Result<JobRegistry::TaskRunner> {
        DDP_ASSIGN_OR_RETURN(auto built, make_spec(setup));
        auto spec = std::make_shared<std::add_const_t<decltype(built)>>(
            std::move(built));
        return MakeRegisteredRunner(std::move(spec), setup);
      });
}

}  // namespace mr
}  // namespace ddp
