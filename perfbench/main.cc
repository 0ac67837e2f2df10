// ddp_perfbench: runs one workload of the repository benchmark and prints its
// metrics. Normally started by run.py, which builds it, validates the output
// against BENCHMARK.json and folds the traced run's spans.
//
//   ddp_perfbench --workload lsh_kdd --seed 1 --seconds 10 --trace 0
//                 --work-dir .bench_build/work/x [--inject-mismatch]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "common/logging.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ddp_perfbench --workload lsh_kdd|basic_bigcross_fork|"
               "serve_s2 --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--inject-mismatch]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--inject-mismatch") {
      args.inject_mismatch = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(args.work_dir);
  ddp::SetLogLevel(ddp::LogLevel::kWarning);
  if (args.trace) perfbench::Tracer::Get().Enable();

  perfbench::Report report;
  bool ran = false;
  if (args.workload == "lsh_kdd") {
    ran = perfbench::RunLshKdd(args, &report);
  } else if (args.workload == "basic_bigcross_fork") {
    ran = perfbench::RunBasicBigcrossFork(args, &report);
  } else if (args.workload == "serve_s2") {
    ran = perfbench::RunServeS2(args, &report);
  } else {
    return Usage();
  }
  if (ran) perfbench::ScaleWallMetrics(&report);
  if (args.trace &&
      !perfbench::Tracer::Get().WriteSpans(args.work_dir + "/spans.json",
                                           report.untraced_op_s)) {
    std::printf("FAILED: writing spans\n");
    ran = false;
  }
  const bool correct = ran && report.failed == 0 && report.attempted > 0;
  perfbench::PrintReport(report, correct);
  return correct ? 0 : 1;
}
