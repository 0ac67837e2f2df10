#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/local_dp.h"
#include "core/pair_kernel.h"
#include "dataset/generators.h"

/// \file bench_local_engine.cc
/// Sweeps the LocalDpEngine backends over group size x dimensionality,
/// reporting wall time and counted distance evaluations for the local
/// rho + delta kernels. This is the per-reducer cost model behind every
/// algorithm layer: the crossover points here justify the kAuto heuristic
/// (k-d tree for large low-dimensional groups, centroid-projection triangle
/// filtering for large high-dimensional groups, brute force for small ones).
/// All backends produce bit-identical scores; only their costs differ.
///
/// A second table is the distance-kernel ledger: ns per counted evaluation
/// of brute and triangle Rho/Delta on one fixed-size group and of
/// RhoCross/DeltaCrossSymmetric on one fixed block pair, at dims 2, 57 and
/// 74 (S2, BigCross and Kdd), each the median of repeated timed calls. Its
/// sizes ignore DDP_BENCH_SCALE, so the evaluation counts are fixed, and it
/// is written to BENCH_local_engine.json in the working directory.
///
/// Run: ./build/bench/bench_local_engine   (from the repository root)

namespace ddp {
namespace {

using bench::HumanCount;
using bench::Scaled;

struct Cell {
  double rho_seconds = 0.0;
  double delta_seconds = 0.0;
  uint64_t evals = 0;
};

Cell MeasureBackend(const Dataset& ds, double dc, LocalDpBackend backend) {
  LocalDpEngineOptions options;
  options.backend = backend;
  LocalDpEngine engine(options);
  LocalPointView view = LocalPointView::AllOf(ds);
  DistanceCounter counter;
  CountingMetric metric(&counter);
  Cell cell;
  Stopwatch rho_timer;
  std::vector<uint32_t> rho =
      engine.Rho(view, dc, DensityKernel::kCutoff, metric);
  cell.rho_seconds = rho_timer.ElapsedSeconds();
  Stopwatch delta_timer;
  LocalDeltaScores delta = engine.Delta(view, rho, metric);
  cell.delta_seconds = delta_timer.ElapsedSeconds();
  cell.evals = counter.value();
  (void)delta;
  return cell;
}

// ------------------------------------------------------ Kernel ledger

constexpr size_t kLedgerGroup = 1024;  // one large LSH bucket
constexpr size_t kLedgerBlock = 500;   // Basic-DDP's default block size
constexpr double kLedgerMinSeconds = 0.2;

struct LedgerRow {
  size_t dim;
  const char* op;
  const char* backend;
  uint64_t evals = 0;  // per call
  double ns_per_eval = 0.0;
};

// Calls `op` (which counts into `counter`) until kLedgerMinSeconds have
// passed and at least five times; returns the median ns per evaluation.
double MedianNsPerEval(const std::function<void()>& op,
                       DistanceCounter* counter, uint64_t* evals) {
  std::vector<double> ns;
  Stopwatch total;
  while (ns.size() < 5 || total.ElapsedSeconds() < kLedgerMinSeconds) {
    counter->Reset();
    Stopwatch watch;
    op();
    const double seconds = watch.ElapsedSeconds();
    *evals = counter->value();
    ns.push_back(*evals > 0 ? 1e9 * seconds / static_cast<double>(*evals)
                            : 0.0);
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

int RunLedger() {
  bench::Banner("Distance-kernel ledger: ns per counted evaluation",
                "the Sum|bucket|^2 term of the cost model, Eq. (7)/(8)");
  std::vector<LedgerRow> rows;
  for (size_t dim : {2u, 57u, 74u}) {
    auto ds = gen::GaussianMixture(kLedgerGroup + 2 * kLedgerBlock, dim, 4,
                                   30.0, 3.0, 7 + dim);
    ds.status().Abort("generate");
    // d_c sized to give each point a modest neighborhood.
    const double dc = 3.0 * std::sqrt(static_cast<double>(dim));
    std::vector<PointId> group(kLedgerGroup), left(kLedgerBlock),
        right(kLedgerBlock);
    std::iota(group.begin(), group.end(), 0);
    std::iota(left.begin(), left.end(), static_cast<PointId>(kLedgerGroup));
    std::iota(right.begin(), right.end(),
              static_cast<PointId>(kLedgerGroup + kLedgerBlock));
    const LocalPointView view = LocalPointView::SubsetOf(*ds, group);
    const LocalPointView lview = LocalPointView::SubsetOf(*ds, left);
    const LocalPointView rview = LocalPointView::SubsetOf(*ds, right);
    DistanceCounter counter;
    CountingMetric metric(&counter);
    for (LocalDpBackend backend :
         {LocalDpBackend::kBruteForce, LocalDpBackend::kTriangleFilter}) {
      LocalDpEngineOptions options;
      options.backend = backend;
      const LocalDpEngine engine(options);
      const std::vector<uint32_t> rho =
          engine.Rho(view, dc, DensityKernel::kCutoff, metric);
      LedgerRow rho_row{dim, "rho", LocalDpBackendName(backend)};
      rho_row.ns_per_eval = MedianNsPerEval(
          [&] { engine.Rho(view, dc, DensityKernel::kCutoff, metric); },
          &counter, &rho_row.evals);
      rows.push_back(rho_row);
      LedgerRow delta_row{dim, "delta", LocalDpBackendName(backend)};
      delta_row.ns_per_eval = MedianNsPerEval(
          [&] { engine.Delta(view, rho, metric); }, &counter,
          &delta_row.evals);
      rows.push_back(delta_row);
    }
    LocalDpEngineOptions options;
    options.backend = LocalDpBackend::kBruteForce;
    const LocalDpEngine engine(options);
    std::vector<uint32_t> rho_l(kLedgerBlock), rho_r(kLedgerBlock);
    LedgerRow cross_row{dim, "rho_cross", "brute"};
    cross_row.ns_per_eval = MedianNsPerEval(
        [&] {
          std::fill(rho_l.begin(), rho_l.end(), 0u);
          std::fill(rho_r.begin(), rho_r.end(), 0u);
          engine.RhoCross(lview, rview, dc, metric, rho_l, rho_r);
        },
        &counter, &cross_row.evals);
    rows.push_back(cross_row);
    LedgerRow sym_row{dim, "delta_cross_symmetric", "brute"};
    sym_row.ns_per_eval = MedianNsPerEval(
        [&] {
          std::vector<LocalDeltaBest> best_l(kLedgerBlock),
              best_r(kLedgerBlock);
          engine.DeltaCrossSymmetric(lview, rho_l, rview, rho_r, metric,
                                     best_l, best_r);
        },
        &counter, &sym_row.evals);
    rows.push_back(sym_row);
  }

  const char* kernel = internal::CpuHasAvx2() ? "avx2" : "scalar";
  std::printf("kernel: %s, group %zu points, block pair %zu x %zu\n", kernel,
              kLedgerGroup, kLedgerBlock, kLedgerBlock);
  std::printf("%5s  %-22s %-9s %12s %10s\n", "dim", "op", "backend", "evals",
              "ns/eval");
  for (const LedgerRow& row : rows) {
    std::printf("%5zu  %-22s %-9s %12llu %10.2f\n", row.dim, row.op,
                row.backend, static_cast<unsigned long long>(row.evals),
                row.ns_per_eval);
  }
  std::FILE* json = std::fopen("BENCH_local_engine.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_local_engine.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"local_engine_kernels\",\n"
               "  \"kernel\": \"%s\",\n  \"group_size\": %zu,\n"
               "  \"block_size\": %zu,\n  \"rows\": [\n",
               kernel, kLedgerGroup, kLedgerBlock);
  for (size_t k = 0; k < rows.size(); ++k) {
    std::fprintf(json,
                 "    {\"dim\": %zu, \"op\": \"%s\", \"backend\": \"%s\", "
                 "\"evals\": %llu, \"ns_per_eval\": %.3f}%s\n",
                 rows[k].dim, rows[k].op, rows[k].backend,
                 static_cast<unsigned long long>(rows[k].evals),
                 rows[k].ns_per_eval, k + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_local_engine.json\n");
  return 0;
}

int Run() {
  bench::QuietLogs quiet;
  bench::Banner("LocalDpEngine backend sweep: group size x dim",
                "the per-bucket/cell/block kernel cost model");
  const LocalDpBackend backends[] = {LocalDpBackend::kBruteForce,
                                     LocalDpBackend::kKdTree,
                                     LocalDpBackend::kTriangleFilter};
  std::printf("%8s %5s | %-9s %12s %10s %10s %8s\n", "group", "dim", "backend",
              "dist evals", "rho ms", "delta ms", "vs brute");
  for (size_t dim : {2u, 8u, 32u}) {
    for (size_t base_n : {128u, 512u, 2048u, 8192u}) {
      const size_t n = Scaled(base_n);
      auto ds = gen::GaussianMixture(n, dim, 4, 30.0, 3.0, 91 + dim + base_n);
      ds.status().Abort("generate");
      // d_c sized to give each point a modest neighborhood.
      const double dc = 3.0;
      uint64_t brute_evals = 0;
      for (LocalDpBackend backend : backends) {
        Cell cell = MeasureBackend(*ds, dc, backend);
        if (backend == LocalDpBackend::kBruteForce) brute_evals = cell.evals;
        const double ratio =
            brute_evals > 0 ? static_cast<double>(cell.evals) /
                                  static_cast<double>(brute_evals)
                            : 1.0;
        std::printf("%8zu %5zu | %-9s %12s %10.3f %10.3f %7.2fx\n", n, dim,
                    LocalDpBackendName(backend), HumanCount(cell.evals).c_str(),
                    cell.rho_seconds * 1e3, cell.delta_seconds * 1e3, ratio);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "kAuto picks: kdtree when n >= 256 and dim <= 16, triangle when\n"
      "n >= 512 otherwise, brute below those floors.\n");
  return RunLedger();
}

}  // namespace
}  // namespace ddp

int main() { return ddp::Run(); }
