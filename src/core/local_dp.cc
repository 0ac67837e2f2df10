#include "core/local_dp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <optional>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "common/thread_pool.h"
#include "core/pair_kernel.h"
#include "dataset/kdtree.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ddp {

namespace {

using internal::kPanelLanes;

constexpr double kInf = std::numeric_limits<double>::infinity();

// Observability for one kernel invocation. Counters are always recorded;
// a trace span (timing + per-group distance-eval count) is created only
// for groups of at least this many members, so the millions of tiny LSH
// buckets a large run produces never flood the trace buffer or pay clock
// reads.
constexpr size_t kKernelSpanMinGroup = 16;

class KernelScope {
 public:
  KernelScope(const char* name, size_t group_size, LocalDpBackend backend,
              const CountingMetric& metric)
      : outer_(metric.counter()), local_metric_(&local_counter_) {
    DDP_METRIC_COUNTER_ADD(obs::kMetricLocalDpGroups, 1);
    DDP_METRIC_HISTOGRAM_RECORD(obs::kMetricLocalDpGroupSize, group_size);
#ifndef DDP_OBS_NO_TRACING
    if (group_size >= kKernelSpanMinGroup &&
        obs::TraceRecorder::Global().enabled()) {
      span_.emplace(obs::kCatLocalDp, name);
      span_->AddArg("group_size", static_cast<uint64_t>(group_size));
      span_->AddArg("backend", LocalDpBackendName(backend));
    }
#endif
  }

  ~KernelScope() {
    const uint64_t evals = local_counter_.value();
    DDP_METRIC_COUNTER_ADD(obs::kMetricLocalDpDistanceEvals, evals);
    if (outer_ != nullptr) outer_->Add(evals);
#ifndef DDP_OBS_NO_TRACING
    if (span_.has_value()) span_->AddArg("distance_evals", evals);
#endif
  }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

  /// Metric the kernel body must use: evaluations land in this scope's
  /// local counter (so the per-group count is exact even when other groups
  /// run concurrently) and are forwarded to the caller's counter by the
  /// destructor.
  const CountingMetric& metric() const { return local_metric_; }

 private:
  DistanceCounter* outer_;
  DistanceCounter local_counter_;
  CountingMetric local_metric_;
#ifndef DDP_OBS_NO_TRACING
  std::optional<obs::Span> span_;
#endif
};

long KernelPoolPid() {
#ifndef _WIN32
  return static_cast<long>(::getpid());
#else
  return 0;
#endif
}

// Process-wide pool for within-group kernel parallelism. Deliberately
// separate from the per-job MapReduce pools: engine calls originate on MR
// workers, and blocking one pool's worker while waiting on a *different*
// pool cannot deadlock. The pool is pid-stamped: a forked MR worker
// (ExecMode::kFork) inherits this static but none of its threads, so the
// child must rebuild it — the inherited object is released unjoined (joining
// threads that do not exist in this image would hang; the child exits via
// _exit, so no destructors or leak checks run there). The supervising parent
// keeps the original pool, whose static unique_ptr still joins cleanly at
// exit. The rebuild branch only ever runs on a freshly forked,
// single-threaded child, so the unsynchronized statics are safe.
ThreadPool* SharedKernelPool() {
  static long owner_pid = KernelPoolPid();
  static std::unique_ptr<ThreadPool> pool =
      std::make_unique<ThreadPool>(DefaultParallelism());
  if (owner_pid != KernelPoolPid()) {
    (void)pool.release();
    pool = std::make_unique<ThreadPool>(DefaultParallelism());
    owner_pid = KernelPoolPid();
  }
  return pool.get();
}

// Runs body(k) for k in [0, n), on the shared pool when asked. Concurrent
// calls from different reducer threads are safe (each ParallelFor has its
// own cursor; Wait over-waits at worst).
void ForEachIndex(size_t n, bool parallel,
                  const std::function<void(size_t)>& body) {
  if (parallel && n > 1) {
    SharedKernelPool()->ParallelFor(n, body);
  } else {
    for (size_t k = 0; k < n; ++k) body(k);
  }
}

// Indices per parallel block of the pairwise paths: enough rows (or ranks)
// per block to amortize scheduling, few enough to balance.
constexpr size_t kParallelGrain = 32;

// Runs body(begin, end) over [0, n): one block when sequential, else blocks
// of kParallelGrain indices on the shared pool. Each block owns its indices,
// so bodies may write per-index state without synchronization.
void ForEachBlock(size_t n, bool parallel,
                  const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (!parallel || n <= kParallelGrain) {
    body(0, n);
    return;
  }
  const size_t blocks = (n + kParallelGrain - 1) / kParallelGrain;
  SharedKernelPool()->ParallelFor(blocks, [&](size_t b) {
    body(b * kParallelGrain, std::min(n, (b + 1) * kParallelGrain));
  });
}

// Doubles of packed panels a thread keeps between calls. A call that needs
// more frees its buffer when it ends, so one huge group does not pin memory.
constexpr size_t kPanelKeepDoubles = size_t{1} << 19;  // 4 MiB

// One call's candidate rows packed into panels (core/pair_kernel.h), plus the
// kernel this CPU runs. The panels live in a thread-local buffer reused
// across calls, so a small group allocates nothing. At most one Panels is
// alive per thread; the pool threads of a parallel loop only read it while
// the thread that packed it waits in ForEachBlock.
class Panels {
 public:
  Panels(std::span<const double* const> rows, size_t dim)
      : count_(internal::PanelCount(rows.size())),
        stride_(internal::PanelStride(dim)),
        dim_(dim),
        kernel_(internal::SelectedPanelKernel()) {
    // Slack to start the panels on a 64-byte boundary: with 8 lanes, one
    // dimension of a panel is then exactly one cache line.
    constexpr size_t kAlignDoubles = 64 / sizeof(double);
    if (buffer_.size() < count_ * stride_ + kAlignDoubles) {
      buffer_.resize(count_ * stride_ + kAlignDoubles);
    }
    const size_t misaligned =
        (reinterpret_cast<uintptr_t>(buffer_.data()) / sizeof(double)) %
        kAlignDoubles;
    data_ = buffer_.data() + (kAlignDoubles - misaligned) % kAlignDoubles;
    internal::PackPanels(rows.data(), rows.size(), dim, data_);
  }

  ~Panels() {
    if (buffer_.size() > kPanelKeepDoubles) std::vector<double>().swap(buffer_);
  }

  Panels(const Panels&) = delete;
  Panels& operator=(const Panels&) = delete;

  size_t count() const { return count_; }

  /// Scores `query` against panels [first, last). mask(p) returns the live
  /// lanes of panel p as a bit set; a panel with none is not evaluated.
  /// apply(c, d_sq) runs for every live lane, c being the candidate's index
  /// in the packed rows, in ascending c — the order of a one-pair-at-a-time
  /// loop — and returns whether that pair counts as an evaluation. Returns
  /// the number of counted pairs.
  template <typename Mask, typename Apply>
  uint64_t Scan(const double* query, size_t first, size_t last, Mask&& mask,
                Apply&& apply) const {
    uint64_t evals = 0;
    double d_sq[kPanelLanes];
    for (size_t p = first; p < last; ++p) {
      unsigned live = mask(p);
      if (live == 0) continue;
      kernel_(query, data_ + p * stride_, dim_, d_sq);
      for (; live != 0; live &= live - 1) {
        const size_t k = static_cast<size_t>(std::countr_zero(live));
        if (apply(p * kPanelLanes + k, d_sq[k])) ++evals;
      }
    }
    return evals;
  }

 private:
  static thread_local std::vector<double> buffer_;

  size_t count_;
  size_t stride_;
  size_t dim_;
  internal::PanelKernel kernel_;
  double* data_ = nullptr;
};

thread_local std::vector<double> Panels::buffer_;

// The lanes of panel p whose candidate index is below `limit`.
unsigned LanesBelow(size_t p, size_t limit) {
  const size_t base = p * kPanelLanes;
  if (limit <= base) return 0;
  if (limit - base >= kPanelLanes) {
    return (1u << kPanelLanes) - 1;
  }
  return (1u << (limit - base)) - 1;
}

// Pivot projections for the triangle-inequality filter: distances from every
// group member to the group centroid. |proj_i - proj_j| <= d_ij for any
// metric pivot, so pairs with a large projection gap can be skipped. The
// projections are counted evaluations (one per member).
std::vector<double> CentroidProjections(const LocalPointView& view,
                                        const CountingMetric& metric) {
  const size_t n = view.size();
  std::vector<double> centroid(view.dim(), 0.0);
  for (size_t k = 0; k < n; ++k) {
    std::span<const double> p = view.point(k);
    for (size_t d = 0; d < view.dim(); ++d) centroid[d] += p[d];
  }
  for (double& c : centroid) c /= static_cast<double>(n);
  std::vector<double> proj(n);
  for (size_t k = 0; k < n; ++k) {
    proj[k] = metric.Distance(view.point(k), centroid);
  }
  return proj;
}

}  // namespace

const char* LocalDpBackendName(LocalDpBackend backend) {
  switch (backend) {
    case LocalDpBackend::kAuto:
      return "auto";
    case LocalDpBackend::kBruteForce:
      return "brute";
    case LocalDpBackend::kKdTree:
      return "kdtree";
    case LocalDpBackend::kTriangleFilter:
      return "triangle";
  }
  return "unknown";
}

Result<LocalDpBackend> ParseLocalDpBackend(std::string_view name) {
  if (name == "auto") return LocalDpBackend::kAuto;
  if (name == "brute") return LocalDpBackend::kBruteForce;
  if (name == "kdtree") return LocalDpBackend::kKdTree;
  if (name == "triangle") return LocalDpBackend::kTriangleFilter;
  return Status::InvalidArgument("unknown local backend '" +
                                 std::string(name) +
                                 "' (want auto|brute|kdtree|triangle)");
}

LocalPointView LocalPointView::AllOf(const Dataset& dataset) {
  LocalPointView view(dataset.dim());
  view.Reserve(dataset.size());
  for (size_t i = 0; i < dataset.size(); ++i) {
    PointId id = static_cast<PointId>(i);
    view.Add(id, dataset.point(id));
  }
  return view;
}

LocalPointView LocalPointView::SubsetOf(const Dataset& dataset,
                                        std::span<const PointId> ids) {
  LocalPointView view(dataset.dim());
  view.Reserve(ids.size());
  for (PointId id : ids) view.Add(id, dataset.point(id));
  return view;
}

LocalDpBackend LocalDpEngine::Resolve(size_t group_size, size_t dim) const {
  if (options_.backend != LocalDpBackend::kAuto) return options_.backend;
  if (group_size >= options_.kd_min_group && dim <= options_.kd_max_dim) {
    return LocalDpBackend::kKdTree;
  }
  if (group_size >= options_.triangle_min_group) {
    return LocalDpBackend::kTriangleFilter;
  }
  return LocalDpBackend::kBruteForce;
}

std::vector<uint32_t> LocalDpEngine::Rho(const LocalPointView& view, double dc,
                                         DensityKernel kernel,
                                         const CountingMetric& outer_metric)
    const {
  const size_t n = view.size();
  std::vector<uint32_t> rho(n, 0);
  if (n == 0) return rho;
  const LocalDpBackend backend = Resolve(n, view.dim());
  KernelScope scope(obs::kSpanRho, n, backend, outer_metric);
  const CountingMetric& metric = scope.metric();
  const bool gaussian = kernel == DensityKernel::kGaussian;
  const double dc_sq = dc * dc;
  // Radius beyond which a pair cannot contribute: d_c for the cutoff
  // kernel, the truncation radius for the gaussian one. reach * reach is
  // the same expression GaussianKernelContributionSq truncates against.
  const double reach = gaussian ? kGaussianKernelCut * dc : dc;
  const double reach_sq = reach * reach;
  const bool parallel = options_.parallel_min_group > 0 &&
                        n >= options_.parallel_min_group;
  std::vector<double> soft;
  if (gaussian) soft.assign(n, 0.0);

  switch (backend) {
    case LocalDpBackend::kKdTree: {
      Result<KdTree> tree =
          KdTree::BuildFromRows(view.rows(), view.dim(), options_.kd_leaf_size);
      const KdTree& t = *tree;  // cannot fail: view non-empty, leaf_size >= 1
      ForEachIndex(n, parallel, [&](size_t k) {
        if (gaussian) {
          std::vector<std::pair<PointId, double>> hits;
          t.FindWithinSq(view.point(k), reach_sq, static_cast<PointId>(k),
                         metric, &hits);
          // Accumulate in ascending group-position order, the engine-wide
          // summation order, so the result matches the pairwise scans
          // bit-for-bit.
          std::sort(hits.begin(), hits.end());
          double s = 0.0;
          for (const auto& [pos, d_sq] : hits) {
            s += GaussianKernelContributionSq(d_sq, dc);
          }
          soft[k] = s;
        } else {
          rho[k] = static_cast<uint32_t>(
              t.CountWithin(view.point(k), dc, static_cast<PointId>(k),
                            metric));
        }
      });
      break;
    }
    case LocalDpBackend::kTriangleFilter:
    case LocalDpBackend::kAuto:  // Resolve never returns kAuto
    case LocalDpBackend::kBruteForce: {
      // The triangle filter skips pairs whose projection gap proves they
      // contribute nothing; brute force evaluates every pair.
      const bool triangle = backend == LocalDpBackend::kTriangleFilter;
      std::vector<double> proj;
      if (triangle) proj = CentroidProjections(view, metric);
      // Sequential: the half loop, each pair's contribution going to both
      // sides. Parallel: full-row scans, each block accumulating only its
      // own rows (ascending position order, so bit-identical to the half
      // loop) and each surviving pair evaluated from both sides. The panels
      // hold the group in group order; lanes outside the loop's range and
      // lanes the filter skips are masked.
      const Panels panels(view.rows(), view.dim());
      const double* const* rows = view.rows().data();
      ForEachBlock(n, parallel, [&](size_t begin, size_t end) {
        uint64_t evals = 0;
        for (size_t i = begin; i < end; ++i) {
          const size_t first = parallel ? 0 : i + 1;
          auto mask = [&](size_t p) {
            unsigned live = LanesBelow(p, n) & ~LanesBelow(p, first);
            if (i / kPanelLanes == p) {
              live &= ~(1u << (i % kPanelLanes));
            }
            for (unsigned m = triangle ? live : 0; m != 0; m &= m - 1) {
              const int k = std::countr_zero(m);
              const size_t j = p * kPanelLanes + static_cast<size_t>(k);
              if (std::abs(proj[i] - proj[j]) >= reach) live &= ~(1u << k);
            }
            return live;
          };
          evals += panels.Scan(
              rows[i], first / kPanelLanes, panels.count(), mask,
              [&](size_t j, double d_sq) {
                if (gaussian) {
                  const double w = GaussianKernelContributionSq(d_sq, dc);
                  soft[i] += w;
                  if (!parallel) soft[j] += w;
                } else if (d_sq < dc_sq) {
                  ++rho[i];
                  if (!parallel) ++rho[j];
                }
                return true;
              });
        }
        metric.AddEvaluations(evals);
      });
      break;
    }
  }
  if (gaussian) {
    for (size_t k = 0; k < n; ++k) rho[k] = QuantizeDensity(soft[k]);
  }
  return rho;
}

LocalDeltaScores LocalDpEngine::Delta(const LocalPointView& view,
                                      std::span<const uint32_t> rho,
                                      const CountingMetric& outer_metric)
    const {
  const size_t n = view.size();
  LocalDeltaScores out;
  out.delta.assign(n, kInf);
  out.delta_sq.assign(n, kInf);
  out.upslope.assign(n, kInvalidPointId);
  if (n <= 1) return out;
  const LocalDpBackend backend = Resolve(n, view.dim());
  KernelScope scope(obs::kSpanDelta, n, backend, outer_metric);
  const CountingMetric& metric = scope.metric();

  // Rank positions by the density total order: the candidates denser than
  // the point at rank r are exactly ranks [0, r). Rank 0 is the group's
  // densest point and keeps delta = +inf (the local-max rule).
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return DenserThan(rho[a], view.id(a), rho[b], view.id(b));
  });

  const bool parallel = options_.parallel_min_group > 0 &&
                        n >= options_.parallel_min_group;
  std::vector<LocalDeltaBest> best(n);  // by group position

  switch (backend) {
    case LocalDpBackend::kKdTree: {
      Result<KdTree> tree =
          KdTree::BuildFromRows(view.rows(), view.dim(), options_.kd_leaf_size);
      const KdTree& t = *tree;
      ForEachIndex(n - 1, parallel, [&](size_t r1) {
        const size_t k = order[r1 + 1];
        const uint32_t rho_k = rho[k];
        const PointId id_k = view.id(k);
        KdTree::Nearest res = t.FindNearestAccepted(
            view.point(k), metric, view.ids(),
            [&](PointId pos) {
              return DenserThan(rho[pos], view.id(pos), rho_k, id_k);
            });
        if (res.index != kInvalidPointId) {
          best[k].d_sq = res.distance_sq;
          best[k].upslope = res.tie_id;
        }
      });
      break;
    }
    case LocalDpBackend::kTriangleFilter:
    case LocalDpBackend::kAuto:  // Resolve never returns kAuto
    case LocalDpBackend::kBruteForce: {
      // The panels hold the group in rank order, so the candidates of the
      // query at rank r are the packed rows [0, r).
      const bool triangle = backend == LocalDpBackend::kTriangleFilter;
      std::vector<const double*> ranked(n);
      std::vector<PointId> ranked_id(n);
      for (size_t s = 0; s < n; ++s) {
        ranked[s] = view.rows()[order[s]];
        ranked_id[s] = view.id(order[s]);
      }
      std::vector<double> ranked_proj;
      if (triangle) {
        const std::vector<double> proj = CentroidProjections(view, metric);
        ranked_proj.resize(n);
        for (size_t s = 0; s < n; ++s) ranked_proj[s] = proj[order[s]];
      }
      const Panels panels(ranked, view.dim());
      ForEachBlock(n - 1, parallel, [&](size_t begin, size_t end) {
        uint64_t evals = 0;
        for (size_t r = begin + 1; r <= end; ++r) {
          LocalDeltaBest& b = best[order[r]];
          const size_t last = internal::PanelCount(r);
          if (!triangle) {
            evals += panels.Scan(
                ranked[r], 0, last, [&](size_t p) { return LanesBelow(p, r); },
                [&](size_t s, double d_sq) {
                  b.Improve(d_sq, ranked_id[s]);
                  return true;
                });
            continue;
          }
          // The filter reads the query's running minimum, which only
          // shrinks: a candidate whose gap^2 exceeds it now is dead for
          // good. A panel runs when any lane is alive; its lanes are then
          // replayed in rank order, re-checking the filter against the
          // running minimum before each Improve, and only the lanes that
          // pass count — exactly the one-pair-at-a-time sequence.
          auto alive = [&](size_t s) {
            const double gap = std::abs(ranked_proj[r] - ranked_proj[s]);
            return gap * gap <= b.d_sq;
          };
          evals += panels.Scan(
              ranked[r], 0, last,
              [&](size_t p) {
                const unsigned lanes = LanesBelow(p, r);
                for (unsigned m = lanes; m != 0; m &= m - 1) {
                  if (alive(p * kPanelLanes +
                            static_cast<size_t>(std::countr_zero(m)))) {
                    return lanes;
                  }
                }
                return 0u;
              },
              [&](size_t s, double d_sq) {
                if (!alive(s)) return false;
                b.Improve(d_sq, ranked_id[s]);
                return true;
              });
        }
        metric.AddEvaluations(evals);
      });
      break;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    if (best[k].upslope == kInvalidPointId) continue;
    out.delta_sq[k] = best[k].d_sq;
    out.delta[k] = best[k].Delta();
    out.upslope[k] = best[k].upslope;
  }
  return out;
}

void LocalDpEngine::RhoCross(const LocalPointView& left,
                             const LocalPointView& right, double dc,
                             const CountingMetric& outer_metric,
                             std::span<uint32_t> counts_left,
                             std::span<uint32_t> counts_right) const {
  const size_t nl = left.size();
  const size_t nr = right.size();
  if (nl == 0 || nr == 0) return;
  KernelScope scope(obs::kSpanRhoCross, nl + nr, options_.backend,
                    outer_metric);
  const CountingMetric& metric = scope.metric();
  const double dc_sq = dc * dc;
  const bool both = !counts_right.empty();
  const bool kd = [&] {
    switch (options_.backend) {
      case LocalDpBackend::kKdTree:
        return true;
      case LocalDpBackend::kAuto:
        return nr >= options_.kd_min_group && left.dim() <= options_.kd_max_dim;
      default:
        return false;  // triangle has no cross-group pivot; use brute
    }
  }();
  // Parallelizing the both-sided pass would race on counts_right; the
  // one-sided pass shards cleanly over left rows.
  const bool parallel = !both && options_.parallel_min_group > 0 &&
                        nl * nr >= options_.parallel_min_group *
                                       options_.parallel_min_group;

  if (kd) {
    Result<KdTree> tree =
        KdTree::BuildFromRows(right.rows(), right.dim(), options_.kd_leaf_size);
    const KdTree& t = *tree;
    if (both) {
      std::vector<std::pair<PointId, double>> hits;
      for (size_t i = 0; i < nl; ++i) {
        hits.clear();
        t.FindWithinSq(left.point(i), dc_sq, kInvalidPointId, metric, &hits);
        counts_left[i] += static_cast<uint32_t>(hits.size());
        for (const auto& [pos, d_sq] : hits) ++counts_right[pos];
      }
    } else {
      ForEachIndex(nl, parallel, [&](size_t i) {
        counts_left[i] += static_cast<uint32_t>(
            t.CountWithin(left.point(i), dc, kInvalidPointId, metric));
      });
    }
    return;
  }
  const Panels panels(right.rows(), right.dim());
  ForEachBlock(nl, parallel, [&](size_t begin, size_t end) {
    uint64_t evals = 0;
    for (size_t i = begin; i < end; ++i) {
      evals += panels.Scan(
          left.rows()[i], 0, panels.count(),
          [&](size_t p) { return LanesBelow(p, nr); },
          [&](size_t j, double d_sq) {
            if (d_sq < dc_sq) {
              ++counts_left[i];
              if (both) ++counts_right[j];
            }
            return true;
          });
    }
    metric.AddEvaluations(evals);
  });
}

void LocalDpEngine::DeltaCross(const LocalPointView& queries,
                               std::span<const uint32_t> query_rho,
                               const LocalPointView& candidates,
                               std::span<const uint32_t> candidate_rho,
                               const CountingMetric& outer_metric,
                               std::span<LocalDeltaBest> best) const {
  const size_t nq = queries.size();
  const size_t nc = candidates.size();
  if (nq == 0 || nc == 0) return;
  KernelScope scope(obs::kSpanDeltaCross, nq + nc, options_.backend,
                    outer_metric);
  const CountingMetric& metric = scope.metric();
  const bool kd = [&] {
    switch (options_.backend) {
      case LocalDpBackend::kKdTree:
        return true;
      case LocalDpBackend::kAuto:
        return nc >= options_.kd_min_group &&
               queries.dim() <= options_.kd_max_dim;
      default:
        return false;
    }
  }();
  const bool parallel = options_.parallel_min_group > 0 &&
                        nq * nc >= options_.parallel_min_group *
                                       options_.parallel_min_group;

  if (kd) {
    Result<KdTree> tree = KdTree::BuildFromRows(
        candidates.rows(), candidates.dim(), options_.kd_leaf_size);
    const KdTree& t = *tree;
    ForEachIndex(nq, parallel, [&](size_t k) {
      const uint32_t rho_k = query_rho[k];
      const PointId id_k = queries.id(k);
      KdTree::Nearest seed;
      seed.distance_sq = best[k].d_sq;
      seed.tie_id = best[k].upslope;
      KdTree::Nearest res = t.FindNearestAccepted(
          queries.point(k), metric, candidates.ids(),
          [&](PointId pos) {
            return DenserThan(candidate_rho[pos], candidates.id(pos), rho_k,
                              id_k);
          },
          seed);
      if (res.index != kInvalidPointId) {
        best[k].d_sq = res.distance_sq;
        best[k].upslope = res.tie_id;
      }
    });
    return;
  }
  const Panels panels(candidates.rows(), candidates.dim());
  ForEachBlock(nq, parallel, [&](size_t begin, size_t end) {
    uint64_t evals = 0;
    for (size_t k = begin; k < end; ++k) {
      const uint32_t rho_k = query_rho[k];
      const PointId id_k = queries.id(k);
      auto mask = [&](size_t p) {
        unsigned live = 0;
        for (size_t w = 0; w < kPanelLanes; ++w) {
          const size_t l = p * kPanelLanes + w;
          if (l < nc && DenserThan(candidate_rho[l], candidates.id(l), rho_k,
                                   id_k)) {
            live |= 1u << w;
          }
        }
        return live;
      };
      evals += panels.Scan(queries.rows()[k], 0, panels.count(), mask,
                           [&](size_t l, double d_sq) {
                             best[k].Improve(d_sq, candidates.id(l));
                             return true;
                           });
    }
    metric.AddEvaluations(evals);
  });
}

void LocalDpEngine::DeltaCrossSymmetric(
    const LocalPointView& left, std::span<const uint32_t> rho_left,
    const LocalPointView& right, std::span<const uint32_t> rho_right,
    const CountingMetric& outer_metric, std::span<LocalDeltaBest> best_left,
    std::span<LocalDeltaBest> best_right) const {
  const size_t nl = left.size();
  const size_t nr = right.size();
  if (nl == 0 || nr == 0) return;
  const bool kd = [&] {
    switch (options_.backend) {
      case LocalDpBackend::kKdTree:
        return true;
      case LocalDpBackend::kAuto:
        // Two one-sided tree passes re-evaluate shared pairs, so they must
        // both be large enough for pruning to beat the brute half price.
        return std::min(nl, nr) >= options_.kd_min_group &&
               left.dim() <= options_.kd_max_dim;
      default:
        return false;
    }
  }();
  if (kd) {
    // The two one-sided passes carry their own kernel scopes.
    DeltaCross(left, rho_left, right, rho_right, outer_metric, best_left);
    DeltaCross(right, rho_right, left, rho_left, outer_metric, best_right);
    return;
  }
  KernelScope scope(obs::kSpanDeltaCrossSym, nl + nr, options_.backend,
                    outer_metric);
  const CountingMetric& metric = scope.metric();
  // Brute: each cross pair's distance is evaluated exactly once and feeds
  // both sides — the Basic-DDP block-pair cost model.
  const Panels panels(right.rows(), right.dim());
  uint64_t evals = 0;
  for (size_t i = 0; i < nl; ++i) {
    const PointId id_i = left.id(i);
    evals += panels.Scan(
        left.rows()[i], 0, panels.count(),
        [&](size_t p) { return LanesBelow(p, nr); },
        [&](size_t j, double d_sq) {
          const PointId id_j = right.id(j);
          if (DenserThan(rho_right[j], id_j, rho_left[i], id_i)) {
            best_left[i].Improve(d_sq, id_j);
          }
          if (DenserThan(rho_left[i], id_i, rho_right[j], id_j)) {
            best_right[j].Improve(d_sq, id_i);
          }
          return true;
        });
  }
  metric.AddEvaluations(evals);
}

}  // namespace ddp
