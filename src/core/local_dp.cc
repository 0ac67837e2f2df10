#include "core/local_dp.h"

#include <algorithm>
#include <cmath>
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
// per block to keep every kernel lane busy, few enough to balance.
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

// The (row, column) positions of one queued pair, e.g. (i, j) for a group's
// half loop or (query, candidate) for a cross pass.
struct PairTag {
  size_t i;
  size_t j;
};

// A private queue of up to kPairLanes pending pairs. Push() queues the rows
// of one pair with its tag; once every lane is taken, one kernel call
// evaluates them all and apply(tag, d_sq) runs for each pair in push order,
// so every accumulation order and Improve() tie-break is that of a
// one-pair-at-a-time loop. Pairs, not rows, fill the lanes: callers push
// across row boundaries, which keeps the lanes full on small groups.
// Evaluations are counted once per batch. Finish() evaluates the last
// partial batch and must run before the caller reads what apply writes.
template <typename Apply>
class PairQueue {
 public:
  PairQueue(size_t dim, const CountingMetric& metric, Apply apply)
      : dim_(dim),
        metric_(metric),
        apply_(std::move(apply)),
        kernel_(internal::SelectedPairLaneKernel()) {}

  void Push(const double* a, const double* b, PairTag tag) {
    a_[size_] = a;
    b_[size_] = b;
    tags_[size_] = tag;
    if (++size_ == internal::kPairLanes) Drain();
  }

  void Finish() {
    if (size_ > 0) Drain();
  }

 private:
  void Drain() {
    double d_sq[internal::kPairLanes];
    kernel_(a_, b_, size_, dim_, d_sq);
    metric_.AddEvaluations(size_);
    for (size_t k = 0; k < size_; ++k) apply_(tags_[k], d_sq[k]);
    size_ = 0;
  }

  size_t dim_;
  CountingMetric metric_;
  Apply apply_;
  internal::PairLaneKernel kernel_;
  size_t size_ = 0;
  const double* a_[internal::kPairLanes] = {};
  const double* b_[internal::kPairLanes] = {};
  PairTag tags_[internal::kPairLanes] = {};
};

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
      auto skip = [&](size_t i, size_t j) {
        return triangle && std::abs(proj[i] - proj[j]) >= reach;
      };
      // Sequential: the half loop, each pair's contribution going to both
      // sides. Parallel: full-row scans, each block accumulating only its
      // own rows (ascending position order, so bit-identical to the half
      // loop) and each surviving pair evaluated from both sides.
      auto apply = [&](PairTag p, double d_sq) {
        if (gaussian) {
          const double w = GaussianKernelContributionSq(d_sq, dc);
          soft[p.i] += w;
          if (!parallel) soft[p.j] += w;
        } else if (d_sq < dc_sq) {
          ++rho[p.i];
          if (!parallel) ++rho[p.j];
        }
      };
      const double* const* rows = view.rows().data();
      ForEachBlock(n, parallel, [&](size_t begin, size_t end) {
        PairQueue queue(view.dim(), metric, apply);
        for (size_t i = begin; i < end; ++i) {
          for (size_t j = parallel ? 0 : i + 1; j < n; ++j) {
            if (j != i && !skip(i, j)) queue.Push(rows[i], rows[j], {i, j});
          }
        }
        queue.Finish();
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
    case LocalDpBackend::kTriangleFilter: {
      // The filter reads each query's running minimum, so one query's
      // survivors cannot be queued ahead of its own results. Instead each
      // lane holds a different query (rank): every lane advances to its
      // query's next surviving candidate, the lanes are evaluated together,
      // and each query sees exactly its one-at-a-time candidate sequence.
      // A lane whose query runs out of candidates takes the next rank.
      std::vector<double> proj = CentroidProjections(view, metric);
      const internal::PairLaneKernel kernel =
          internal::SelectedPairLaneKernel();
      const double* const* rows = view.rows().data();
      ForEachBlock(n - 1, parallel, [&](size_t begin, size_t end) {
        struct Lane {
          size_t r;  // the query's rank; candidates are ranks [0, r)
          size_t s;  // next candidate rank
        };
        Lane lanes[internal::kPairLanes];
        const double* a[internal::kPairLanes];
        const double* b[internal::kPairLanes];
        double d_sq[internal::kPairLanes];
        size_t live = 0;
        size_t next = begin + 1;  // ranks [begin + 1, end + 1)
        while (live < internal::kPairLanes && next <= end) {
          lanes[live++] = {next++, 0};
        }
        // Advances a lane to its query's next survivor; false when none.
        auto advance = [&](Lane& lane) {
          const size_t k = order[lane.r];
          for (; lane.s < lane.r; ++lane.s) {
            const double gap = std::abs(proj[k] - proj[order[lane.s]]);
            if (gap * gap <= best[k].d_sq) return true;
          }
          return false;
        };
        for (;;) {
          for (size_t w = 0; w < live;) {
            if (!advance(lanes[w])) {
              lanes[w] = next <= end ? Lane{next++, 0} : lanes[--live];
              continue;
            }
            a[w] = rows[order[lanes[w].r]];
            b[w] = rows[order[lanes[w].s]];
            ++w;
          }
          if (live == 0) break;
          kernel(a, b, live, view.dim(), d_sq);
          metric.AddEvaluations(live);
          for (size_t w = 0; w < live; ++w) {
            const size_t l = order[lanes[w].s++];
            best[order[lanes[w].r]].Improve(d_sq[w], view.id(l));
          }
        }
      });
      break;
    }
    case LocalDpBackend::kAuto:  // Resolve never returns kAuto
    case LocalDpBackend::kBruteForce: {
      const double* const* rows = view.rows().data();
      ForEachBlock(n - 1, parallel, [&](size_t begin, size_t end) {
        PairQueue queue(view.dim(), metric, [&](PairTag p, double d_sq) {
          best[p.i].Improve(d_sq, view.id(p.j));
        });
        for (size_t r = begin + 1; r <= end; ++r) {
          const size_t k = order[r];
          for (size_t s = 0; s < r; ++s) {
            queue.Push(rows[k], rows[order[s]], {k, order[s]});
          }
        }
        queue.Finish();
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
  ForEachBlock(nl, parallel, [&](size_t begin, size_t end) {
    PairQueue queue(left.dim(), metric, [&](PairTag p, double d_sq) {
      if (d_sq < dc_sq) {
        ++counts_left[p.i];
        if (both) ++counts_right[p.j];
      }
    });
    for (size_t i = begin; i < end; ++i) {
      for (size_t j = 0; j < nr; ++j) {
        queue.Push(left.rows()[i], right.rows()[j], {i, j});
      }
    }
    queue.Finish();
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
  ForEachBlock(nq, parallel, [&](size_t begin, size_t end) {
    PairQueue queue(queries.dim(), metric, [&](PairTag p, double d_sq) {
      best[p.i].Improve(d_sq, candidates.id(p.j));
    });
    for (size_t k = begin; k < end; ++k) {
      const uint32_t rho_k = query_rho[k];
      const PointId id_k = queries.id(k);
      for (size_t l = 0; l < nc; ++l) {
        if (DenserThan(candidate_rho[l], candidates.id(l), rho_k, id_k)) {
          queue.Push(queries.rows()[k], candidates.rows()[l], {k, l});
        }
      }
    }
    queue.Finish();
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
  PairQueue queue(left.dim(), metric, [&](PairTag p, double d_sq) {
    const PointId id_i = left.id(p.i);
    const PointId id_j = right.id(p.j);
    if (DenserThan(rho_right[p.j], id_j, rho_left[p.i], id_i)) {
      best_left[p.i].Improve(d_sq, id_j);
    }
    if (DenserThan(rho_left[p.i], id_i, rho_right[p.j], id_j)) {
      best_right[p.j].Improve(d_sq, id_i);
    }
  });
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      queue.Push(left.rows()[i], right.rows()[j], {i, j});
    }
  }
  queue.Finish();
}

}  // namespace ddp
