#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/local_dp.h"
#include "core/pair_kernel.h"
#include "core/sequential_dp.h"
#include "dataset/generators.h"
#include "ddp/basic_ddp.h"
#include "ddp/eddpc.h"
#include "ddp/lsh_ddp.h"

namespace ddp {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

constexpr LocalDpBackend kAllBackends[] = {LocalDpBackend::kBruteForce,
                                           LocalDpBackend::kKdTree,
                                           LocalDpBackend::kTriangleFilter};

mr::Options FastMr() {
  mr::Options o;
  o.num_workers = 2;
  o.num_partitions = 8;
  return o;
}

LocalDpEngine EngineWith(LocalDpBackend backend, size_t parallel_min = 4096) {
  LocalDpEngineOptions options;
  options.backend = backend;
  options.parallel_min_group = parallel_min;
  return LocalDpEngine(options);
}

// ------------------------------------------------- Backend name parsing

TEST(LocalDpBackendTest, ParseRoundTrip) {
  for (LocalDpBackend b : kAllBackends) {
    auto parsed = ParseLocalDpBackend(LocalDpBackendName(b));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, b);
  }
  auto a = ParseLocalDpBackend("auto");
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, LocalDpBackend::kAuto);
  EXPECT_FALSE(ParseLocalDpBackend("quadtree").ok());
}

TEST(LocalDpBackendTest, AutoResolvesByGroupSizeAndDim) {
  LocalDpEngine engine;  // defaults: kd >= 256 & dim <= 16, triangle >= 512
  EXPECT_EQ(engine.Resolve(10, 2), LocalDpBackend::kBruteForce);
  EXPECT_EQ(engine.Resolve(1000, 2), LocalDpBackend::kKdTree);
  EXPECT_EQ(engine.Resolve(1000, 300), LocalDpBackend::kTriangleFilter);
  EXPECT_EQ(engine.Resolve(300, 300), LocalDpBackend::kBruteForce);
  LocalDpEngineOptions pinned;
  pinned.backend = LocalDpBackend::kTriangleFilter;
  EXPECT_EQ(LocalDpEngine(pinned).Resolve(10, 2),
            LocalDpBackend::kTriangleFilter);
}

// --------------------------------------------- Cross-backend equivalence

// Every backend (and the parallel path) must produce bit-identical rho,
// delta, and upslope — the determinism contract all aggregation layers
// rely on.
TEST(LocalEngineEquivalenceTest, BackendsAgreeBitIdentically) {
  CountingMetric metric;
  // Dims 5 and 57 leave a tail past the last full 4-wide block; 57 and 74
  // are the BigCross and Kdd dimensionalities.
  for (size_t dim : {2u, 5u, 8u, 57u, 74u}) {
    for (size_t n : {3u, 17u, 300u, 700u}) {
      auto ds = gen::GaussianMixture(n, dim, 3, 20.0, 3.0, 17 + n + dim);
      ASSERT_TRUE(ds.ok());
      LocalPointView view = LocalPointView::AllOf(*ds);
      const double dc = 2.5;
      for (DensityKernel kernel :
           {DensityKernel::kCutoff, DensityKernel::kGaussian}) {
        std::vector<uint32_t> ref_rho =
            EngineWith(LocalDpBackend::kBruteForce).Rho(view, dc, kernel,
                                                        metric);
        LocalDeltaScores ref_delta =
            EngineWith(LocalDpBackend::kBruteForce).Delta(view, ref_rho,
                                                          metric);
        for (LocalDpBackend backend : kAllBackends) {
          // Sequential and forced-parallel (parallel_min_group=2) paths.
          for (size_t parallel_min : {4096u, 2u}) {
            LocalDpEngine engine = EngineWith(backend, parallel_min);
            std::vector<uint32_t> rho = engine.Rho(view, dc, kernel, metric);
            EXPECT_EQ(rho, ref_rho)
                << "rho mismatch: backend=" << LocalDpBackendName(backend)
                << " n=" << n << " dim=" << dim
                << " kernel=" << static_cast<int>(kernel)
                << " parallel_min=" << parallel_min;
            LocalDeltaScores d = engine.Delta(view, ref_rho, metric);
            EXPECT_EQ(d.delta, ref_delta.delta);
            EXPECT_EQ(d.delta_sq, ref_delta.delta_sq);
            EXPECT_EQ(d.upslope, ref_delta.upslope)
                << "delta mismatch: backend=" << LocalDpBackendName(backend)
                << " n=" << n << " dim=" << dim
                << " parallel_min=" << parallel_min;
          }
        }
      }
    }
  }
}

// The sequential oracle must give the same scores whichever backend is
// selected through its options.
TEST(LocalEngineEquivalenceTest, SequentialDpBackendsAgree) {
  auto ds = gen::GaussianMixture(400, 3, 4, 25.0, 2.0, 41);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  auto ref = ComputeExactDp(*ds, 2.0, metric);
  ASSERT_TRUE(ref.ok());
  for (LocalDpBackend backend : kAllBackends) {
    SequentialDpOptions options;
    options.backend = backend;
    auto scores = ComputeExactDp(*ds, 2.0, metric, options);
    ASSERT_TRUE(scores.ok());
    EXPECT_EQ(scores->rho, ref->rho) << LocalDpBackendName(backend);
    EXPECT_EQ(scores->delta, ref->delta) << LocalDpBackendName(backend);
    EXPECT_EQ(scores->upslope, ref->upslope) << LocalDpBackendName(backend);
  }
}

// LSH-DDP must produce identical scores under every backend, with and
// without the SplitOversized sub-group path (the cap changes the scores, but
// never the backend equivalence).
TEST(LocalEngineEquivalenceTest, LshDdpBackendsAgreeWithAndWithoutSplit) {
  auto ds = gen::GaussianMixture(600, 4, 2, 20.0, 4.0, 23);  // fat buckets
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  for (size_t cap : {0u, 40u}) {
    DpScores ref;
    for (size_t b = 0; b < std::size(kAllBackends); ++b) {
      LshDdp::Params params;
      params.max_bucket_size = cap;
      params.local_backend = kAllBackends[b];
      LshDdp algo(params);
      auto scores = algo.ComputeScores(*ds, 2.0, metric, FastMr(), nullptr);
      ASSERT_TRUE(scores.ok());
      if (b == 0) {
        ref = *std::move(scores);
        continue;
      }
      EXPECT_EQ(scores->rho, ref.rho)
          << "cap=" << cap << " " << LocalDpBackendName(kAllBackends[b]);
      EXPECT_EQ(scores->delta, ref.delta)
          << "cap=" << cap << " " << LocalDpBackendName(kAllBackends[b]);
      EXPECT_EQ(scores->upslope, ref.upslope)
          << "cap=" << cap << " " << LocalDpBackendName(kAllBackends[b]);
    }
  }
}

// Basic-DDP and EDDPC are exact: under every backend they must match the
// sequential oracle bit-for-bit.
TEST(LocalEngineEquivalenceTest, ExactAlgorithmsMatchOracleUnderAllBackends) {
  auto ds = gen::GaussianMixture(350, 3, 3, 25.0, 2.5, 57);
  ASSERT_TRUE(ds.ok());
  CountingMetric metric;
  const double dc = 2.0;
  auto oracle = ComputeExactDp(*ds, dc, metric);
  ASSERT_TRUE(oracle.ok());
  for (LocalDpBackend backend : kAllBackends) {
    BasicDdp::Params bparams;
    bparams.block_size = 64;
    bparams.local_backend = backend;
    BasicDdp basic(bparams);
    auto bscores = basic.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
    ASSERT_TRUE(bscores.ok());
    EXPECT_EQ(bscores->rho, oracle->rho) << LocalDpBackendName(backend);
    EXPECT_EQ(bscores->delta, oracle->delta) << LocalDpBackendName(backend);
    EXPECT_EQ(bscores->upslope, oracle->upslope) << LocalDpBackendName(backend);

    Eddpc::Params eparams;
    eparams.local_backend = backend;
    Eddpc eddpc(eparams);
    auto escores = eddpc.ComputeScores(*ds, dc, metric, FastMr(), nullptr);
    ASSERT_TRUE(escores.ok());
    EXPECT_EQ(escores->rho, oracle->rho) << LocalDpBackendName(backend);
    EXPECT_EQ(escores->delta, oracle->delta) << LocalDpBackendName(backend);
    EXPECT_EQ(escores->upslope, oracle->upslope) << LocalDpBackendName(backend);
  }
}

// ------------------------------------------------ Lane kernel reference bits

// Every lane of both lane kernels must equal SquaredEuclidean bit for bit
// (ascending dimensions, no fused multiply-add) for every dimensionality
// and every queue fill, and must leave lanes past the fill untouched.
TEST(PairKernelTest, LanesMatchSquaredEuclideanBitForBit) {
  std::vector<internal::PairLaneKernel> kernels = {&internal::PairLanesScalar};
  if (internal::CpuHasAvx2()) {
    ASSERT_NE(internal::kPairLanesAvx2, nullptr);
    kernels.push_back(internal::kPairLanesAvx2);
    EXPECT_EQ(internal::SelectedPairLaneKernel(), internal::kPairLanesAvx2);
  } else {
    EXPECT_EQ(internal::SelectedPairLaneKernel(), &internal::PairLanesScalar);
  }
  constexpr size_t kLanes = internal::kPairLanes;
  constexpr double kSentinel = -1.0;
  Rng rng(2017);
  for (size_t dim = 1; dim <= 80; ++dim) {
    // Mixed magnitudes and signs so that summation order shows in the bits.
    std::vector<std::vector<double>> rows(2 * kLanes, std::vector<double>(dim));
    for (auto& row : rows) {
      for (double& x : row) {
        x = rng.Gaussian() * std::exp2(rng.Uniform(-20, 20));
      }
    }
    const double* a[kLanes];
    const double* b[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      a[k] = rows[k].data();
      b[k] = rows[kLanes + k].data();
    }
    for (internal::PairLaneKernel kernel : kernels) {
      for (size_t fill = 1; fill <= kLanes; ++fill) {
        double out[kLanes];
        std::fill(std::begin(out), std::end(out), kSentinel);
        kernel(a, b, fill, dim, out);
        for (size_t k = 0; k < kLanes; ++k) {
          const double want = k < fill
                                  ? SquaredEuclidean(rows[k], rows[kLanes + k])
                                  : kSentinel;
          EXPECT_EQ(std::bit_cast<uint64_t>(out[k]),
                    std::bit_cast<uint64_t>(want))
              << "dim=" << dim << " fill=" << fill << " lane=" << k
              << " avx2=" << (kernel != &internal::PairLanesScalar);
        }
      }
    }
  }
}

// ------------------------------------------------------- Evaluation counts

// Triangle-filter reference: the one-pair-at-a-time loops the engine's
// lanes replaced, counting evaluations (n centroid projections plus every
// pair the filter lets through).
struct TriangleReference {
  std::vector<double> proj;

  explicit TriangleReference(const LocalPointView& view) {
    std::vector<double> centroid(view.dim(), 0.0);
    for (size_t k = 0; k < view.size(); ++k) {
      for (size_t d = 0; d < view.dim(); ++d) centroid[d] += view.point(k)[d];
    }
    for (double& c : centroid) c /= static_cast<double>(view.size());
    for (size_t k = 0; k < view.size(); ++k) {
      proj.push_back(Euclidean(view.point(k), centroid));
    }
  }

  uint64_t RhoEvals(double reach) const {
    uint64_t evals = proj.size();
    for (size_t i = 0; i < proj.size(); ++i) {
      for (size_t j = i + 1; j < proj.size(); ++j) {
        if (std::abs(proj[i] - proj[j]) < reach) ++evals;
      }
    }
    return evals;
  }

  uint64_t DeltaEvals(const LocalPointView& view,
                      std::span<const uint32_t> rho) const {
    std::vector<uint32_t> order(view.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return DenserThan(rho[a], view.id(a), rho[b], view.id(b));
    });
    uint64_t evals = proj.size();
    for (size_t r = 1; r < order.size(); ++r) {
      const size_t k = order[r];
      LocalDeltaBest best;
      for (size_t s = 0; s < r; ++s) {
        const size_t l = order[s];
        const double gap = std::abs(proj[k] - proj[l]);
        if (gap * gap > best.d_sq) continue;
        ++evals;
        best.Improve(SquaredEuclidean(view.point(k), view.point(l)),
                     view.id(l));
      }
    }
    return evals;
  }
};

TEST(LocalEngineCountTest, BruteAndTriangleCountsAreExact) {
  for (size_t dim : {5u, 74u}) {
    for (size_t n : {2u, 9u, 57u, 300u}) {
      auto ds = gen::GaussianMixture(n, dim, 3, 20.0, 3.0, 5 + n + dim);
      ASSERT_TRUE(ds.ok());
      LocalPointView view = LocalPointView::AllOf(*ds);
      const double dc = 3.0 * std::sqrt(static_cast<double>(dim));
      const uint64_t pairs = n * (n - 1) / 2;
      const TriangleReference tri(view);
      for (DensityKernel kernel :
           {DensityKernel::kCutoff, DensityKernel::kGaussian}) {
        const double reach =
            kernel == DensityKernel::kGaussian ? kGaussianKernelCut * dc : dc;
        for (size_t parallel_min : {4096u, 2u}) {
          const bool parallel = n >= parallel_min;
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " dim=" << dim << " kernel="
                       << static_cast<int>(kernel) << " parallel=" << parallel);
          DistanceCounter counter;
          CountingMetric metric(&counter);
          LocalDpEngine brute = EngineWith(LocalDpBackend::kBruteForce,
                                           parallel_min);
          std::vector<uint32_t> rho = brute.Rho(view, dc, kernel, metric);
          // The parallel rho path scans full rows: every pair twice.
          EXPECT_EQ(counter.value(), parallel ? 2 * pairs : pairs);
          counter.Reset();
          brute.Delta(view, rho, metric);
          EXPECT_EQ(counter.value(), n > 1 ? pairs : 0u);

          LocalDpEngine triangle = EngineWith(LocalDpBackend::kTriangleFilter,
                                              parallel_min);
          counter.Reset();
          triangle.Rho(view, dc, kernel, metric);
          const uint64_t rho_pairs = tri.RhoEvals(reach) - n;
          EXPECT_EQ(counter.value(), n + (parallel ? 2 : 1) * rho_pairs);
          counter.Reset();
          triangle.Delta(view, rho, metric);
          EXPECT_EQ(counter.value(), tri.DeltaEvals(view, rho));
        }
      }
    }
  }
}

TEST(LocalEngineCountTest, CrossKernelsCountEveryPair) {
  auto ds = gen::GaussianMixture(130, 57, 3, 20.0, 3.0, 91);
  ASSERT_TRUE(ds.ok());
  std::vector<PointId> left_ids, right_ids;
  for (PointId i = 0; i < 130; ++i) {
    (i < 47 ? left_ids : right_ids).push_back(i);
  }
  LocalPointView left = LocalPointView::SubsetOf(*ds, left_ids);
  LocalPointView right = LocalPointView::SubsetOf(*ds, right_ids);
  const size_t nl = left.size();
  const size_t nr = right.size();
  std::vector<uint32_t> rho_left(nl), rho_right(nr);
  for (size_t i = 0; i < nl; ++i) rho_left[i] = static_cast<uint32_t>(i % 7);
  for (size_t j = 0; j < nr; ++j) rho_right[j] = static_cast<uint32_t>(j % 5);
  // Scalar reference results and the one-sided delta's pair count.
  const double dc = 40.0;
  std::vector<uint32_t> want_left(nl), want_right(nr);
  std::vector<LocalDeltaBest> want_best_left(nl), want_best_right(nr);
  uint64_t denser = 0;  // (left query, denser right candidate) pairs
  for (size_t i = 0; i < nl; ++i) {
    for (size_t j = 0; j < nr; ++j) {
      const double d_sq = SquaredEuclidean(left.point(i), right.point(j));
      if (d_sq < dc * dc) {
        ++want_left[i];
        ++want_right[j];
      }
      if (DenserThan(rho_right[j], right.id(j), rho_left[i], left.id(i))) {
        ++denser;
        want_best_left[i].Improve(d_sq, right.id(j));
      } else {
        want_best_right[j].Improve(d_sq, left.id(i));
      }
    }
  }
  auto same = [](const std::vector<LocalDeltaBest>& got,
                 const std::vector<LocalDeltaBest>& want) {
    for (size_t k = 0; k < got.size(); ++k) {
      if (std::bit_cast<uint64_t>(got[k].d_sq) !=
              std::bit_cast<uint64_t>(want[k].d_sq) ||
          got[k].upslope != want[k].upslope) {
        return false;
      }
    }
    return got.size() == want.size();
  };
  for (size_t parallel_min : {4096u, 2u}) {
    SCOPED_TRACE(testing::Message() << "parallel_min=" << parallel_min);
    LocalDpEngine engine =
        EngineWith(LocalDpBackend::kBruteForce, parallel_min);
    DistanceCounter counter;
    CountingMetric metric(&counter);
    std::vector<uint32_t> counts_left(nl), counts_right(nr);
    engine.RhoCross(left, right, dc, metric, counts_left, counts_right);
    EXPECT_EQ(counter.value(), nl * nr);
    EXPECT_EQ(counts_left, want_left);
    EXPECT_EQ(counts_right, want_right);
    counter.Reset();
    std::vector<uint32_t> one_sided(nl);
    engine.RhoCross(left, right, dc, metric, one_sided, {});
    EXPECT_EQ(counter.value(), nl * nr);
    EXPECT_EQ(one_sided, want_left);
    counter.Reset();
    std::vector<LocalDeltaBest> best_left(nl), best_right(nr);
    engine.DeltaCrossSymmetric(left, rho_left, right, rho_right, metric,
                               best_left, best_right);
    EXPECT_EQ(counter.value(), nl * nr);
    EXPECT_TRUE(same(best_left, want_best_left));
    EXPECT_TRUE(same(best_right, want_best_right));
    counter.Reset();
    std::vector<LocalDeltaBest> best(nl);
    engine.DeltaCross(left, rho_left, right, rho_right, metric, best);
    EXPECT_EQ(counter.value(), denser);
    EXPECT_TRUE(same(best, want_best_left));
  }
}

// ------------------------------------------------------------ Edge cases

TEST(LocalEngineEdgeTest, SinglePointGroup) {
  Dataset ds(2);
  ds.Add(std::vector<double>{1.0, 2.0});
  CountingMetric metric;
  for (LocalDpBackend backend : kAllBackends) {
    LocalDpEngine engine = EngineWith(backend);
    LocalPointView view = LocalPointView::AllOf(ds);
    std::vector<uint32_t> rho =
        engine.Rho(view, 1.0, DensityKernel::kCutoff, metric);
    ASSERT_EQ(rho.size(), 1u);
    EXPECT_EQ(rho[0], 0u);
    LocalDeltaScores d = engine.Delta(view, rho, metric);
    EXPECT_EQ(d.delta[0], kInf);
    EXPECT_EQ(d.delta_sq[0], kInf);
    EXPECT_EQ(d.upslope[0], kInvalidPointId);
  }
}

TEST(LocalEngineEdgeTest, AllCoincidentPoints) {
  const size_t n = 300;  // above kd_min_group so every backend really runs
  Dataset ds(3);
  for (size_t i = 0; i < n; ++i) ds.Add(std::vector<double>{4.0, 5.0, 6.0});
  CountingMetric metric;
  for (LocalDpBackend backend : kAllBackends) {
    LocalDpEngine engine = EngineWith(backend);
    LocalPointView view = LocalPointView::AllOf(ds);
    std::vector<uint32_t> rho =
        engine.Rho(view, 0.5, DensityKernel::kCutoff, metric);
    ASSERT_EQ(rho.size(), n);
    for (uint32_t r : rho) EXPECT_EQ(r, n - 1);
    // Equal rho everywhere: density order is by ascending id, so point 0 is
    // the local peak and everyone else sits at distance 0 from the smallest
    // denser id.
    LocalDeltaScores d = engine.Delta(view, rho, metric);
    EXPECT_EQ(d.delta[0], kInf);
    EXPECT_EQ(d.upslope[0], kInvalidPointId);
    for (size_t i = 1; i < n; ++i) {
      EXPECT_EQ(d.delta[i], 0.0) << LocalDpBackendName(backend) << " " << i;
      EXPECT_EQ(d.delta_sq[i], 0.0);
      EXPECT_EQ(d.upslope[i], 0u) << LocalDpBackendName(backend) << " " << i;
    }
  }
}

TEST(LocalEngineEdgeTest, SubsetViewUsesGlobalIds) {
  auto ds = gen::GaussianMixture(50, 2, 2, 10.0, 2.0, 7);
  ASSERT_TRUE(ds.ok());
  std::vector<PointId> ids;
  for (PointId i = 5; i < 25; ++i) ids.push_back(i);
  CountingMetric metric;
  LocalPointView view = LocalPointView::SubsetOf(*ds, ids);
  ASSERT_EQ(view.size(), ids.size());
  std::vector<uint32_t> rho =
      LocalDpEngine().Rho(view, 2.0, DensityKernel::kCutoff, metric);
  LocalDeltaScores d = LocalDpEngine().Delta(view, rho, metric);
  for (size_t k = 0; k < ids.size(); ++k) {
    if (d.upslope[k] == kInvalidPointId) continue;
    // Upslopes are global point ids drawn from the subset.
    EXPECT_GE(d.upslope[k], 5u);
    EXPECT_LT(d.upslope[k], 25u);
    EXPECT_NE(d.upslope[k], ids[k]);
  }
}

}  // namespace
}  // namespace ddp
