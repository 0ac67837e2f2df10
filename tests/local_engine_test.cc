#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
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

// ----------------------------------------------- Panel kernel reference bits

// Every lane of both panel kernels must equal SquaredEuclidean bit for bit
// (ascending dimensions, no fused multiply-add) for every dimensionality and
// every number of live lanes in a panel, and the lanes past the last row
// must repeat a real row, so they hold finite values the engine masks.
TEST(PairKernelTest, PanelLanesMatchSquaredEuclideanBitForBit) {
  std::vector<internal::PanelKernel> kernels = {&internal::PanelScalar};
  if (internal::CpuHasAvx2()) {
    ASSERT_NE(internal::kPanelAvx2, nullptr);
    kernels.push_back(internal::kPanelAvx2);
    EXPECT_EQ(internal::SelectedPanelKernel(), internal::kPanelAvx2);
  } else {
    EXPECT_EQ(internal::SelectedPanelKernel(), &internal::PanelScalar);
  }
  constexpr size_t kLanes = internal::kPanelLanes;
  Rng rng(2017);
  for (size_t dim = 1; dim <= 80; ++dim) {
    // Mixed magnitudes and signs so that summation order shows in the bits.
    std::vector<std::vector<double>> rows(2 * kLanes + 1,
                                          std::vector<double>(dim));
    for (auto& row : rows) {
      for (double& x : row) {
        x = rng.Gaussian() * std::exp2(rng.Uniform(-20, 20));
      }
    }
    const std::vector<double>& query = rows.back();
    std::vector<const double*> ptrs;
    for (size_t r = 0; r < 2 * kLanes; ++r) ptrs.push_back(rows[r].data());
    // One and two panels, with 1..kLanes live lanes in the last one.
    for (size_t n = 1; n <= 2 * kLanes; ++n) {
      const size_t panels = internal::PanelCount(n);
      ASSERT_EQ(panels, n <= kLanes ? 1u : 2u);
      std::vector<double> packed(panels * internal::PanelStride(dim));
      internal::PackPanels(ptrs.data(), n, dim, packed.data());
      for (internal::PanelKernel kernel : kernels) {
        for (size_t p = 0; p < panels; ++p) {
          double out[kLanes];
          kernel(query.data(), packed.data() + p * internal::PanelStride(dim),
                 dim, out);
          for (size_t k = 0; k < kLanes; ++k) {
            // Padding lanes repeat the last real row.
            const size_t r = std::min(p * kLanes + k, n - 1);
            const double want = SquaredEuclidean(query, rows[r]);
            EXPECT_EQ(std::bit_cast<uint64_t>(out[k]),
                      std::bit_cast<uint64_t>(want))
                << "dim=" << dim << " n=" << n << " panel=" << p
                << " lane=" << k
                << " avx2=" << (kernel != &internal::PanelScalar);
          }
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

// ------------------------------------------------ Swept panel-loop identity

// One-pair-at-a-time results: the loops the panel kernel replaced.
std::vector<uint32_t> ScalarRho(const LocalPointView& view, double dc,
                                DensityKernel kernel) {
  const size_t n = view.size();
  std::vector<uint32_t> rho(n, 0);
  std::vector<double> soft(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d_sq = SquaredEuclidean(view.point(i), view.point(j));
      if (kernel == DensityKernel::kGaussian) {
        const double w = GaussianKernelContributionSq(d_sq, dc);
        soft[i] += w;
        soft[j] += w;
      } else if (d_sq < dc * dc) {
        ++rho[i];
        ++rho[j];
      }
    }
  }
  if (kernel == DensityKernel::kGaussian) {
    for (size_t k = 0; k < n; ++k) rho[k] = QuantizeDensity(soft[k]);
  }
  return rho;
}

std::vector<LocalDeltaBest> ScalarDelta(const LocalPointView& view,
                                        std::span<const uint32_t> rho) {
  std::vector<uint32_t> order(view.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return DenserThan(rho[a], view.id(a), rho[b], view.id(b));
  });
  std::vector<LocalDeltaBest> best(view.size());
  for (size_t r = 1; r < order.size(); ++r) {
    for (size_t s = 0; s < r; ++s) {
      best[order[r]].Improve(
          SquaredEuclidean(view.point(order[r]), view.point(order[s])),
          view.id(order[s]));
    }
  }
  return best;
}

bool SameBest(std::span<const LocalDeltaBest> got,
              std::span<const LocalDeltaBest> want) {
  if (got.size() != want.size()) return false;
  for (size_t k = 0; k < got.size(); ++k) {
    if (std::bit_cast<uint64_t>(got[k].d_sq) !=
            std::bit_cast<uint64_t>(want[k].d_sq) ||
        got[k].upslope != want[k].upslope) {
      return false;
    }
  }
  return true;
}

// Every panel loop — brute and triangle Rho/Delta and the three cross
// kernels, cutoff and gaussian, sequential and parallel — must match the
// scalar reference bit for bit and count exactly the reference's pairs, at
// group sizes around every panel boundary (padding, single partial panels,
// empty groups) and at dims with and without a 4-wide tail.
TEST(LocalEngineSweepTest, PanelLoopsMatchScalarReference) {
  std::vector<size_t> sizes;
  for (size_t n = 0; n <= 17; ++n) sizes.push_back(n);
  for (size_t n : {63u, 64u, 65u, 511u, 512u, 513u}) sizes.push_back(n);
  for (size_t dim : {2u, 5u, 57u, 74u}) {
    for (size_t n : sizes) {
      Dataset ds(dim);
      if (n > 0) {
        auto gen = gen::GaussianMixture(n, dim, 3, 20.0, 3.0, 3 + n + dim);
        ASSERT_TRUE(gen.ok());
        ds = *std::move(gen);
      }
      const LocalPointView view = LocalPointView::AllOf(ds);
      const double dc = 3.0 * std::sqrt(static_cast<double>(dim));
      const uint64_t pairs = n * (n > 0 ? n - 1 : 0) / 2;
      const std::vector<uint32_t> cutoff_rho =
          ScalarRho(view, dc, DensityKernel::kCutoff);
      const std::vector<LocalDeltaBest> want_best =
          ScalarDelta(view, cutoff_rho);
      const std::optional<TriangleReference> tri =
          n > 0 ? std::optional<TriangleReference>(view) : std::nullopt;

      // Cross kernels: the first third of the group against the rest.
      const size_t nl = n / 3;
      std::vector<PointId> left_ids(nl), right_ids(n - nl);
      std::iota(left_ids.begin(), left_ids.end(), 0);
      std::iota(right_ids.begin(), right_ids.end(), static_cast<PointId>(nl));
      const LocalPointView left = LocalPointView::SubsetOf(ds, left_ids);
      const LocalPointView right = LocalPointView::SubsetOf(ds, right_ids);
      const size_t nr = right.size();
      std::vector<uint32_t> rho_left(nl), rho_right(nr);
      for (size_t i = 0; i < nl; ++i) rho_left[i] = cutoff_rho[i] % 4;
      for (size_t j = 0; j < nr; ++j) rho_right[j] = cutoff_rho[nl + j] % 4;
      std::vector<uint32_t> want_left(nl), want_right(nr);
      std::vector<LocalDeltaBest> want_cross_left(nl), want_cross_right(nr);
      uint64_t denser = 0;
      for (size_t i = 0; i < nl; ++i) {
        for (size_t j = 0; j < nr; ++j) {
          const double d_sq = SquaredEuclidean(left.point(i), right.point(j));
          if (d_sq < dc * dc) {
            ++want_left[i];
            ++want_right[j];
          }
          if (DenserThan(rho_right[j], right.id(j), rho_left[i], left.id(i))) {
            ++denser;
            want_cross_left[i].Improve(d_sq, right.id(j));
          } else {
            want_cross_right[j].Improve(d_sq, left.id(i));
          }
        }
      }

      for (size_t parallel_min : {4096u, 2u}) {
        const bool parallel = n >= parallel_min;
        DistanceCounter counter;
        CountingMetric metric(&counter);
        for (LocalDpBackend backend :
             {LocalDpBackend::kBruteForce, LocalDpBackend::kTriangleFilter}) {
          const bool triangle = backend == LocalDpBackend::kTriangleFilter;
          const LocalDpEngine engine = EngineWith(backend, parallel_min);
          for (DensityKernel kernel :
               {DensityKernel::kCutoff, DensityKernel::kGaussian}) {
            SCOPED_TRACE(testing::Message()
                         << "n=" << n << " dim=" << dim << " backend="
                         << LocalDpBackendName(backend) << " kernel="
                         << static_cast<int>(kernel)
                         << " parallel=" << parallel);
            counter.Reset();
            EXPECT_EQ(engine.Rho(view, dc, kernel, metric),
                      kernel == DensityKernel::kCutoff
                          ? cutoff_rho
                          : ScalarRho(view, dc, kernel));
            const double reach = kernel == DensityKernel::kGaussian
                                     ? kGaussianKernelCut * dc
                                     : dc;
            const uint64_t rho_pairs =
                triangle && n > 0 ? tri->RhoEvals(reach) - n : pairs;
            EXPECT_EQ(counter.value(), (triangle ? n : 0) +
                                           (parallel ? 2 : 1) * rho_pairs);
          }
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " dim=" << dim << " backend="
                       << LocalDpBackendName(backend)
                       << " parallel=" << parallel);
          counter.Reset();
          const LocalDeltaScores d = engine.Delta(view, cutoff_rho, metric);
          std::vector<LocalDeltaBest> got(n);
          for (size_t k = 0; k < n; ++k) {
            if (d.upslope[k] == kInvalidPointId) continue;
            got[k] = {d.delta_sq[k], d.upslope[k]};
          }
          EXPECT_TRUE(SameBest(got, want_best));
          EXPECT_EQ(counter.value(),
                    n <= 1 ? 0u
                           : (triangle ? tri->DeltaEvals(view, cutoff_rho)
                                       : pairs));
        }

        SCOPED_TRACE(testing::Message() << "cross n=" << n << " dim=" << dim
                                        << " parallel_min=" << parallel_min);
        const LocalDpEngine engine =
            EngineWith(LocalDpBackend::kBruteForce, parallel_min);
        counter.Reset();
        std::vector<uint32_t> counts_left(nl), counts_right(nr);
        engine.RhoCross(left, right, dc, metric, counts_left, counts_right);
        EXPECT_EQ(counts_left, want_left);
        EXPECT_EQ(counts_right, want_right);
        std::vector<uint32_t> one_sided(nl);
        engine.RhoCross(left, right, dc, metric, one_sided, {});
        EXPECT_EQ(one_sided, want_left);
        EXPECT_EQ(counter.value(), 2 * nl * nr);
        counter.Reset();
        std::vector<LocalDeltaBest> best_left(nl), best_right(nr);
        engine.DeltaCrossSymmetric(left, rho_left, right, rho_right, metric,
                                   best_left, best_right);
        EXPECT_TRUE(SameBest(best_left, want_cross_left));
        EXPECT_TRUE(SameBest(best_right, want_cross_right));
        EXPECT_EQ(counter.value(), nl * nr);
        counter.Reset();
        std::vector<LocalDeltaBest> best(nl);
        engine.DeltaCross(left, rho_left, right, rho_right, metric, best);
        EXPECT_TRUE(SameBest(best, want_cross_left));
        EXPECT_EQ(counter.value(), denser);
      }
    }
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
