#pragma once

#include <cstddef>

/// \file pair_kernel.h
/// Private to the local DP engine (and its tests): the panel kernel behind
/// every pairwise loop of LocalDpEngine. A loop first packs its candidate
/// rows into panels of kPanelLanes rows stored dimension-major
/// (panel[d * kPanelLanes + lane]); one kernel call then scores one query
/// row against the kPanelLanes candidates of one panel. Lane k's result is
/// bit-identical to SquaredEuclidean(query, candidate k) because each lane
/// sums its squared differences over ascending dimensions, one rounded
/// subtract, multiply and add per term, never fused (the library builds
/// with -ffp-contract=off).

namespace ddp::internal {

/// Candidates per panel, and results per kernel call.
inline constexpr size_t kPanelLanes = 8;

/// Panels needed for `n` candidate rows.
inline constexpr size_t PanelCount(size_t n) {
  return (n + kPanelLanes - 1) / kPanelLanes;
}

/// Doubles one panel of `dim`-dimensional rows occupies.
inline constexpr size_t PanelStride(size_t dim) { return dim * kPanelLanes; }

/// Packs rows[0..n) into PanelCount(n) consecutive panels at `out`
/// (PanelCount(n) * PanelStride(dim) doubles): row r is lane r % kPanelLanes
/// of panel r / kPanelLanes. The last panel's unused lanes repeat row n - 1,
/// so every lane holds finite coordinates of a real row; callers mask them.
void PackPanels(const double* const* rows, size_t n, size_t dim, double* out);

/// out[k] = sum over d ascending of (panel[d * kPanelLanes + k] - query[d])^2
/// for every k < kPanelLanes.
using PanelKernel = void (*)(const double* query, const double* panel,
                             size_t dim, double* out);

/// Portable kernel: the lanes interleaved in one scalar loop.
void PanelScalar(const double* query, const double* panel, size_t dim,
                 double* out);

/// AVX2 kernel: one broadcast query coordinate against the panel's two
/// four-lane halves per dimension. Call only when CpuHasAvx2(); null on
/// non-x86 builds.
extern const PanelKernel kPanelAvx2;

/// Whether this CPU (and its OS) runs AVX2 code.
bool CpuHasAvx2();

/// The kernel the engine uses on this CPU, chosen once at first call.
PanelKernel SelectedPanelKernel();

}  // namespace ddp::internal
