#pragma once

#include <cstddef>

/// \file pair_kernel.h
/// Private to the local DP engine (and its tests): the multi-lane squared
/// distance kernel behind every pairwise loop of LocalDpEngine. One call
/// evaluates up to kPairLanes independent (a, b) row pairs; lane k's result
/// is bit-identical to SquaredEuclidean(a[k], b[k]) because each lane sums
/// its squared differences over ascending dimensions, one rounded multiply
/// and one rounded add per term, never fused (the library builds with
/// -ffp-contract=off).

namespace ddp::internal {

/// Pairs evaluated per kernel call.
inline constexpr size_t kPairLanes = 8;

/// out[k] = sum over d ascending of (a[k][d] - b[k][d])^2, for k < count.
/// `count` is 1..kPairLanes; every a[k]/b[k] with k < count points at `dim`
/// doubles. Lanes at and beyond `count` are neither read nor written.
using PairLaneKernel = void (*)(const double* const* a, const double* const* b,
                                size_t count, size_t dim, double* out);

/// Portable kernel: the lanes interleaved in one scalar loop.
void PairLanesScalar(const double* const* a, const double* const* b,
                     size_t count, size_t dim, double* out);

/// AVX2 kernel: four dimensions of four lanes per step, transposed in
/// registers. Call only when CpuHasAvx2(); null on non-x86 builds.
extern const PairLaneKernel kPairLanesAvx2;

/// Whether this CPU (and its OS) runs AVX2 code.
bool CpuHasAvx2();

/// The kernel the engine uses on this CPU, chosen once at first call.
PairLaneKernel SelectedPairLaneKernel();

}  // namespace ddp::internal
