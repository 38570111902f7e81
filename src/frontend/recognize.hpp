#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "apps/workloads.hpp"
#include "redist/block_cyclic.hpp"

/// \file recognize.hpp
/// Communication-pattern recognition — the compiler front end of compiled
/// communication (paper Section 3, issue 1: "communication pattern
/// recognition"; the paper relies on existing techniques [2, 7, 11]; this
/// module implements the core of them for the two statement forms the
/// evaluation needs).
///
/// The input model is an HPF/CRAFT-style data-parallel program slice:
///
///  * **forall assignments** over distributed arrays with affine index
///    expressions, e.g. `forall (i,j,k) A[i][j][k] = B[i][j][k+1] + ...`
///    under owner-computes: the owner of `A[i][j][k]` evaluates the
///    right-hand side, so every right-hand reference whose element lives
///    on a different PE induces one message per element;
///  * **redistribution statements** between two block-cyclic
///    distributions of the same array.
///
/// Both are lowered to a `CommPhase` (pattern + per-connection message
/// volumes in slots) that feeds straight into `apps::Pipeline`.
/// Because block-cyclic ownership and affine offsets are separable per
/// dimension, the analysis is exact and runs in O(extent) per dimension,
/// not O(elements).

namespace optdm::frontend {

/// A distributed array: a name plus its block-cyclic distribution.
struct DistributedArray {
  std::string name;
  redist::ArrayDistribution distribution;
};

/// One affine index expression `loop_var + offset` in one array dimension.
/// Dimension d of every reference must use loop variable d (the common
/// "aligned stencil" form the CM-2 stencil compiler [2] recognizes);
/// arbitrary permutations are normalized by the caller.
struct AffineIndex {
  std::int64_t offset = 0;
};

/// A reference `array[i0+o0][i1+o1][i2+o2]` inside a forall body.
struct ArrayRef {
  const DistributedArray* array = nullptr;
  std::array<AffineIndex, 3> index{};
};

/// `forall (i0,i1,i2 over lhs extents) lhs[i] = f(rhs...[i+offsets])`.
///
/// The iteration space is the left-hand array's element space.  Offsets
/// may reach outside it; `boundary` selects what happens there.
struct ForallAssign {
  std::string label;
  ArrayRef lhs;
  std::vector<ArrayRef> rhs;
  /// How out-of-range references behave.
  enum class Boundary {
    kClamp,     ///< no communication for out-of-range elements (Dirichlet)
    kPeriodic,  ///< indices wrap around the array extent
  };
  Boundary boundary = Boundary::kClamp;
};

/// Result of recognizing one statement: the induced phase plus what the
/// recognizer classified it as.
struct RecognizedPhase {
  apps::CommPhase phase;
  /// "shift(dx,dy,dz)" per right-hand reference, or "redistribution".
  std::vector<std::string> kinds;
};

/// Recognizes the static pattern of a forall assignment.  The left-hand
/// reference must use identity indices (offset 0 in every dimension).
/// Throws `std::invalid_argument` on malformed statements (null arrays,
/// lhs offsets, mismatched extents).
RecognizedPhase recognize(const ForallAssign& stmt, int words_per_slot);

/// Recognizes a redistribution statement `A := B` (same extents, possibly
/// different distributions) as a communication phase.
RecognizedPhase recognize_redistribution(const DistributedArray& to,
                                         const DistributedArray& from,
                                         int words_per_slot);

}  // namespace optdm::frontend
