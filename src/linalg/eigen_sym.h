// Dense symmetric eigendecomposition and Lanczos iteration.
//
// GRASP takes the full spectrum of each normalized Laplacian from
// SymmetricEigen up to n = 1200 (its heat-kernel descriptors sum over every
// eigenpair) and the k_functions smallest pairs from Lanczos beyond; CONE
// needs leading eigenpairs of a random-walk polynomial; LREA and IsoRank use
// power iterations built on these kernels.
#ifndef GRAPHALIGN_LINALG_EIGEN_SYM_H_
#define GRAPHALIGN_LINALG_EIGEN_SYM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "linalg/dense.h"

namespace graphalign {

struct SymmetricEigenResult {
  // Ascending eigenvalues.
  std::vector<double> eigenvalues;
  // Column j of `eigenvectors` is the unit eigenvector for eigenvalues[j].
  DenseMatrix eigenvectors;
};

// Full eigendecomposition of a dense symmetric matrix via Householder
// tridiagonalization followed by the implicit-shift QL algorithm
// (EISPACK tred2/tql2 lineage). O(n^3) time, O(n^2) space.
// Fails if the input is not square or QL fails to converge. The deadline is
// polled between Householder columns and QL sweeps. Only the lower triangle
// of `a` is read.
//
// Layout and parallelism. tred2 keeps its active block symmetric, so its
// matrix-vector product, rank-2 update and Q accumulation all read rows; they
// run as vectorized row kernels (linalg/row_kernels.h) on the ParallelFor
// pool once a column carries enough work (~512 x 512 active blocks), inline
// below. The transform is then transposed in place, so eigenvector j is a row
// while tql2 runs. tql2 records each QL rotation (i, c, s) in a buffer of at
// most 4096 entries (~96 KB, independent of the number of sweeps) and applies
// a full buffer, and the remainder at the end, in one ParallelFor over
// 16-wide column blocks of the eigenvector rows. No n x n buffer is allocated
// besides the returned eigenvectors.
//
// Bit-identity contract: eigenvalues and eigenvectors are bit-identical to
// the sequential textbook tred2/tql2 loop (column-major walks, rotations
// applied as generated) followed by std::sort of the eigenpairs on their
// eigenvalues, at every GRAPHALIGN_THREADS value. Every element sees the same
// floating-point operations in the same order; the mirrored rank-2 update is
// exact because a*b + c*d and c*d + a*b are bit-equal, and the rotations
// never feed back into the tridiagonal. Tied eigenvalues therefore keep the
// order the sequential code gives them.
Result<SymmetricEigenResult> SymmetricEigen(DenseMatrix a,
                                            const Deadline& deadline =
                                                Deadline());

// Matrix-free symmetric operator: y = A x.
using LinearOperator =
    std::function<void(const std::vector<double>& x, std::vector<double>* y)>;

enum class SpectrumEnd { kSmallest, kLargest };

// k extremal eigenpairs of a symmetric operator of dimension n using Lanczos
// with full reorthogonalization. `steps` bounds the Krylov dimension
// (defaulted internally to min(n, max(2k + 20, 40)) when <= 0). The deadline
// is polled between Lanczos steps.
Result<SymmetricEigenResult> LanczosEigen(const LinearOperator& op, int n,
                                          int k, SpectrumEnd end,
                                          int steps = 0,
                                          uint64_t seed = 12345,
                                          const Deadline& deadline =
                                              Deadline());

}  // namespace graphalign

#endif  // GRAPHALIGN_LINALG_EIGEN_SYM_H_
