#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/failpoint.h"
#include "common/parallel.h"
#include "common/random.h"
#include "linalg/row_kernels.h"

namespace graphalign {

namespace {

using row_kernels::kBlock;

// Flops below which a ParallelFor dispatch costs more than it saves. Tred2
// dispatches up to four loops per column, so its loops only go parallel on
// active blocks from ~512 x 512 on.
constexpr int64_t kParallelFlops = 1 << 20;

// Rotations Tql2 buffers before applying them to the eigenvectors.
constexpr size_t kMaxRotations = 4096;

// ParallelFor's min_work for items of `flops_per_item` each.
int64_t MinItems(int64_t flops_per_item) {
  return std::max<int64_t>(2, kParallelFlops / (flops_per_item + 1));
}

// row[k] -= f * q[k] + g * u[k]: one row of the tred2 rank-2 update.
void Rank2Row(double* __restrict row, const double* __restrict q,
              const double* __restrict u, double f, double g, int len) {
  int k = 0;
  for (; k + kBlock <= len; k += kBlock) {
    for (int t = 0; t < kBlock; ++t) {
      row[k + t] -= f * q[k + t] + g * u[k + t];
    }
  }
  for (; k < len; ++k) row[k] -= f * q[k] + g * u[k];
}

// y[k] -= g[k] * s.
void SubScaledRow(double* __restrict y, const double* __restrict g, double s,
                  int len) {
  int k = 0;
  for (; k + kBlock <= len; k += kBlock) {
    for (int t = 0; t < kBlock; ++t) y[k + t] -= g[k + t] * s;
  }
  for (; k < len; ++k) y[k] -= g[k] * s;
}

// Householder reduction of symmetric `a` (n x n) to tridiagonal form.
// On exit `a` holds the accumulated orthogonal transform Q, `d` the diagonal
// and `e` the subdiagonal (e[0] unused). The deadline is polled between
// Householder columns (each column costs O(n^2)).
//
// This is EISPACK tred2 with the textbook loop's arithmetic kept operation
// for operation. Only the lower triangle of the input is read. The active
// (l+1) x (l+1) block is kept fully symmetric (the rank-2 update is mirrored;
// `a*b + c*d` and `c*d + a*b` are bit-equal), so every product reads rows;
// the column-block and row-block kernels run on the ParallelFor pool.
Status Tred2(DenseMatrix* a_io, const Deadline& deadline,
             std::vector<double>* d_out, std::vector<double>* e_out) {
  DenseMatrix& a = *a_io;
  const int n = a.rows();
  const size_t stride = static_cast<size_t>(n);
  std::vector<double>& d = *d_out;
  std::vector<double>& e = *e_out;
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  // The textbook loop reads only the lower triangle; mirroring it makes the
  // active block symmetric, which every row kernel below relies on.
  for (int j = 1; j < n; ++j) {
    for (int k = 0; k < j; ++k) a(k, j) = a(j, k);
  }

  DeadlineChecker checker(deadline, /*stride=*/8);
  for (int i = n - 1; i >= 1; --i) {
    GA_RETURN_IF_EXPIRED(checker, "SymmetricEigen");
    const int l = i - 1;
    const int len = l + 1;
    double* u = a.Row(i);
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(u[k]);
      if (scale == 0.0) {
        e[i] = u[l];
      } else {
        for (int k = 0; k <= l; ++k) {
          u[k] /= scale;
          h += u[k] * u[k];
        }
        double f = u[l];
        const double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        u[l] = f - g;
        for (int j = 0; j <= l; ++j) a(j, i) = u[j] / h;
        // e[j] = (A u)_j / h over the symmetric active block.
        ParallelFor(
            len,
            [&](int64_t lo, int64_t hi) {
              row_kernels::RowDots(a.Row(static_cast<int>(lo)), stride, u,
                                   len, static_cast<int>(hi - lo),
                                   e.data() + lo);
              for (int64_t j = lo; j < hi; ++j) e[j] /= h;
            },
            MinItems(2 * len));
        f = 0.0;
        for (int j = 0; j <= l; ++j) f += e[j] * u[j];
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) e[j] -= hh * u[j];
        // A -= u q^T + q u^T, both triangles.
        ParallelFor(
            len,
            [&](int64_t lo, int64_t hi) {
              for (int j = static_cast<int>(lo); j < hi; ++j) {
                Rank2Row(a.Row(j), e.data(), u, u[j], e[j], len);
              }
            },
            MinItems(4 * len));
      }
    } else {
      e[i] = u[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  std::vector<double> g(n);
  for (int i = 0; i < n; ++i) {
    GA_RETURN_IF_EXPIRED(checker, "SymmetricEigen");
    const int l = i - 1;
    const int len = l + 1;
    if (d[i] != 0.0) {
      // Per column j of the leading block: g_j = sum_k u_k Q(k, j) in k
      // order, then Q(k, j) -= g_j a(k, i).
      const double* u = a.Row(i);
      ParallelFor(
          len,
          [&](int64_t lo, int64_t hi) {
            row_kernels::ColumnSums(a.Row(0) + lo, stride, u, len,
                                    g.data() + lo, static_cast<int>(hi - lo));
          },
          MinItems(2 * len));
      ParallelFor(
          len,
          [&](int64_t lo, int64_t hi) {
            for (int k = static_cast<int>(lo); k < hi; ++k) {
              SubScaledRow(a.Row(k), g.data(), a(k, i), len);
            }
          },
          MinItems(2 * len));
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) a(j, i) = a(i, j) = 0.0;
  }
  return Status::Ok();
}

// One QL Givens rotation of eigenvector rows i and i+1.
struct Rotation {
  int i;
  double c;
  double s;
};

// Rotates a kBlock-wide slice of rows x = i and y = i + 1.
void RotateBlock(double* __restrict x, double* __restrict y, double c,
                 double s) {
  for (int t = 0; t < kBlock; ++t) {
    const double f = y[t];
    y[t] = s * x[t] + c * f;
    x[t] = c * x[t] - s * f;
  }
}

// The same rotation on a slice narrower than kBlock.
void RotateTail(double* __restrict x, double* __restrict y, double c,
                double s, int len) {
  for (int t = 0; t < len; ++t) {
    const double f = y[t];
    y[t] = s * x[t] + c * f;
    x[t] = c * x[t] - s * f;
  }
}

// Applies the buffered rotations, in order, to the row-major eigenvector
// matrix `zt` (eigenvector j is row j). Each kBlock-wide column block
// receives every rotation in order, so each element sees the same operations
// in the same order as the rotate-as-you-go loop.
void ApplyRotations(const std::vector<Rotation>& rotations, DenseMatrix* zt) {
  const int n = zt->rows();
  const int64_t blocks = (n + kBlock - 1) / kBlock;
  ParallelFor(
      blocks,
      [&](int64_t lo, int64_t hi) {
        for (int64_t b = lo; b < hi; ++b) {
          const int c0 = static_cast<int>(b) * kBlock;
          const int width = std::min(kBlock, n - c0);
          for (const Rotation& r : rotations) {
            double* x = zt->Row(r.i) + c0;
            double* y = zt->Row(r.i + 1) + c0;
            if (width == kBlock) {
              RotateBlock(x, y, r.c, r.s);
            } else {
              RotateTail(x, y, r.c, r.s, width);
            }
          }
        }
      },
      MinItems(6 * kBlock * static_cast<int64_t>(rotations.size())));
}

// Implicit-shift QL on a tridiagonal matrix; `zt` accumulates eigenvectors
// as rows (initialized to the transposed transform from Tred2). Rotations
// never feed back into d/e, so they are buffered (at most kMaxRotations)
// and applied in batches by ApplyRotations.
Status Tql2(std::vector<double>* d_io, std::vector<double>* e_io,
            const Deadline& deadline, DenseMatrix* zt_io) {
  std::vector<double>& d = *d_io;
  std::vector<double>& e = *e_io;
  DenseMatrix& zt = *zt_io;
  const int n = static_cast<int>(d.size());
  std::vector<Rotation> rotations;
  rotations.reserve(kMaxRotations);

  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  DeadlineChecker checker(deadline, /*stride=*/16);
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      GA_RETURN_IF_EXPIRED(checker, "SymmetricEigen");
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-14 * dd) break;
      }
      if (m != l) {
        if (iter++ == 100) {
          // Recoverable numerics, not a bug: callers can degrade (fall back
          // to a cheaper similarity + greedy assignment) instead of failing.
          return Status::Numerical("tql2: QL iteration did not converge");
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i;
        for (i = m - 1; i >= l; --i) {
          const double f = s * e[i];
          const double b = c * e[i];
          r = std::hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          rotations.push_back({i, c, s});
          if (rotations.size() == kMaxRotations) {
            ApplyRotations(rotations, &zt);
            rotations.clear();
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  ApplyRotations(rotations, &zt);
  return Status::Ok();
}

// Swaps a(r, c) and a(c, r) for all r < c.
void TransposeInPlace(DenseMatrix* a) {
  const int n = a->rows();
  for (int r = 0; r < n; ++r) {
    double* row = a->Row(r);
    for (int c = r + 1; c < n; ++c) std::swap(row[c], (*a)(c, r));
  }
}

}  // namespace

Result<SymmetricEigenResult> SymmetricEigen(DenseMatrix a,
                                            const Deadline& deadline) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("SymmetricEigen: matrix is not square");
  }
  const int n = a.rows();
  if (n == 0) {
    return SymmetricEigenResult{{}, DenseMatrix(0, 0)};
  }
  GA_FAILPOINT_STATUS("linalg.eigen.no-converge",
                      Status::Numerical("tql2: QL iteration did not converge"));
  std::vector<double> d;
  std::vector<double> e;
  GA_RETURN_IF_ERROR(Tred2(&a, deadline, &d, &e));
  TransposeInPlace(&a);
  GA_RETURN_IF_ERROR(Tql2(&d, &e, deadline, &a));
  // Ascending eigenvalues; std::sort over the same index order and values
  // keeps tied eigenvalues in a fixed order.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return d[x] < d[y]; });
  SymmetricEigenResult res{std::vector<double>(n), DenseMatrix(n, n)};
  for (int j = 0; j < n; ++j) {
    res.eigenvalues[j] = d[order[j]];
    const double* v = a.Row(order[j]);
    for (int r = 0; r < n; ++r) res.eigenvectors(r, j) = v[r];
  }
  return res;
}

Result<SymmetricEigenResult> LanczosEigen(const LinearOperator& op, int n,
                                          int k, SpectrumEnd end, int steps,
                                          uint64_t seed,
                                          const Deadline& deadline) {
  if (n <= 0) return Status::InvalidArgument("LanczosEigen: n must be > 0");
  if (k <= 0 || k > n) {
    return Status::InvalidArgument("LanczosEigen: need 0 < k <= n");
  }
  GA_FAILPOINT_STATUS(
      "linalg.lanczos.error",
      Status::Numerical("LanczosEigen: iteration lost orthogonality"));
  int m = steps > 0 ? steps : std::max(2 * k + 20, 40);
  m = std::min(m, n);
  if (m < k) m = k;

  Rng rng(seed);
  // Lanczos basis, rows are basis vectors (m x n).
  std::vector<std::vector<double>> basis;
  basis.reserve(m);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal();
  NormalizeInPlace(&v);
  basis.push_back(v);

  std::vector<double> alpha;
  std::vector<double> beta;  // beta[j] couples basis[j] and basis[j+1].
  std::vector<double> w(n);

  DeadlineChecker checker(deadline, /*stride=*/4);
  for (int j = 0; j < m; ++j) {
    GA_RETURN_IF_EXPIRED(checker, "LanczosEigen");
    op(basis[j], &w);
    const double a = Dot(w, basis[j]);
    alpha.push_back(a);
    if (j + 1 == m) break;
    Axpy(-a, basis[j], &w);
    if (j > 0) Axpy(-beta[j - 1], basis[j - 1], &w);
    // Full reorthogonalization (twice for numerical safety).
    for (int pass = 0; pass < 2; ++pass) {
      for (const auto& q : basis) Axpy(-Dot(w, q), q, &w);
    }
    double b = Norm2(w);
    if (b < 1e-12) {
      // Invariant subspace found: restart with a random orthogonal vector.
      for (double& x : w) x = rng.Normal();
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& q : basis) Axpy(-Dot(w, q), q, &w);
      }
      b = Norm2(w);
      if (b < 1e-12) {
        m = j + 1;  // The whole space is exhausted.
        break;
      }
      beta.push_back(0.0);
    } else {
      beta.push_back(b);
    }
    for (double& x : w) x /= b;
    basis.push_back(w);
  }

  const int dim = static_cast<int>(alpha.size());
  DenseMatrix t(dim, dim);
  for (int i = 0; i < dim; ++i) {
    t(i, i) = alpha[i];
    if (i + 1 < dim) {
      t(i, i + 1) = beta[i];
      t(i + 1, i) = beta[i];
    }
  }
  GA_ASSIGN_OR_RETURN(SymmetricEigenResult tri,
                      SymmetricEigen(std::move(t), deadline));

  const int kk = std::min(k, dim);
  SymmetricEigenResult out;
  out.eigenvalues.resize(kk);
  out.eigenvectors = DenseMatrix(n, kk);
  for (int j = 0; j < kk; ++j) {
    const int src = end == SpectrumEnd::kSmallest ? j : dim - kk + j;
    out.eigenvalues[j] = tri.eigenvalues[src];
    for (int i = 0; i < dim; ++i) {
      const double s = tri.eigenvectors(i, src);
      if (s == 0.0) continue;
      const std::vector<double>& q = basis[i];
      for (int r = 0; r < n; ++r) out.eigenvectors(r, j) += s * q[r];
    }
  }
  return out;
}

}  // namespace graphalign
