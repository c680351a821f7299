#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/random.h"
#include "eigen_inputs.h"
#include "linalg/csr.h"
#include "linalg/dense.h"
#include "linalg/eigen_sym.h"
#include "linalg/sinkhorn.h"

namespace graphalign {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  const int64_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  ParallelFor(n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  }, /*min_work=*/1);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, BlocksAreContiguousAndOrderedWithinCall) {
  // Each invocation receives a [lo, hi) range; ranges must not overlap.
  const int64_t n = 5000;
  std::vector<int> owner(n, -1);
  std::atomic<int> next_id{0};
  ParallelFor(n, [&](int64_t lo, int64_t hi) {
    const int id = next_id.fetch_add(1);
    for (int64_t i = lo; i < hi; ++i) {
      ASSERT_EQ(owner[i], -1);
      owner[i] = id;
    }
  }, 1);
  for (int64_t i = 0; i < n; ++i) ASSERT_NE(owner[i], -1);
}

TEST(ParallelForTest, SmallWorkRunsInline) {
  // With n below min_work there is exactly one invocation covering all.
  int calls = 0;
  ParallelFor(10, [&](int64_t lo, int64_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0);
    EXPECT_EQ(hi, 10);
  }, /*min_work=*/100);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, ZeroAndNegativeSizesAreNoOps) {
  int calls = 0;
  ParallelFor(0, [&](int64_t, int64_t) { ++calls; });
  ParallelFor(-5, [&](int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, ThreadCountIsPositive) {
  EXPECT_GE(ParallelThreadCount(), 1);
}

TEST(ParallelForTest, ThreadCountParseIsStrictAndCapped) {
  EXPECT_EQ(*ParseThreadCount("1"), 1);
  EXPECT_EQ(*ParseThreadCount("8"), 8);
  EXPECT_EQ(*ParseThreadCount(std::to_string(kMaxParallelThreads)),
            kMaxParallelThreads);
  for (const std::string& bad :
       {std::to_string(kMaxParallelThreads + 1), std::string("99999999999"),
        std::string("2x"), std::string("0"), std::string("-3"),
        std::string("junk"), std::string(""), std::string(" 4")}) {
    auto parsed = ParseThreadCount(bad);
    ASSERT_FALSE(parsed.ok()) << "'" << bad << "'";
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("'" + bad + "'"),
              std::string::npos);
  }
}

TEST(ParallelForTest, RepeatedCallsAreStable) {
  // Stress the pool handshake: many back-to-back parallel regions.
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    ParallelFor(1000, [&](int64_t lo, int64_t hi) {
      int64_t local = 0;
      for (int64_t i = lo; i < hi; ++i) local += i;
      sum.fetch_add(local);
    }, 1);
    ASSERT_EQ(sum.load(), 999LL * 1000 / 2);
  }
}

TEST(ParallelForTest, NestedCallsRunInlineInsteadOfDeadlocking) {
  // A ParallelFor issued from inside a pool job must not touch the pool's
  // single job slot; it runs inline on the calling worker. Regression test
  // for reentrancy: before the thread_local in-pool guard this corrupted
  // the job state or deadlocked.
  const int64_t outer_n = 64;
  std::vector<std::atomic<int64_t>> sums(outer_n);
  ParallelFor(outer_n, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      // Nested region: min_work=1 so it would try to go parallel.
      ParallelFor(100, [&, i](int64_t nlo, int64_t nhi) {
        int64_t local = 0;
        for (int64_t k = nlo; k < nhi; ++k) local += k;
        sums[i].fetch_add(local);
      }, /*min_work=*/1);
    }
  }, /*min_work=*/1);
  for (int64_t i = 0; i < outer_n; ++i) {
    ASSERT_EQ(sums[i].load(), 99LL * 100 / 2) << "outer index " << i;
  }
}

TEST(ParallelForTest, DeeplyNestedCallsStillCoverEverything) {
  std::atomic<int64_t> count{0};
  ParallelFor(8, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      ParallelFor(8, [&](int64_t nlo, int64_t nhi) {
        for (int64_t j = nlo; j < nhi; ++j) {
          ParallelFor(8, [&](int64_t dlo, int64_t dhi) {
            count.fetch_add(dhi - dlo);
          }, 1);
        }
      }, 1);
    }
  }, 1);
  EXPECT_EQ(count.load(), 8 * 8 * 8);
}

// The textbook sequential EISPACK tred2/tql2 (column-major walks, rotations
// applied as they are generated) and eigenpair sort, kept verbatim as the
// bit-exact oracle for the blocked, row-parallel SymmetricEigen.
void ReferenceTred2(DenseMatrix* a_io, std::vector<double>* d_out,
                    std::vector<double>* e_out) {
  DenseMatrix& a = *a_io;
  const int n = a.rows();
  std::vector<double>& d = *d_out;
  std::vector<double>& e = *e_out;
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  for (int i = n - 1; i >= 1; --i) {
    const int l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (l > 0) {
      for (int k = 0; k <= l; ++k) scale += std::fabs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (int k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (int j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (int k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (int k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (int j = 0; j <= l; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (int k = 0; k <= j; ++k) {
            a(j, k) -= f * e[k] + g * a(i, k);
          }
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (int i = 0; i < n; ++i) {
    const int l = i - 1;
    if (d[i] != 0.0) {
      for (int j = 0; j <= l; ++j) {
        double g = 0.0;
        for (int k = 0; k <= l; ++k) g += a(i, k) * a(k, j);
        for (int k = 0; k <= l; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (int j = 0; j <= l; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

bool ReferenceTql2(std::vector<double>* d_io, std::vector<double>* e_io,
                   DenseMatrix* z_io) {
  std::vector<double>& d = *d_io;
  std::vector<double>& e = *e_io;
  DenseMatrix& z = *z_io;
  const int n = static_cast<int>(d.size());
  for (int i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (int l = 0; l < n; ++l) {
    int iter = 0;
    int m;
    do {
      for (m = l; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= 1e-14 * dd) break;
      }
      if (m != l) {
        if (iter++ == 100) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = std::hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::fabs(r) : -std::fabs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        int i;
        for (i = m - 1; i >= l; --i) {
          double f = s * e[i];
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
          for (int k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && i >= l) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

SymmetricEigenResult ReferenceSymmetricEigen(DenseMatrix a) {
  const int n = a.rows();
  std::vector<double> d;
  std::vector<double> e;
  ReferenceTred2(&a, &d, &e);
  EXPECT_TRUE(ReferenceTql2(&d, &e, &a));
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int x, int y) { return d[x] < d[y]; });
  SymmetricEigenResult res{std::vector<double>(n), DenseMatrix(n, n)};
  for (int j = 0; j < n; ++j) {
    res.eigenvalues[j] = d[order[j]];
    for (int r = 0; r < n; ++r) res.eigenvectors(r, j) = a(r, order[j]);
  }
  return res;
}

// The sequential Sinkhorn scaling loop and plan assembly (no log-domain
// fallback: the inputs below never trigger it).
DenseMatrix ReferenceSinkhornProject(const DenseMatrix& kernel,
                                     const std::vector<double>& mu,
                                     const std::vector<double>& nu,
                                     int max_iters, double tolerance) {
  const int n = kernel.rows();
  const int m = kernel.cols();
  std::vector<double> a(n, 1.0), b(m, 1.0), ka(m);
  constexpr double kTiny = 1e-300;
  for (int iter = 0; iter < max_iters; ++iter) {
    for (int i = 0; i < n; ++i) {
      double s = 0.0;
      for (int j = 0; j < m; ++j) s += kernel(i, j) * b[j];
      a[i] = mu[i] / std::max(s, kTiny);
    }
    std::fill(ka.begin(), ka.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) ka[j] += kernel(i, j) * a[i];
    }
    double err = 0.0;
    for (int j = 0; j < m; ++j) {
      err += std::fabs(ka[j] * b[j] - nu[j]);
      b[j] = nu[j] / std::max(ka[j], kTiny);
    }
    if (err < tolerance) break;
  }
  DenseMatrix t(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) t(i, j) = a[i] * kernel(i, j) * b[j];
  }
  return t;
}

bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool SameBits(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(ParallelKernelsTest, SymmetricEigenMatchesSequentialReference) {
  std::vector<NamedMatrix> inputs = DegenerateEigenInputs();
  // Only the lower triangle is read: junk above the diagonal must not leak.
  DenseMatrix lower = RandomSymmetric(70, 7);
  Rng rng(8);
  for (int i = 0; i < 70; ++i) {
    for (int j = i + 1; j < 70; ++j) lower(i, j) = rng.Normal();
  }
  inputs.push_back({"lower_triangle_only", lower});
  // Large enough that tred2's last columns run on the pool as well.
  inputs.push_back({"er520", ErdosRenyi(520, 10.0 / 519, &rng)
                                 .value()
                                 .NormalizedLaplacianDense()});
  for (const NamedMatrix& input : inputs) {
    SCOPED_TRACE(input.name);
    auto res = SymmetricEigen(input.a);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    const SymmetricEigenResult ref = ReferenceSymmetricEigen(input.a);
    EXPECT_TRUE(SameBits(res->eigenvalues, ref.eigenvalues));
    EXPECT_TRUE(SameBits(res->eigenvectors, ref.eigenvectors));
  }
}

TEST(ParallelKernelsTest, SinkhornMatchesSequentialReference) {
  const int n = 257, m = 300;
  const DenseMatrix cost = ConeShapedCost(n, m, /*dim=*/8, /*seed=*/11);
  const std::vector<double> mu = UniformMarginal(n);
  const std::vector<double> nu = UniformMarginal(m);
  SinkhornOptions opts;
  opts.epsilon = 0.05;
  auto t = SinkhornTransport(cost, mu, nu, opts);
  ASSERT_TRUE(t.ok()) << t.status().ToString();

  double cmin = cost(0, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) cmin = std::min(cmin, cost(i, j));
  }
  DenseMatrix kernel(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      kernel(i, j) = std::exp(-(cost(i, j) - cmin) / opts.epsilon);
    }
  }
  EXPECT_TRUE(SameBits(*t, ReferenceSinkhornProject(kernel, mu, nu,
                                                    opts.max_iters,
                                                    opts.tolerance)));

  // A loose tolerance stops early; the early exit must match as well.
  bool log_fallback = true;
  auto early = SinkhornProject(kernel, mu, nu, 200, 1e-2, Deadline(),
                               &log_fallback);
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(log_fallback);
  EXPECT_TRUE(SameBits(*early,
                       ReferenceSinkhornProject(kernel, mu, nu, 200, 1e-2)));
}

TEST(ParallelKernelsTest, GemmMatchesSequentialReference) {
  Rng rng(5);
  const int n = 257;  // Odd size to exercise uneven partitioning.
  DenseMatrix a(n, n), b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.Normal();
      b(i, j) = rng.Normal();
    }
  }
  DenseMatrix c = Multiply(a, b);  // Possibly parallel.
  // Sequential reference for a few sampled entries.
  for (int trial = 0; trial < 50; ++trial) {
    const int i = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int j = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    double s = 0.0;
    for (int k = 0; k < n; ++k) s += a(i, k) * b(k, j);
    ASSERT_NEAR(c(i, j), s, 1e-9);
  }
}

TEST(ParallelKernelsTest, SpmmDeterministicAcrossRuns) {
  Rng rng(6);
  std::vector<Triplet> trip;
  const int n = 400;
  for (int k = 0; k < 4000; ++k) {
    trip.push_back({static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n))),
                    static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n))),
                    rng.Normal()});
  }
  CsrMatrix s = CsrMatrix::FromTriplets(n, n, trip);
  DenseMatrix x(n, 80);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < 80; ++j) x(i, j) = rng.Normal();
  }
  DenseMatrix y1 = s.Multiply(x);
  DenseMatrix y2 = s.Multiply(x);
  // Byte-identical: the row partition fixes the floating-point order.
  EXPECT_TRUE(y1 == y2);
  DenseMatrix xt = x.Transposed();  // 80 x n, conformable for x * S.
  DenseMatrix z1 = s.RightMultiplied(xt);
  DenseMatrix z2 = s.RightMultiplied(xt);
  EXPECT_TRUE(z1 == z2);
}

TEST(ParallelKernelsTest, MultiplyAtBMatchesSequentialReference) {
  Rng rng(7);
  const int n = 301, k = 37, m = 53;  // a: n x k, b: n x m.
  DenseMatrix a(n, k), b(n, m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) a(i, j) = rng.Normal();
    for (int j = 0; j < m; ++j) b(i, j) = rng.Normal();
  }
  DenseMatrix c = MultiplyAtB(a, b);  // Parallel over a's columns.
  ASSERT_EQ(c.rows(), k);
  ASSERT_EQ(c.cols(), m);
  // Sequential reference accumulates over rows in ascending order — the
  // parallel kernel must match bitwise (block-column ownership keeps the
  // per-entry FP accumulation order identical).
  DenseMatrix ref(k, m);
  for (int r = 0; r < n; ++r) {
    for (int i = 0; i < k; ++i) {
      const double av = a(r, i);
      for (int j = 0; j < m; ++j) ref(i, j) += av * b(r, j);
    }
  }
  EXPECT_TRUE(c == ref);
  EXPECT_TRUE(MultiplyAtB(a, b) == c);  // Deterministic across runs.
}

TEST(ParallelKernelsTest, MultiplyVecMatchesSequentialReference) {
  Rng rng(8);
  const int n = 423, m = 77;
  DenseMatrix a(n, m);
  std::vector<double> x(m);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) a(i, j) = rng.Normal();
  }
  for (int j = 0; j < m; ++j) x[j] = rng.Normal();
  const std::vector<double> y = MultiplyVec(a, x);
  ASSERT_EQ(y.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double s = 0.0;
    for (int j = 0; j < m; ++j) s += a(i, j) * x[j];
    ASSERT_EQ(y[i], s) << "row " << i;  // Bitwise: same per-row order.
  }
}

TEST(ParallelKernelsTest, CsrMultiplyTransposedMatchesSequentialReference) {
  Rng rng(9);
  const int rows = 350, cols = 290, dense_cols = 40;
  std::vector<Triplet> trip;
  for (int k = 0; k < 6000; ++k) {
    trip.push_back(
        {static_cast<int>(rng.UniformInt(static_cast<uint64_t>(rows))),
         static_cast<int>(rng.UniformInt(static_cast<uint64_t>(cols))),
         rng.Normal()});
  }
  CsrMatrix s = CsrMatrix::FromTriplets(rows, cols, trip);
  DenseMatrix b(rows, dense_cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < dense_cols; ++j) b(i, j) = rng.Normal();
  }
  DenseMatrix y1 = s.MultiplyTransposed(b);  // cols x dense_cols
  DenseMatrix y2 = s.MultiplyTransposed(b);
  EXPECT_TRUE(y1 == y2);  // Deterministic across runs.
  // Reference via the serial scatter order: for each output row j, entries
  // accumulate in ascending source-row order — matching the CSC fill.
  DenseMatrix ref(cols, dense_cols);
  for (int r = 0; r < rows; ++r) {
    for (int64_t idx = s.row_ptr()[r]; idx < s.row_ptr()[r + 1]; ++idx) {
      const int j = s.col_idx()[idx];
      const double v = s.values()[idx];
      for (int c = 0; c < dense_cols; ++c) ref(j, c) += v * b(r, c);
    }
  }
  EXPECT_TRUE(y1 == ref);
}

}  // namespace
}  // namespace graphalign
