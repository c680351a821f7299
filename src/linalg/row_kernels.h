// Row kernels shared by the dense eigensolver and Sinkhorn scaling.
//
// Every kernel performs exactly the floating-point operations of the plain
// sequential loop it replaces, in the same order for each output element, so
// results are bit-identical to that loop at any thread count. Speed comes
// from reading row-major matrices by rows, from keeping several independent
// dependency chains in flight, and from constant-width inner loops: GCC's
// -O2 vectorizer only takes loops with a constant trip count whose pointers
// are declared __restrict (it refuses runtime-count epilogues and alias
// versioning).
#ifndef GRAPHALIGN_LINALG_ROW_KERNELS_H_
#define GRAPHALIGN_LINALG_ROW_KERNELS_H_

#include <algorithm>
#include <cstddef>

namespace graphalign {
namespace row_kernels {

// Width of the constant-trip-count chunks.
constexpr int kBlock = 16;

// out[r] = sum_k rows[r * stride + k] * x[k] for r in [0, count), each sum
// taken strictly in k order from 0.0. Four rows at a time keep four
// independent add chains in flight without reordering any of them.
inline void RowDots(const double* rows, size_t stride, const double* x,
                    int len, int count, double* out) {
  int r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* r0 = rows + r * stride;
    const double* r1 = r0 + stride;
    const double* r2 = r1 + stride;
    const double* r3 = r2 + stride;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int k = 0; k < len; ++k) {
      const double xk = x[k];
      s0 += r0[k] * xk;
      s1 += r1[k] * xk;
      s2 += r2[k] * xk;
      s3 += r3[k] * xk;
    }
    out[r] = s0;
    out[r + 1] = s1;
    out[r + 2] = s2;
    out[r + 3] = s3;
  }
  for (; r < count; ++r) {
    const double* row = rows + r * stride;
    double s = 0.0;
    for (int k = 0; k < len; ++k) s += row[k] * x[k];
    out[r] = s;
  }
}

// y[j] += x[j] * s.
inline void AxpyRow(double* __restrict y, const double* __restrict x,
                    double s, int len) {
  int j = 0;
  for (; j + kBlock <= len; j += kBlock) {
    for (int t = 0; t < kBlock; ++t) y[j + t] += x[j + t] * s;
  }
  for (; j < len; ++j) y[j] += x[j] * s;
}

// y[j] += x0[j] * s0, then += x1[j] * s1, ... : four AxpyRow calls in one
// pass over y.
inline void Axpy4Rows(double* __restrict y, const double* __restrict x0,
                      const double* __restrict x1,
                      const double* __restrict x2,
                      const double* __restrict x3, const double* s, int len) {
  const double s0 = s[0], s1 = s[1], s2 = s[2], s3 = s[3];
  int j = 0;
  for (; j + kBlock <= len; j += kBlock) {
    for (int t = 0; t < kBlock; ++t) {
      double v = y[j + t];
      v += x0[j + t] * s0;
      v += x1[j + t] * s1;
      v += x2[j + t] * s2;
      v += x3[j + t] * s3;
      y[j + t] = v;
    }
  }
  for (; j < len; ++j) {
    double v = y[j];
    v += x0[j] * s0;
    v += x1[j] * s1;
    v += x2[j] * s2;
    v += x3[j] * s3;
    y[j] = v;
  }
}

// y[j] = sum_r rows[r * stride + j] * s[r] over r in [0, count), each sum
// taken strictly in r order from 0.0: the column sums of a row-major block
// (y = block^T s) for the `len` columns starting at `rows`.
inline void ColumnSums(const double* rows, size_t stride, const double* s,
                       int count, double* y, int len) {
  std::fill(y, y + len, 0.0);
  int r = 0;
  for (; r + 4 <= count; r += 4) {
    const double* x0 = rows + r * stride;
    Axpy4Rows(y, x0, x0 + stride, x0 + 2 * stride, x0 + 3 * stride, s + r,
              len);
  }
  for (; r < count; ++r) AxpyRow(y, rows + r * stride, s[r], len);
}

}  // namespace row_kernels
}  // namespace graphalign

#endif  // GRAPHALIGN_LINALG_ROW_KERNELS_H_
