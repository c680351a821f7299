// Inputs on which the dense eigensolver and Sinkhorn are checked against
// oracles (linalg_test) and against the sequential textbook loops
// (parallel_test): the degenerate spectra GRASP meets on real graphs
// (repeated and zero eigenvalues, disconnected components), a size that is
// not a multiple of the kernels' 16-wide blocks, and the smallest sizes.
#ifndef GRAPHALIGN_TESTS_EIGEN_INPUTS_H_
#define GRAPHALIGN_TESTS_EIGEN_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "linalg/dense.h"

namespace graphalign {

struct NamedMatrix {
  std::string name;
  DenseMatrix a;
};

inline DenseMatrix LaplacianOf(int n, const std::vector<Edge>& edges) {
  return Graph::FromEdges(n, edges).value().NormalizedLaplacianDense();
}

inline DenseMatrix RandomSymmetric(int n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) a(i, j) = a(j, i) = rng.Normal();
  }
  return a;
}

inline std::vector<NamedMatrix> DegenerateEigenInputs() {
  std::vector<NamedMatrix> out;
  {
    Rng rng(257);
    out.push_back({"er257", ErdosRenyi(257, 10.0 / 256, &rng)
                                .value()
                                .NormalizedLaplacianDense()});
  }
  {
    // Two components plus an isolated node: the eigenvalue 0 is repeated.
    std::vector<Edge> edges;
    for (int v = 0; v < 40; ++v) edges.push_back({v, (v + 1) % 40});
    for (int v = 0; v < 40; v += 7) edges.push_back({v, (v + 13) % 40});
    for (int v = 40; v < 79; ++v) edges.push_back({v, v + 1});
    out.push_back({"disconnected_isolated", LaplacianOf(81, edges)});
  }
  {
    // Complete graph K33: eigenvalue 33/32 with multiplicity 32.
    std::vector<Edge> edges;
    for (int u = 0; u < 33; ++u) {
      for (int v = u + 1; v < 33; ++v) edges.push_back({u, v});
    }
    out.push_back({"complete33", LaplacianOf(33, edges)});
  }
  {
    std::vector<Edge> edges;
    for (int v = 0; v + 1 < 64; ++v) edges.push_back({v, v + 1});
    out.push_back({"path64", LaplacianOf(64, edges)});
  }
  for (int n = 1; n <= 3; ++n) {
    out.push_back({"random" + std::to_string(n), RandomSymmetric(n, 40 + n)});
  }
  return out;
}

// The cost CONE hands to SinkhornTransport: squared Euclidean distances
// between two embeddings, scaled to mean 1.
inline DenseMatrix ConeShapedCost(int n1, int n2, int dim, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix y1(n1, dim), y2(n2, dim);
  for (int i = 0; i < n1; ++i) {
    for (int k = 0; k < dim; ++k) y1(i, k) = rng.Normal();
  }
  for (int i = 0; i < n2; ++i) {
    for (int k = 0; k < dim; ++k) y2(i, k) = rng.Normal();
  }
  DenseMatrix cost(n1, n2);
  for (int i = 0; i < n1; ++i) {
    for (int j = 0; j < n2; ++j) {
      double s = 0.0;
      for (int k = 0; k < dim; ++k) {
        const double diff = y1(i, k) - y2(j, k);
        s += diff * diff;
      }
      cost(i, j) = s;
    }
  }
  cost.Scale(1.0 / (cost.Sum() / (static_cast<double>(n1) * n2)));
  return cost;
}

}  // namespace graphalign

#endif  // GRAPHALIGN_TESTS_EIGEN_INPUTS_H_
