// perfbench: times the user-visible paths of graphalign on four
// generated workloads and checks every output.
//
//   perfbench run --workload W --seed S --seconds T --trace 0|1
//                 --workdir DIR --graphalign PATH
//   perfbench baseline --workload W --seed S --workdir DIR
//
// `run` prints progress lines and, as its last line, one JSON object with
// the run's verdict, metrics, mapping digests and pass time. `baseline`
// (run by perfbench/run.py under GRAPHALIGN_THREADS=1) repeats one pass and
// prints its time and digests, the single-threaded reference behind
// parallel.speedup and the thread-invariance check of traced runs.
//
// Batch workloads follow `graphalign align`: ReadEdgeList twice, then
// AlignRobust (dense) or AlignSparse (--sparse). Traced passes split that
// path into its public stages. serve-mix drives a `graphalign serve`
// daemon; see serve.h.
#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "align/aligner.h"
#include "align/sparse_candidates.h"
#include "assignment/assignment.h"
#include "assignment/sparse_lap.h"
#include "bench_util.h"
#include "common/memory.h"
#include "common/random.h"
#include "common/subprocess.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "linalg/eigen_sym.h"
#include "noise/noise.h"
#include "serve.h"
#include "store/graph_store.h"
#include "store/gst.h"

namespace perfbench {
namespace {

using graphalign::AssignmentMethod;
using graphalign::Graph;
using graphalign::Result;
using graphalign::Status;

// ---------------------------------------------------------------------------
// Workloads.

// A generated pair: a base graph and a one-way-noise copy of it with
// permuted labels. model "er" takes avg_degree; "pl" (powerlaw-cluster)
// takes m and p.
struct PairSpec {
  const char* model;
  int n;
  double avg_degree_or_m;
  double p;
  double noise;
};

struct Workload {
  std::string name;
  std::vector<PairSpec> pairs;
  std::vector<std::string> algos;  // Each algo runs on each pair.
  AssignmentMethod method = AssignmentMethod::kJonkerVolgenant;
  bool sparse = false;
  bool serve = false;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"dense-lap",
       {{"er", 600, 10, 0, 0.05},
        {"pl", 600, 5, 0.5, 0.02},
        {"er", 600, 10, 0, 0.05},
        {"pl", 600, 5, 0.5, 0.02}},
       {"NSD", "IsoRank"},
       AssignmentMethod::kJonkerVolgenant},
      {"spectral-ot",
       {{"er", 500, 10, 0, 0.02}, {"er", 500, 10, 0, 0.02}},
       {"GRASP", "CONE"},
       AssignmentMethod::kNearestNeighbor},
      {"sparse-lsh",
       {{"er", 1024, 10, 0, 0.02}, {"er", 16384, 10, 0, 0.05}},
       {"NSD", "LREA", "REGAL"},
       AssignmentMethod::kJonkerVolgenant,
       /*sparse=*/true},
      // The served pairs; RunServe sizes the pools from the window.
      {"serve-mix",
       {{"er", 200, 10, 0, 0.05}},
       {kServeAlgo},
       AssignmentMethod::kSortGreedy,
       false,
       /*serve=*/true},
  };
  return workloads;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 29);
}

uint64_t NameHash(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

Result<Graph> MakeGraph(const PairSpec& spec, graphalign::Rng* rng) {
  if (std::strcmp(spec.model, "er") == 0) {
    return graphalign::ErdosRenyi(spec.n, spec.avg_degree_or_m / (spec.n - 1),
                                  rng);
  }
  if (std::strcmp(spec.model, "pl") == 0) {
    return graphalign::PowerlawCluster(
        spec.n, static_cast<int>(spec.avg_degree_or_m), spec.p, rng);
  }
  return Status::InvalidArgument(std::string("unknown model ") + spec.model);
}

// `g` as ReadEdgeList returns it after WriteEdgeList: an edge list does not
// carry isolated nodes above the highest endpoint.
Result<Graph> AsWritten(const Graph& g) {
  int n = 0;
  const std::vector<graphalign::Edge> edges = g.Edges();
  for (const graphalign::Edge& e : edges) n = std::max({n, e.u + 1, e.v + 1});
  if (n == g.num_nodes()) return g;
  return Graph::FromEdges(n, edges);
}

Result<Pair> MakePair(const PairSpec& spec, uint64_t seed,
                      const std::string& id, const std::string& dir,
                      bool write) {
  graphalign::Rng rng(seed);
  Result<Graph> base = MakeGraph(spec, &rng);
  GA_RETURN_IF_ERROR(base.status());
  graphalign::NoiseOptions noise;
  noise.type = graphalign::NoiseType::kOneWay;
  noise.level = spec.noise;
  GA_ASSIGN_OR_RETURN(graphalign::AlignmentProblem problem,
                      graphalign::MakeAlignmentProblem(*base, noise, &rng));
  Pair p;
  p.id = id;
  p.g1 = std::move(problem.g1);
  p.g2 = std::move(problem.g2);
  p.truth = std::move(problem.ground_truth);
  p.g1_path = dir + "/" + id + ".g1.txt";
  p.g2_path = dir + "/" + id + ".g2.txt";
  if (write) {
    GA_RETURN_IF_ERROR(graphalign::WriteEdgeList(p.g1, p.g1_path));
    GA_RETURN_IF_ERROR(graphalign::WriteEdgeList(p.g2, p.g2_path));
  }
  return p;
}

// One alignment of the batch list: a pair and an algorithm.
struct Op {
  int pair;
  std::string algo;
  std::string id;
};

std::vector<Op> BatchOps(const Workload& w, const std::vector<Pair>& pairs) {
  std::vector<Op> ops;
  for (size_t i = 0; i < pairs.size(); ++i) {
    for (const std::string& algo : w.algos) {
      ops.push_back({static_cast<int>(i), algo, pairs[i].id + "/" + algo});
    }
  }
  return ops;
}

Result<std::vector<Pair>> SetupBatch(const Workload& w, uint64_t seed,
                                     const std::string& dir) {
  std::vector<Pair> pairs;
  for (size_t i = 0; i < w.pairs.size(); ++i) {
    const PairSpec& spec = w.pairs[i];
    const std::string id = std::string(spec.model) + std::to_string(spec.n) +
                           "-" + std::to_string(i);
    GA_ASSIGN_OR_RETURN(Pair p, MakePair(spec, Mix(seed, NameHash(w.name) + i),
                                         id, dir, /*write=*/true));
    pairs.push_back(std::move(p));
  }
  return pairs;
}

// A served pair: the in-memory graphs are what a client such as
// `graphalign submit` reads back from an edge list and sends. With `write`
// the pair is also written, and the in-process reference loads it from
// there as `graphalign align` does; otherwise the reference aligns the
// in-memory graphs.
Result<Pair> MakeServedPair(const PairSpec& spec, uint64_t seed,
                            const std::string& id, const std::string& dir,
                            bool write) {
  GA_ASSIGN_OR_RETURN(Pair p, MakePair(spec, seed, id, dir, write));
  GA_ASSIGN_OR_RETURN(p.g1, AsWritten(p.g1));
  GA_ASSIGN_OR_RETURN(p.g2, AsWritten(p.g2));
  if (!write) p.g1_path = p.g2_path = "";
  return p;
}

// Serve pools, all pairs like `spec`: `misses` unique pairs, of which the
// first `written` are written to disk, one hit pair and `by_hash` stored
// pairs, both written.
Result<ServeInputs> MakeServeInputs(const PairSpec& spec, uint64_t seed,
                                    const std::string& dir, int misses,
                                    int written, int by_hash) {
  ServeInputs in;
  uint64_t k = 0;
  GA_ASSIGN_OR_RETURN(in.hit,
                      MakeServedPair(spec, Mix(seed, k++), "hit", dir, true));
  for (int i = 0; i < by_hash; ++i) {
    GA_ASSIGN_OR_RETURN(Pair p, MakeServedPair(spec, Mix(seed, k++),
                                               "byhash" + std::to_string(i),
                                               dir, true));
    in.by_hash.push_back(std::move(p));
  }
  for (int i = 0; i < misses; ++i) {
    GA_ASSIGN_OR_RETURN(Pair p, MakeServedPair(spec, Mix(seed, k++),
                                               "miss" + std::to_string(i),
                                               dir, i < written));
    in.miss.push_back(std::move(p));
  }
  return in;
}

// ---------------------------------------------------------------------------
// Running alignments.

struct OpResult {
  bool ok = false;
  std::string error;  // Status text when !ok.
  std::vector<int> mapping;
  int n1 = 0, n2 = 0;
  double seconds = 0.0;
  double objective = 0.0;       // Traced passes only.
  graphalign::LshStats lsh;     // Traced sparse passes only.
};

bool Injective(const Workload& w) {
  return w.sparse || w.method != AssignmentMethod::kNearestNeighbor;
}

// ReadEdgeList of `path`, or `g` itself for a pair that was not written.
Result<Graph> Load(const std::string& path, const Graph& g) {
  if (path.empty()) return g;
  return graphalign::ReadEdgeList(path);
}

// The `graphalign align` path, untraced: load both graphs, then one
// AlignRobust / AlignSparse call.
OpResult RunOp(const Workload& w, const Pair& pair, const std::string& algo) {
  OpResult r;
  const Clock::time_point t0 = Clock::now();
  auto g1 = Load(pair.g1_path, pair.g1);
  auto g2 = Load(pair.g2_path, pair.g2);
  auto aligner = graphalign::MakeAligner(algo);
  Status status = !g1.ok() ? g1.status()
                  : !g2.ok() ? g2.status()
                             : aligner.status();
  if (status.ok()) {
    if (w.sparse) {
      auto out = (*aligner)->AlignSparse(*g1, *g2);
      if (out.ok()) r.mapping = std::move(out->alignment);
      status = out.status();
    } else {
      auto out = (*aligner)->AlignRobust(*g1, *g2, w.method);
      if (out.ok()) r.mapping = std::move(out->alignment);
      status = out.status();
    }
  }
  r.seconds = SecondsSince(t0);
  r.ok = status.ok();
  if (!r.ok) r.error = status.ToString();
  if (g1.ok()) r.n1 = g1->num_nodes();
  if (g2.ok()) r.n2 = g2->num_nodes();
  return r;
}

// The same path split into its public stages, one span each.
OpResult RunOpTraced(const Workload& w, const Pair& pair,
                     const std::string& algo, const std::string& id,
                     Trace* trace) {
  OpResult r;
  const Clock::time_point t0 = Clock::now();
  Trace::Scope op(trace, "op", id);
  Result<Graph> g1 = Graph(), g2 = Graph();
  {
    Trace::Scope s(trace, "graph.load", id);
    g1 = Load(pair.g1_path, pair.g1);
  }
  {
    Trace::Scope s(trace, "graph.load", id);
    g2 = Load(pair.g2_path, pair.g2);
  }
  auto aligner = graphalign::MakeAligner(algo);
  Status status = !g1.ok() ? g1.status()
                  : !g2.ok() ? g2.status()
                             : aligner.status();
  if (status.ok() && w.sparse) {
    // lsh.generate repeats the candidate generation ComputeSparseSimilarity
    // does internally; its time is subtracted to get the scoring time.
    {
      Trace::Scope s(trace, "lsh.generate", id);
      status = graphalign::GenerateLshCandidates(*g1, *g2, {},
                                                 graphalign::Deadline(), &r.lsh)
                   .status();
    }
    Result<graphalign::SparseSimilarityResult> sim =
        Status::Internal("not run");
    if (status.ok()) {
      Trace::Scope s(trace, "align.sparse_similarity", id);
      sim = (*aligner)->ComputeSparseSimilarity(*g1, *g2);
      status = sim.status();
    }
    if (status.ok()) {
      Trace::Scope s(trace, "assignment.lap", id);
      auto lap = graphalign::SparseLapAssign(g1->num_nodes(), g2->num_nodes(),
                                             sim->candidates);
      status = lap.status();
      if (lap.ok()) r.mapping = std::move(*lap);
    }
    if (status.ok()) {
      Trace::Scope s(trace, "assignment.objective", id);
      std::map<std::pair<int, int>, double> best;
      for (const auto& c : sim->candidates) {
        auto [it, inserted] = best.try_emplace({c.row, c.col}, c.similarity);
        if (!inserted) it->second = std::max(it->second, c.similarity);
      }
      for (int u = 0; u < static_cast<int>(r.mapping.size()); ++u) {
        if (r.mapping[u] >= 0) r.objective += best[{u, r.mapping[u]}];
      }
    }
  } else if (status.ok()) {
    // AlignRobust, stage by stage (aligner.cc): a degraded similarity is
    // extracted with SortGreedy, and a kNumerical extraction failure falls
    // back to SortGreedy once.
    Result<graphalign::SimilarityResult> sim = Status::Internal("not run");
    {
      Trace::Scope s(trace, "align.similarity", id);
      sim = (*aligner)->ComputeSimilarityRobust(*g1, *g2);
    }
    status = sim.status();
    if (status.ok()) {
      const AssignmentMethod method =
          sim->degraded ? AssignmentMethod::kSortGreedy : w.method;
      Trace::Scope s(trace, "assignment.lap", id);
      auto lap = graphalign::ExtractAlignment(sim->similarity, method);
      if (!lap.ok() &&
          lap.status().code() == graphalign::StatusCode::kNumerical &&
          method != AssignmentMethod::kSortGreedy) {
        lap = graphalign::ExtractAlignment(sim->similarity,
                                           AssignmentMethod::kSortGreedy);
      }
      status = lap.status();
      if (lap.ok()) r.mapping = std::move(*lap);
    }
    if (status.ok()) {
      Trace::Scope s(trace, "assignment.objective", id);
      r.objective = graphalign::AlignmentScore(sim->similarity, r.mapping);
    }
  }
  r.seconds = SecondsSince(t0);
  r.ok = status.ok();
  if (!r.ok) r.error = status.ToString();
  if (g1.ok()) r.n1 = g1->num_nodes();
  if (g2.ok()) r.n2 = g2->num_nodes();
  return r;
}

std::string Hex(uint64_t x) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, x);
  return buf;
}

// Empty when the result is usable, else the reason it counts as failed.
std::string CheckOp(const Workload& w, const OpResult& r) {
  if (!r.ok) return r.error;
  return CheckMapping(r.mapping, r.n1, r.n2, Injective(w),
                      w.sparse || r.n1 > r.n2);
}

// ---------------------------------------------------------------------------
// Run state shared by the workloads.

struct RunArgs {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string graphalign;
};

struct Verdict {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> failure_causes;

  // Counts one operation; `why` empty means it succeeded. A wrong answer
  // (as opposed to a typed refusal or error) also clears `correct`.
  void Count(const std::string& what, const std::string& why, bool wrong) {
    ++attempted;
    if (why.empty()) return;
    ++failed;
    if (wrong) correct = false;
    if (failure_causes[why]++ < 5) {
      std::printf("failed: %s: %s\n", what.c_str(), why.c_str());
    }
  }

  double OkFraction() const {
    return 1.0 - static_cast<double>(failed) / std::max<int64_t>(1, attempted);
  }
};

void PrintResult(const Verdict& v, const Metrics& m,
                 const std::vector<std::string>& digests, double pass_s) {
  for (const auto& [why, n] : v.failure_causes) {
    std::printf("failure cause x%" PRId64 ": %s\n", n, why.c_str());
  }
  std::string d = "[";
  for (size_t i = 0; i < digests.size(); ++i) {
    d += (i ? ",\"" : "\"") + digests[i] + "\"";
  }
  d += "]";
  std::printf(
      "{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
      ", \"metrics\": %s, \"digests\": %s, \"pass_s\": %.17g}\n",
      v.correct ? "true" : "false", v.attempted, v.failed, m.Json().c_str(),
      d.c_str(), pass_s);
  std::fflush(stdout);
}

// Median of `reps` timed calls of `fn`, in seconds.
double MedianTime(int reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    t.push_back(SecondsSince(t0));
  }
  return Median(t);
}

Status MakeDir(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::Internal("cannot create " + dir);
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Probes of single layers on the workload's own inputs (traced runs only).

// Kernel probes on the exact matrix GRASP builds for the smallest g1 of the
// workload: the full tql2 eigendecomposition and the k=150 Lanczos
// alternative. 9 n^3 is the textbook flop count of tridiagonalization plus
// implicit QL with eigenvectors.
void ProbeLinalg(const Graph& g, Metrics* m) {
  const int n = g.num_nodes();
  const graphalign::DenseMatrix lap = g.NormalizedLaplacianDense();
  const double full_s = MedianTime(1, [&] {
    (void)graphalign::SymmetricEigen(lap);
  });
  const int k = std::min(150, n - 1);
  graphalign::LinearOperator op = [&lap, n](const std::vector<double>& x,
                                            std::vector<double>* y) {
    y->assign(n, 0.0);
    for (int i = 0; i < n; ++i) {
      const double* row = lap.Row(i);
      double acc = 0.0;
      for (int j = 0; j < n; ++j) acc += row[j] * x[j];
      (*y)[i] = acc;
    }
  };
  const double lanczos_s = MedianTime(1, [&] {
    (void)graphalign::LanczosEigen(op, n, k,
                                   graphalign::SpectrumEnd::kSmallest);
  });
  m->Set("linalg.eigen_full_s", full_s, "s");
  m->Set("linalg.eigen_lanczos_s", lanczos_s, "s");
  m->Set("linalg.eigen_full_gflops",
         9.0 * n * n * static_cast<double>(n) / full_s / 1e9, "GFLOP/s");
  m->Set("linalg.tql2_gflop", 9.0 * n * n * static_cast<double>(n) / 1e9,
         "GFLOP");
}

// RunIsolated on a no-op while the workload's graphs are resident.
void ProbeFork(Metrics* m) {
  std::vector<double> ms;
  for (int i = 0; i < 11; ++i) {
    const Clock::time_point t0 = Clock::now();
    auto r = graphalign::RunIsolated([](int) { return 0; });
    if (r.ok()) ms.push_back(1e3 * SecondsSince(t0));
  }
  m->Set("subprocess.fork_ms", Median(ms), "ms");
}

// Cold GST open (mmap plus full CRC and CSR verification) of `g` after
// GraphStore::Put wrote it. GraphStore::Get memoizes opened graphs, so the
// probe opens the published file directly, as a fresh daemon's first Get
// does.
void ProbeStore(const Graph& g, const std::string& dir, Metrics* m) {
  double ms = 0.0;
  auto store = graphalign::GraphStore::Open(dir);
  if (store.ok()) {
    auto hash = (*store)->Put(g);
    if (hash.ok()) {
      const std::string path =
          dir + "/" + graphalign::GraphStore::HashName(*hash) + ".gst";
      ms = 1e3 * MedianTime(7, [&] { (void)graphalign::OpenGstFile(path); });
    }
  }
  m->Set("store.open_ms", ms, "ms");
}

void SetLshMetrics(const graphalign::LshStats& lsh, int64_t rows, double s,
                   Metrics* m) {
  m->Set("lsh.generate_s", s, "s");
  m->Set("lsh.candidates", static_cast<double>(lsh.candidates), "count");
  m->Set("lsh.rows", static_cast<double>(rows), "count");
  m->Set("lsh.candidates_per_row",
         rows > 0 ? static_cast<double>(lsh.candidates) / rows : 0.0, "count");
  m->Set("lsh.empty_rows", lsh.rows_without_candidates, "count");
}

// Off the sparse path: SparseLapAssign on the candidates `--sparse` NSD
// scores for `pairs`, the work `graphalign align --sparse` would hand the
// sparse LAP on these graphs.
void ProbeSparseLap(const std::vector<const Pair*>& pairs, Verdict* v,
                    Metrics* m) {
  auto aligner = graphalign::MakeAligner("NSD");
  double s = 0.0;
  int64_t rows = 0, matched = 0;
  for (const Pair* p : pairs) {
    const int n1 = p->g1.num_nodes(), n2 = p->g2.num_nodes();
    Result<graphalign::SparseSimilarityResult> sim =
        !aligner.ok() ? Result<graphalign::SparseSimilarityResult>(
                            aligner.status())
                      : (*aligner)->ComputeSparseSimilarity(p->g1, p->g2);
    std::string why = sim.status().ok() ? "" : sim.status().ToString();
    if (why.empty()) {
      const Clock::time_point t0 = Clock::now();
      auto lap = graphalign::SparseLapAssign(n1, n2, sim->candidates);
      s += SecondsSince(t0);
      why = lap.ok() ? CheckMapping(*lap, n1, n2, true, true)
                     : lap.status().ToString();
      if (lap.ok()) {
        rows += n1;
        for (int x : *lap) matched += x >= 0;
      }
    }
    v->Count(p->id + " (sparse LAP probe)", why, false);
  }
  m->Set("sparse_lap.s", s, "s");
  m->Set("sparse_lap.matched_frac",
         rows > 0 ? static_cast<double>(matched) / rows : 0.0, "fraction");
}

// Stage metrics of the traced pass over [t_begin, t_end] on the trace clock,
// against the untraced time `base_s` of the same pass. On the sparse path
// the similarity stage is ComputeSparseSimilarity minus the candidate
// generation it repeats.
void SetStageMetrics(const Trace& trace, bool sparse, double t_begin,
                     double t_end, double base_s, Metrics* m) {
  const std::map<std::string, double> self = trace.SelfSeconds();
  auto self_of = [&self](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double traced_s = t_end - t_begin;
  const double lap_s = self_of("assignment.lap");
  m->Set("graph.load_s", self_of("graph.load"), "s");
  m->Set("align.similarity_s",
         sparse ? self_of("align.sparse_similarity") - self_of("lsh.generate")
                : self_of("align.similarity"),
         "s");
  m->Set("assignment.lap_s", lap_s, "s");
  m->Set("assignment.share", lap_s / traced_s, "fraction");
  m->Set("sparse_lap.share", sparse ? lap_s / traced_s : 0.0, "fraction");
  m->Set("trace.run_s", traced_s, "s");
  m->Set("trace.base_run_s", base_s, "s");
  m->Set("trace.overhead_share", traced_s / base_s - 1.0, "fraction");
  const double covered = trace.Covered(
      {"graph.load", "align.similarity", "align.sparse_similarity",
       "lsh.generate", "assignment.lap", "assignment.objective"},
      t_begin, t_end);
  m->Set("trace.unaccounted_share", 1.0 - covered / traced_s, "fraction");
}

// ---------------------------------------------------------------------------
// The served path: session metrics shared by serve-mix and the serve probe
// of the batch workloads.

struct ServeCheck {
  std::vector<uint64_t> miss_ref;  // In-process digest per miss pool entry.
  uint64_t hit_ref = 0;
  std::vector<uint64_t> by_hash_ref;
  std::vector<double> miss_ref_ms;  // In-process load + align per miss.
  double pass_s = 0.0;              // Wall time of the whole reference.
  double objective = 0.0;           // Summed over the list (traced only).
  int64_t matched = 0, rows = 0;    // Over the list.
};

// In-process reference of the served alignments with the served method:
// the `graphalign align` path on the written pairs, AlignRobust on the
// in-memory graphs of the others. It covers the first `misses` miss pairs,
// the hit pair and the by-hash pairs.
ServeCheck ServeReference(const ServeInputs& in, int misses, Trace* trace,
                          Verdict* v) {
  Workload w;
  w.method = AssignmentMethod::kSortGreedy;
  ServeCheck c;
  const Clock::time_point t0 = Clock::now();
  auto ref = [&](const Pair& p) {
    OpResult r = trace != nullptr && trace->on()
                     ? RunOpTraced(w, p, kServeAlgo, p.id, trace)
                     : RunOp(w, p, kServeAlgo);
    const std::string why = CheckOp(w, r);
    if (!why.empty()) v->Count("in-process " + p.id, why, r.ok);
    return r;
  };
  for (int i = 0; i < misses; ++i) {
    const OpResult r = ref(in.miss[i]);
    c.miss_ref.push_back(MappingDigest(r.mapping));
    c.miss_ref_ms.push_back(1e3 * r.seconds);
    c.objective += r.objective;
    c.rows += r.n1;
    for (int x : r.mapping) c.matched += x >= 0;
  }
  c.hit_ref = MappingDigest(ref(in.hit).mapping);
  for (const Pair& p : in.by_hash) {
    c.by_hash_ref.push_back(MappingDigest(ref(p).mapping));
  }
  c.pass_s = SecondsSince(t0);
  return c;
}

// Checks every sample against the in-process reference and counts it.
// Returns the mean node correctness of the served miss mappings.
double CheckSamples(const ServeInputs& in, const SessionResult& s,
                    const ServeCheck& c, Verdict* v) {
  double acc = 0.0;
  int n_acc = 0;
  for (const Sample& x : s.samples) {
    const std::string what = std::string(KindName(x.kind)) +
                             (x.http ? "@http #" : " #") +
                             std::to_string(x.input);
    if (!x.ok) {
      v->Count(what, x.code + ": " + x.message, false);
      continue;
    }
    if (x.kind == Kind::kPut) {
      const bool same = x.put_hash == in.miss[x.input].g1.ContentHash();
      v->Count(what, same ? "" : "stored hash differs from the graph's", !same);
      continue;
    }
    const Pair& p = x.kind == Kind::kMiss ? in.miss[x.input]
                    : x.kind == Kind::kHit
                        ? in.hit
                        : in.by_hash[x.input % in.by_hash.size()];
    std::string why =
        CheckMapping(x.mapping, p.g1.num_nodes(), p.g2.num_nodes(), true,
                     p.g1.num_nodes() > p.g2.num_nodes());
    const uint64_t ref =
        x.kind == Kind::kMiss  ? c.miss_ref[x.input]
        : x.kind == Kind::kHit ? c.hit_ref
                               : c.by_hash_ref[x.input % c.by_hash_ref.size()];
    if (why.empty() && MappingDigest(x.mapping) != ref) {
      why = "served mapping differs from the in-process mapping";
    }
    v->Count(what, why, !why.empty());
    if (why.empty() && x.kind == Kind::kMiss) {
      acc += NodeCorrectness(x.mapping, p.truth);
      ++n_acc;
    }
  }
  return n_acc > 0 ? acc / n_acc : 0.0;
}

// p50 of the samples of one kind and transport (0 when there are none).
double KindP50(const SessionResult& s, Kind kind, bool http) {
  std::vector<double> ms;
  for (const Sample& x : s.samples) {
    if (x.kind == kind && x.http == http) ms.push_back(x.ms());
  }
  return Median(ms);
}

void SetServeLayerMetrics(const SessionResult& s, const ServeCheck& c,
                          Metrics* m) {
  m->Set("serve.miss_p50_ms", KindP50(s, Kind::kMiss, false), "ms");
  m->Set("serve.hit_p50_ms", KindP50(s, Kind::kHit, false), "ms");
  m->Set("serve.put_p50_ms", KindP50(s, Kind::kPut, false), "ms");
  m->Set("serve.byhash_p50_ms", KindP50(s, Kind::kByHash, false), "ms");
  m->Set("server.overhead_ms",
         KindP50(s, Kind::kMiss, false) - Median(c.miss_ref_ms), "ms");
  m->Set("gateway.overhead_ms",
         KindP50(s, Kind::kHit, true) - KindP50(s, Kind::kHit, false), "ms");
  const double lookups = static_cast<double>(s.cache_hits + s.cache_misses);
  m->Set("server.cache_lookups", lookups, "count");
  m->Set("server.cache_hit_ratio", lookups > 0 ? s.cache_hits / lookups : 0.0,
         "fraction");
  m->Set("server.refused", static_cast<double>(s.refused), "count");
}

// A short served session on pairs shaped like `spec`, for the serve layer
// metrics of batch workloads: 32 requests, eight of each kind.
Status ServeProbe(const RunArgs& a, const PairSpec& spec, Verdict* v,
                  Metrics* m) {
  const std::string dir = a.workdir + "/probe";
  GA_RETURN_IF_ERROR(MakeDir(dir));
  GA_ASSIGN_OR_RETURN(ServeInputs in,
                      MakeServeInputs(spec, Mix(a.seed, 77), dir, 8, 8, 2));
  GA_ASSIGN_OR_RETURN(Daemon daemon, Daemon::Start(a.graphalign, dir, 2));
  for (const std::string& f : WarmDaemon(daemon, in)) {
    v->Count("setup", f, false);
  }
  SessionResult s = RunSession(daemon, in, 1, 16, 0.0, 2);
  daemon.Stop();
  ServeCheck c = ServeReference(in, 8, nullptr, v);
  CheckSamples(in, s, c, v);
  SetServeLayerMetrics(s, c, m);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Batch workloads.

// One untraced pass over the alignment list; returns its wall time.
double UntracedPass(const Workload& w, const std::vector<Pair>& pairs,
                    const std::vector<Op>& ops,
                    std::vector<OpResult>* results) {
  const Clock::time_point t0 = Clock::now();
  results->clear();
  for (const Op& op : ops) {
    results->push_back(RunOp(w, pairs[op.pair], op.algo));
  }
  return SecondsSince(t0);
}

std::vector<std::string> Digests(const std::vector<OpResult>& results) {
  std::vector<std::string> digests;
  for (const OpResult& r : results) {
    digests.push_back(Hex(MappingDigest(r.mapping)));
  }
  return digests;
}

// Fewest timed passes of a run, whatever the window.
constexpr size_t kMinPasses = 5;

// End-to-end metrics. Timed passes repeat while another fits in the window
// (at least kMinPasses); every pass must reproduce the first one's mappings.
// An alignment's time is its trimmed mean over the passes, and run_s, the
// time to finish the list, is the sum of those. A shared 4-core VM can
// switch between a fast and a ~1.5x slower speed every few seconds; a
// median of such samples jumps between the two, where a trimmed mean
// follows the share of time spent in each. The single-threaded
// reference pass follows, outside the window.
void TimedBatch(const RunArgs& a, const Workload& w,
                const std::vector<Pair>& pairs, const std::vector<Op>& ops,
                double setup_s, Verdict* v) {
  std::vector<double> pass_s;
  std::vector<std::vector<double>> op_s(ops.size());
  std::vector<OpResult> first, results;
  const Clock::time_point window = Clock::now();
  do {
    pass_s.push_back(UntracedPass(w, pairs, ops, &results));
    for (size_t i = 0; i < ops.size(); ++i) {
      op_s[i].push_back(results[i].seconds);
      std::string why = CheckOp(w, results[i]);
      if (why.empty() && !first.empty() &&
          results[i].mapping != first[i].mapping) {
        why = "mapping differs between passes";
      }
      v->Count(ops[i].id, why, results[i].ok && !why.empty());
    }
    if (first.empty()) first = results;
  } while (pass_s.size() < kMinPasses ||
           SecondsSince(window) + Median(pass_s) <= a.seconds);
  std::printf("passes: %zu, pass_s median %.3f, range %.3f..%.3f\n",
              pass_s.size(), Median(pass_s),
              *std::min_element(pass_s.begin(), pass_s.end()),
              *std::max_element(pass_s.begin(), pass_s.end()));

  // Each alignment again in a forked child (MeasurePeakMemoryMb), where
  // ParallelFor runs inline: the single-threaded mapping the timed passes
  // must reproduce.
  double peak_mb = 0.0;
  const std::string digest_path = a.workdir + "/ref.digest";
  for (size_t i = 0; i < ops.size(); ++i) {
    std::remove(digest_path.c_str());
    // The child's VmHWM starts at the parent's resident set: return the
    // heap the timed passes freed so it does not count.
    malloc_trim(0);
    auto mb = graphalign::MeasurePeakMemoryMb([&] {
      OpResult r = RunOp(w, pairs[ops[i].pair], ops[i].algo);
      std::ofstream(digest_path) << Hex(MappingDigest(r.mapping));
    });
    if (!mb.ok()) {
      v->Count(ops[i].id + " (reference)", mb.status().ToString(), false);
      continue;
    }
    std::string ref;
    std::ifstream(digest_path) >> ref;
    peak_mb = std::max(peak_mb, *mb);
    const bool same = ref == Hex(MappingDigest(first[i].mapping));
    v->Count(ops[i].id + " (reference)",
             same ? "" : "mapping differs from the single-threaded run", !same);
  }

  // Accuracy is node-weighted over the list: correctly mapped nodes over
  // all g1 nodes of all alignments.
  std::vector<double> op_ms;
  double correct_nodes = 0.0, nodes = 0.0, run_s = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    run_s += TrimmedMean(op_s[i]);
    op_ms.push_back(1e3 * TrimmedMean(op_s[i]));
    const std::vector<int>& truth = pairs[ops[i].pair].truth;
    const double acc = NodeCorrectness(first[i].mapping, truth);
    correct_nodes += acc * truth.size();
    nodes += truth.size();
    std::printf("%s: %.1f ms (range %.1f..%.1f), accuracy %.4f\n",
                ops[i].id.c_str(), op_ms.back(),
                1e3 * *std::min_element(op_s[i].begin(), op_s[i].end()),
                1e3 * *std::max_element(op_s[i].begin(), op_s[i].end()), acc);
  }
  int beyond = 0;
  double pct = 0.0;
  const double tail = Tail(op_ms, &beyond, &pct);
  std::printf("latency tail: p%.1f of %zu alignments (%d beyond)\n", pct,
              op_ms.size(), beyond);
  Metrics m;
  m.Set("setup_s", setup_s, "s");
  m.Set("run_s", run_s, "s");
  m.Set("accuracy", correct_nodes / nodes, "fraction");
  m.Set("peak_rss_mb", peak_mb, "MiB");
  m.Set("latency_p50_ms", Median(op_ms), "ms");
  m.Set("latency_tail_ms", tail, "ms");
  m.Set("throughput_per_s", ops.size() / run_s, "1/s");
  m.Set("ok_frac", v->OkFraction(), "fraction");
  PrintResult(*v, m, Digests(first), run_s);
}

// Per-layer metrics: the traced pass between two untraced ones, whose mean
// is the base (bracketing cancels a drift of the machine's speed), then the
// probes.
Status TracedBatch(const RunArgs& a, const Workload& w,
                   const std::vector<Pair>& pairs, const std::vector<Op>& ops,
                   Verdict* v) {
  std::vector<OpResult> base_results, results;
  double base_s = UntracedPass(w, pairs, ops, &base_results);
  Trace trace(true);
  const double t_begin = trace.Now();
  for (const Op& op : ops) {
    results.push_back(RunOpTraced(w, pairs[op.pair], op.algo, op.id, &trace));
  }
  const double t_end = trace.Now();
  base_s = 0.5 * (base_s + UntracedPass(w, pairs, ops, &base_results));
  graphalign::LshStats lsh;
  int64_t rows = 0, matched = 0;
  double objective = 0.0;
  for (size_t i = 0; i < ops.size(); ++i) {
    const std::string why = CheckOp(w, results[i]);
    v->Count(ops[i].id, why, results[i].ok && !why.empty());
    const bool same = results[i].mapping == base_results[i].mapping;
    v->Count(ops[i].id + " (untraced)",
             same ? "" : "traced mapping differs from the untraced one", !same);
    lsh.candidates += results[i].lsh.candidates;
    lsh.rows_without_candidates += results[i].lsh.rows_without_candidates;
    rows += results[i].n1;
    objective += results[i].objective;
    for (int x : results[i].mapping) matched += x >= 0;
  }
  Metrics m;
  SetStageMetrics(trace, w.sparse, t_begin, t_end, base_s, &m);
  m.Set("trace.spans", static_cast<double>(trace.spans().size()), "count");
  m.Set("assignment.objective", objective, "score");
  m.Set("assignment.matched_frac",
        rows > 0 ? static_cast<double>(matched) / rows : 0.0, "fraction");
  if (w.sparse) {
    SetLshMetrics(lsh, rows, trace.SelfSeconds()["lsh.generate"], &m);
    m.Set("sparse_lap.s", trace.SelfSeconds()["assignment.lap"], "s");
    m.Set("sparse_lap.matched_frac",
          rows > 0 ? static_cast<double>(matched) / rows : 0.0, "fraction");
  } else {
    // Off the dense path: what candidate generation would cost on these
    // pairs (one call per pair).
    graphalign::LshStats probe;
    int64_t probe_rows = 0;
    const double s = MedianTime(1, [&] {
      for (const Pair& p : pairs) {
        graphalign::LshStats one;
        (void)graphalign::GenerateLshCandidates(p.g1, p.g2, {},
                                                graphalign::Deadline(), &one);
        probe.candidates += one.candidates;
        probe.rows_without_candidates += one.rows_without_candidates;
        probe_rows += p.g1.num_nodes();
      }
    });
    SetLshMetrics(probe, probe_rows, s, &m);
    std::vector<const Pair*> probed;
    for (const Pair& p : pairs) probed.push_back(&p);
    ProbeSparseLap(probed, v, &m);
  }
  size_t smallest = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (w.pairs[i].n < w.pairs[smallest].n) smallest = i;
  }
  ProbeLinalg(pairs[smallest].g1, &m);
  ProbeFork(&m);
  ProbeStore(pairs[smallest].g1, a.workdir + "/gst", &m);
  GA_RETURN_IF_ERROR(ServeProbe(a, w.pairs[smallest], v, &m));
  trace.WriteJson(a.workdir + "/../trace-" + w.name + ".json");
  PrintResult(*v, m, Digests(results), base_s);
  return Status::Ok();
}

int RunBatch(const RunArgs& a, const Workload& w) {
  // Setup: generate, perturb and write the inputs; 31 times, median.
  std::vector<double> setup_s;
  std::vector<Pair> pairs;
  for (int rep = 0; rep < (a.mode == "run" && !a.trace ? 31 : 1); ++rep) {
    const Clock::time_point t0 = Clock::now();
    auto made = SetupBatch(w, a.seed, a.workdir);
    if (!made.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    pairs = std::move(*made);
  }
  const std::vector<Op> ops = BatchOps(w, pairs);
  Verdict v;
  if (a.mode == "baseline") {
    std::vector<OpResult> results;
    const double pass_s = UntracedPass(w, pairs, ops, &results);
    PrintResult(v, Metrics(), Digests(results), pass_s);
  } else if (!a.trace) {
    TimedBatch(a, w, pairs, ops, Median(setup_s), &v);
  } else {
    Status s = TracedBatch(a, w, pairs, ops, &v);
    if (!s.ok()) {
      std::fprintf(stderr, "traced run failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve-mix.

constexpr int kServeClients = 4;
constexpr int kServeRound = 64;
// Misses per second of the window the pools are sized for (1000 requests/s).
constexpr int kServeMissesPerSecond = 250;
constexpr int kServeByHash = 4;
constexpr int kServeReferenceList = 128;  // In-process pass of traced runs.

int RunServe(const RunArgs& a, const Workload& w) {
  Verdict v;
  Metrics m;
  const PairSpec& spec = w.pairs[0];
  // Setup: generate and write the pools, start the daemon, import the
  // by-hash graphs into its store and warm its cache; three times, median.
  std::vector<double> setup_s;
  ServeInputs in;
  Daemon daemon;
  const bool with_daemon = a.mode == "run";
  for (int rep = 0; rep < (with_daemon && !a.trace ? 3 : 1); ++rep) {
    daemon.Stop();
    const std::string dir = a.workdir + "/s" + std::to_string(rep);
    const Clock::time_point t0 = Clock::now();
    Status s = MakeDir(dir);
    const int pool = static_cast<int>(kServeMissesPerSecond * a.seconds);
    auto made = s.ok() ? MakeServeInputs(spec, a.seed, dir, pool,
                                         kServeReferenceList,
                                         kServeByHash)
                       : Result<ServeInputs>(s);
    if (made.ok()) in = std::move(*made);
    s = made.status();
    if (s.ok() && with_daemon) {
      auto started = Daemon::Start(a.graphalign, dir, 2);
      s = started.status();
      if (s.ok()) {
        daemon = std::move(*started);
        for (const std::string& f : WarmDaemon(daemon, in)) {
          v.Count("setup", f, false);
        }
      }
    }
    if (!s.ok()) {
      std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }

  if (a.mode == "baseline") {
    ServeCheck c = ServeReference(in, kServeReferenceList, nullptr, &v);
    std::vector<std::string> digests;
    for (uint64_t d : c.miss_ref) digests.push_back(Hex(d));
    PrintResult(v, m, digests, c.pass_s);
    return 0;
  }

  SessionResult s = RunSession(daemon, in, kServeClients, kServeRound,
                               a.trace ? 0.5 * a.seconds : a.seconds, 3);
  const double daemon_mb = daemon.PeakRssMb();
  daemon.Stop();
  int misses = 0;
  for (const Sample& x : s.samples) {
    if (x.kind == Kind::kMiss) misses = std::max(misses, x.input + 1);
  }
  std::printf("rounds: %zu, requests: %zu, misses: %d\n",
              s.round_seconds.size(), s.samples.size(), misses);

  if (!a.trace) {
    ServeCheck c = ServeReference(in, misses, nullptr, &v);
    const double accuracy = CheckSamples(in, s, c, &v);
    std::vector<double> ms;
    for (const Sample& x : s.samples) ms.push_back(x.ms());
    int beyond = 0;
    double pct = 0.0;
    const double tail = Tail(ms, &beyond, &pct);
    std::printf("latency tail: p%.1f of %zu requests (%d beyond)\n", pct,
                ms.size(), beyond);
    for (Kind kind : {Kind::kMiss, Kind::kHit, Kind::kPut, Kind::kByHash}) {
      std::printf("%s p50: %.3f ms over GAF1, %.3f ms over HTTP\n",
                  KindName(kind), KindP50(s, kind, false),
                  KindP50(s, kind, true));
    }
    m.Set("setup_s", Median(setup_s), "s");
    m.Set("run_s", Median(s.round_seconds), "s");
    m.Set("accuracy", accuracy, "fraction");
    m.Set("peak_rss_mb", daemon_mb, "MiB");
    m.Set("latency_p50_ms", Median(ms), "ms");
    m.Set("latency_tail_ms", tail, "ms");
    m.Set("throughput_per_s", s.samples.size() / s.wall_seconds, "1/s");
    m.Set("ok_frac", v.OkFraction(), "fraction");
    PrintResult(v, m, {}, s.wall_seconds);
    return 0;
  }

  // Traced run: the in-process reference list traced, between two untraced
  // runs of it (the base), then every served miss checked against the
  // in-process path.
  const int list = std::min(kServeReferenceList, misses);
  Verdict scratch;  // The same pairs are checked and counted below.
  double base_s = ServeReference(in, list, nullptr, &scratch).pass_s;
  Trace trace(true);
  const double t_begin = trace.Now();
  ServeCheck traced = ServeReference(in, list, &trace, &scratch);
  const double t_end = trace.Now();
  base_s = 0.5 * (base_s + ServeReference(in, list, nullptr, &scratch).pass_s);
  ServeCheck c = ServeReference(in, misses, nullptr, &v);
  CheckSamples(in, s, c, &v);
  std::vector<std::string> digests;
  for (int i = 0; i < list; ++i) {
    digests.push_back(Hex(traced.miss_ref[i]));
    const bool same = traced.miss_ref[i] == c.miss_ref[i];
    v.Count(in.miss[i].id + " (traced)",
            same ? "" : "traced mapping differs from the untraced one", !same);
  }
  SetStageMetrics(trace, false, t_begin, t_end, base_s, &m);
  // The served requests, after the in-process spans on the trace clock.
  for (const Sample& x : s.samples) {
    const std::string name =
        std::string("serve.") + KindName(x.kind) + (x.http ? ".http" : "");
    trace.Add(name, std::to_string(x.input), t_end + x.start, t_end + x.end);
  }
  SetServeLayerMetrics(s, c, &m);
  m.Set("assignment.objective", traced.objective, "score");
  m.Set("assignment.matched_frac",
        traced.rows > 0 ? static_cast<double>(traced.matched) / traced.rows
                        : 0.0,
        "fraction");
  // Candidate generation probe on the hit pair.
  {
    graphalign::LshStats probe;
    const double secs = MedianTime(1, [&] {
      (void)graphalign::GenerateLshCandidates(in.hit.g1, in.hit.g2, {},
                                              graphalign::Deadline(), &probe);
    });
    SetLshMetrics(probe, in.hit.g1.num_nodes(), secs, &m);
  }
  ProbeSparseLap({&in.hit}, &v, &m);
  m.Set("trace.spans", static_cast<double>(trace.spans().size()), "count");
  ProbeLinalg(in.hit.g1, &m);
  ProbeFork(&m);
  ProbeStore(in.hit.g1, a.workdir + "/gst", &m);
  trace.WriteJson(a.workdir + "/../trace-" + w.name + ".json");
  PrintResult(v, m, digests, base_s);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench run|baseline --workload W --seed S "
               "[--seconds T] [--trace 0|1] --workdir DIR "
               "[--graphalign PATH]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return Usage();
  RunArgs a;
  a.mode = argv[1];
  if (a.mode != "run" && a.mode != "baseline") return Usage();
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], val = argv[i + 1];
    if (k == "--workload") a.workload = val;
    else if (k == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(val.c_str());
    else if (k == "--trace") a.trace = val == "1";
    else if (k == "--workdir") a.workdir = val;
    else if (k == "--graphalign") a.graphalign = val;
    else return Usage();
  }
  if (a.workdir.empty() || MakeDir(a.workdir).ok() == false) return Usage();
  for (const Workload& w : Workloads()) {
    if (w.name != a.workload) continue;
    return w.serve ? RunServe(a, w) : RunBatch(a, w);
  }
  std::fprintf(stderr, "unknown workload: %s\n", a.workload.c_str());
  return 2;
}
