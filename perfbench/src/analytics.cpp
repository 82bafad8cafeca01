// Workload `analytics`: the paper's trio (graph analytics, database
// operations, machine learning) as one closed-loop job on a hypersparse
// R-MAT graph, run at nproc and at nproc/2 threads (and, in the traced
// run, at 1 thread for the per-kernel speedups).
//
// One job, in order (each step one public call, one span):
//   array.ingest       string-keyed AssocArray construction from edge keys
//   db.planned_batch   keyed queries through the §IV-prechecked planner,
//                      a quarter of them with disjoint keys (skipped)
//   sparse.build       Matrix::from_triples of the edge list
//   sparse.transpose   Gᵀ
//   sparse.ewise_add   U = G ⊕ Gᵀ
//   sparse.mxm         unmasked G·Gᵀ (the large output)
//   sparse.mxm_masked  U·U masked by U (triangle-style), then
//   sparse.reduce      reduce_rows of it
//   hypergraph.bfs     bfs_array from a fixed set of sources on U
//   dnn.infer          a RadiX-Net infer_standard pass
//
// Correctness: every job's outputs are memcmp-equal to the first (warm-up,
// nproc-thread) job's, so jobs at every thread count agree byte for byte; BFS
// levels equal bfs_queue's; infer_standard equals infer_semilink.

#include <map>
#include <thread>

#include "analytics.hpp"
#include "array/assoc_array.hpp"
#include "db/planner.hpp"
#include "dnn/inference.hpp"
#include "dnn/radixnet.hpp"
#include "hypergraph/bfs.hpp"
#include "semiring/all.hpp"
#include "sparse/ewise.hpp"
#include "sparse/masked.hpp"
#include "sparse/mxm.hpp"
#include "sparse/reduce.hpp"
#include "sparse/transpose.hpp"
#include "util/generators.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace hyperspace;
using S = semiring::PlusTimes<double>;
using Add = semiring::AddMonoidOf<S>;
using Mat = sparse::Matrix<double>;
using Assoc = array::AssocArray<S>;
using sparse::Index;

// Input sizes (fixed; the seed picks the graph, keys and sources).
constexpr int kScale = 12;            // 4096 vertices
constexpr double kEdgeFactor = 16;    // 65536 edges
constexpr int kBatchQueries = 128;    // planned_batch size
constexpr int kSeedsPerQuery = 8;     // lhs keys per query
constexpr int kBfsSources = 8;
constexpr Index kNeurons = 4096;      // RadiX-Net width
constexpr int kLayers = 12;
constexpr Index kFeatureRows = 64;

struct Inputs {
  Index n = 0;
  std::vector<array::Key> k1, k2;
  std::vector<double> v;
  std::vector<array::BatchQuery<S>> queries;
  std::vector<sparse::Triple<double>> triples;
  std::vector<Index> sources;
  dnn::Network net;
  dnn::DenseBatch features;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.n = Index{1} << kScale;
  const auto edges = util::rmat_edges(
      {.scale = kScale, .edge_factor = kEdgeFactor, .seed = seed});
  auto key = [](std::int64_t v) { return array::Key("v" + std::to_string(v)); };
  in.k1.reserve(edges.size());
  in.k2.reserve(edges.size());
  in.v.reserve(edges.size());
  in.triples.reserve(edges.size());
  for (const auto& e : edges) {
    in.k1.push_back(key(e.src));
    in.k2.push_back(key(e.dst));
    in.v.push_back(e.weight);
    in.triples.push_back({e.src, e.dst, e.weight});
  }
  util::Xoshiro256 rng(seed ^ 0xA11CEull);
  auto pick_src = [&] {
    return edges[rng.bounded(edges.size())].src;
  };
  for (int q = 0; q < kBatchQueries; ++q) {
    const bool disjoint = q % 4 == 3;  // §IV precheck skips these
    std::vector<array::Key> r, c;
    std::vector<double> w;
    for (int s = 0; s < kSeedsPerQuery; ++s) {
      r.emplace_back("q" + std::to_string(q));
      c.push_back(disjoint ? array::Key("absent" + std::to_string(s))
                           : key(pick_src()));
      w.push_back(1.0 + static_cast<double>(s));
    }
    array::BatchQuery<S> bq{Assoc(r, c, w), std::nullopt, {}};
    if (q % 4 == 1) {  // masked: keep only a few output keys
      std::vector<array::Key> mr, mc;
      std::vector<double> mw;
      for (int s = 0; s < kSeedsPerQuery; ++s) {
        mr.emplace_back("q" + std::to_string(q));
        mc.push_back(key(edges[rng.bounded(edges.size())].dst));
        mw.push_back(1.0);
      }
      bq.mask = Assoc(mr, mc, mw);
    }
    in.queries.push_back(std::move(bq));
  }
  for (int s = 0; s < kBfsSources; ++s) in.sources.push_back(pick_src());
  in.net = dnn::make_radixnet(
      {.neurons = kNeurons, .layers = kLayers, .fanin = 32});
  in.features = dnn::make_sparse_features(kFeatureRows, kNeurons, 0.2,
                                          seed ^ 0xF00Dull);
  return in;
}

struct Outputs {
  Assoc ingested;
  std::vector<Assoc> batch;
  db::PlanStats plan;
  Mat g, gt, u, product, masked, degrees;
  sparse::MxmMaskStats mask_stats;
  std::vector<std::vector<Index>> levels;
  dnn::DenseBatch inferred;
};

/// One trio job. Spans (when on) are children of one "job" span whose id
/// is the job's thread count.
Outputs run_job(const Inputs& in, int threads, Spans& spans) {
  util::set_num_threads(threads);
  Outputs o;
  SpanScope job(spans, "job", static_cast<std::uint64_t>(threads));
  const auto p = job.index();
  const auto id = static_cast<std::uint64_t>(threads);
  {
    SpanScope s(spans, "array.ingest", id, p);
    o.ingested = Assoc(in.k1, in.k2, in.v);
  }
  {
    SpanScope s(spans, "db.planned_batch", id, p);
    o.batch = db::planned_batch(o.ingested, in.queries, &o.plan);
  }
  auto triples = in.triples;
  {
    SpanScope s(spans, "sparse.build", id, p);
    o.g = Mat::from_triples<S>(in.n, in.n, std::move(triples));
  }
  {
    SpanScope s(spans, "sparse.transpose", id, p);
    o.gt = sparse::transpose(o.g);
  }
  {
    SpanScope s(spans, "sparse.ewise_add", id, p);
    o.u = sparse::ewise_add<S>(o.g, o.gt);
  }
  {
    SpanScope s(spans, "sparse.mxm", id, p);
    o.product = sparse::mxm<S>(o.g, o.gt);
  }
  {
    SpanScope s(spans, "sparse.mxm_masked", id, p);
    o.masked = sparse::mxm_masked<S>(o.u, o.u, o.u, {}, &o.mask_stats);
  }
  {
    SpanScope s(spans, "sparse.reduce", id, p);
    o.degrees = sparse::reduce_rows<Add>(o.masked);
  }
  {
    SpanScope s(spans, "hypergraph.bfs", id, p);
    for (const Index src : in.sources) {
      o.levels.push_back(hypergraph::bfs_array(o.u, src));
    }
  }
  {
    SpanScope s(spans, "dnn.infer", id, p);
    o.inferred = dnn::infer_standard(in.net, in.features);
  }
  return o;
}

bool same_dense(const dnn::DenseBatch& a, const dnn::DenseBatch& b) {
  return a.batch == b.batch && a.n == b.n &&
         std::memcmp(a.data.data(), b.data.data(),
                     a.data.size() * sizeof(double)) == 0;
}

/// Compare a job's outputs against the reference job's, byte for byte.
void check_job(const Outputs& ref, const Outputs& o, int threads,
               Report& rep) {
  const std::string tag = " (" + std::to_string(threads) + " threads)";
  ++rep.attempted;
  if (!(o.ingested == ref.ingested) ||
      !same_bytes(o.ingested.matrix(), ref.ingested.matrix())) {
    rep.fail("ingest differs" + tag);
  }
  bool batch_ok = o.batch.size() == ref.batch.size();
  for (std::size_t i = 0; batch_ok && i < o.batch.size(); ++i) {
    batch_ok = o.batch[i] == ref.batch[i] &&
               same_bytes(o.batch[i].matrix(), ref.batch[i].matrix());
  }
  if (!batch_ok) rep.fail("planned_batch differs" + tag);
  const std::pair<const Mat*, const Mat*> mats[] = {
      {&o.g, &ref.g},           {&o.gt, &ref.gt},
      {&o.u, &ref.u},           {&o.product, &ref.product},
      {&o.masked, &ref.masked}, {&o.degrees, &ref.degrees}};
  for (const auto& [a, b] : mats) {
    if (!same_bytes(*a, *b)) {
      rep.fail("sparse output differs" + tag);
      break;
    }
  }
  if (o.levels != ref.levels) rep.fail("bfs levels differ" + tag);
  if (!same_dense(o.inferred, ref.inferred)) rep.fail("dnn output differs" + tag);
}

struct ParallelCounters {
  std::uint64_t tiles = 0, steals = 0, idle_ns = 0;
  static ParallelCounters read() {
    const auto& r = util::metrics::Registry::instance();
    return {r.counter_value("parallel.tiles"), r.counter_value("parallel.steals"),
            r.counter_value("parallel.idle_ns")};
  }
};

}  // namespace

Report run_analytics(const Args& args) {
  Report rep;
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  // Set-up: every input from the seed (re-timed once per round for setup_s).
  const Inputs in = make_inputs(args.seed);

  // References outside the timed jobs: queue BFS on the symmetrized graph
  // and the semilink form of the same inference.
  Spans spans;
  Outputs ref = run_job(in, nproc, spans);  // warm-up job = reference
  {
    ++rep.attempted;
    for (std::size_t s = 0; s < in.sources.size(); ++s) {
      if (ref.levels[s] != hypergraph::bfs_queue(ref.u, in.sources[s])) {
        rep.fail("bfs_array != bfs_queue");
        break;
      }
    }
    ++rep.attempted;
    if (!same_dense(ref.inferred, dnn::infer_semilink(in.net, in.features))) {
      rep.fail("infer_standard != infer_semilink");
    }
    ++rep.attempted;
    if (ref.plan.products_skipped < kBatchQueries / 4) {
      rep.fail("planned_batch skipped fewer than the disjoint queries");
    }
  }

  // Measured phase: rounds of three nproc jobs and one nproc/2 job until the
  // budget is spent (at least three rounds), plus one set-up of the inputs
  // per round, so that setup_s samples the whole run. The traced run adds
  // a 1-thread job per round for the speedups, and an untraced nproc job
  // to price the spans themselves. Each job's outputs are checked, then
  // freed before the next job.
  const int half = std::max(1, nproc / 2);
  std::vector<double> job_n, job_1, job_h, job_n_off, setups;
  ParallelCounters par_sum;
  auto timed_job = [&](int threads, bool traced, std::vector<double>& times) {
    spans.set_on(traced);
    const auto before = ParallelCounters::read();
    const auto t0 = now_ns();
    const Outputs o = run_job(in, threads, spans);
    times.push_back(seconds_since(t0));
    if (threads == nproc && traced == args.trace) {
      const auto after = ParallelCounters::read();
      par_sum.tiles += after.tiles - before.tiles;
      par_sum.steals += after.steals - before.steals;
      par_sum.idle_ns += after.idle_ns - before.idle_ns;
    }
    check_job(ref, o, threads, rep);
  };
  const auto t_end = now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < t_end || job_h.size() < 3) {
    timed_job(nproc, args.trace, job_n);
    timed_job(half, args.trace, job_h);
    timed_job(nproc, args.trace, job_n);
    timed_job(nproc, args.trace, job_n);
    if (args.trace) {
      timed_job(1, true, job_1);
      timed_job(nproc, false, job_n_off);
    }
    util::set_num_threads(0);
    const auto t0 = now_ns();
    (void)make_inputs(args.seed);
    setups.push_back(seconds_since(t0));
  }
  util::set_num_threads(0);

  // p50_ms / slow_ms: median and 75th percentile of the nproc job (a 30-s
  // run holds about 45, so about ten lie beyond the 75th percentile).
  rep.set("job_s", median(job_n), "s");
  rep.set("p50_ms", median(job_n) * 1e3, "ms");
  rep.set("slow_ms", percentile(job_n, 0.75) * 1e3, "ms");
  rep.set("job_s_half", median(job_h), "s");
  rep.set("aux_ms", median(job_h) * 1e3, "ms");
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("setup_s", median(setups), "s");

  if (args.trace) {
    // Per-layer table: median span duration per call at nproc threads,
    // and the 1-thread / nproc ratio per kernel.
    std::map<std::string, std::vector<double>> dn, d1;
    const auto& all = spans.all();
    for (const auto& s : all) {
      if (s.parent < 0) continue;
      if (s.id == static_cast<std::uint64_t>(nproc)) {
        dn[s.name].push_back(s.seconds());
      } else if (s.id == 1) {
        d1[s.name].push_back(s.seconds());
      }
    }
    for (const char* layer :
         {"array.ingest", "db.planned_batch", "sparse.build",
          "sparse.transpose", "sparse.ewise_add", "sparse.reduce",
          "sparse.mxm", "sparse.mxm_masked", "hypergraph.bfs", "dnn.infer"}) {
      rep.set(std::string(layer) + "_s", median(dn[layer]), "s");
    }
    auto speedup = [&](const char* name) {
      const double n = median(dn[name]);
      return n > 0 ? median(d1[name]) / n : 0.0;
    };
    rep.set("mxm_speedup", speedup("sparse.mxm"), "x");
    rep.set("mxm_masked_speedup", speedup("sparse.mxm_masked"), "x");
    rep.set("transpose_speedup", speedup("sparse.transpose"), "x");
    rep.set("ewise_speedup", speedup("sparse.ewise_add"), "x");
    rep.set("bfs_speedup", speedup("hypergraph.bfs"), "x");
    rep.set("job_s_1t", median(job_1), "s");
    rep.set("job_speedup", median(job_1) / median(job_n), "x");
    rep.set("db.products_skipped", ref.plan.products_skipped, "count");
    rep.set("db.queries_batched", ref.plan.queries_batched, "count");
    rep.set("sparse.mxm_out_nnz", static_cast<double>(ref.product.nnz()),
            "count");
    rep.set("sparse.mask_flops_kept",
            static_cast<double>(ref.mask_stats.flops_kept), "count");
    rep.set("sparse.mask_flops_skipped",
            static_cast<double>(ref.mask_stats.flops_skipped), "count");
    const auto jobs = static_cast<double>(job_n.size());
    rep.set("parallel.tiles", static_cast<double>(par_sum.tiles) / jobs,
            "count");
    rep.set("parallel.steals", static_cast<double>(par_sum.steals) / jobs,
            "count");
    rep.set("parallel.idle_ms", static_cast<double>(par_sum.idle_ns) * 1e-6 / jobs,
            "ms");
    // Tracing overhead: spans on vs off, same thread count, same run.
    rep.set("trace.job_s_on", median(job_n), "s");
    rep.set("trace.job_s_off", median(job_n_off), "s");
    rep.set("trace.job_overhead_pct",
            (median(job_n) / median(job_n_off) - 1.0) * 100.0, "%");
    spans.write_json(args.out_dir + "/spans_analytics.json");
  }
  return rep;
}

}  // namespace perfbench
