// Workloads `serve_read` and `serve_rw`: open-loop traffic against a
// 4-shard async serve::Router with the result cache on, configured like
// examples/query_server.cpp.
//
// One generator thread (the reader) submits each request when it falls
// due and polls the outstanding tickets; every latency is measured from
// the request's due time, so a stalled generator or a growing backlog
// shows up in the numbers instead of hiding them. Three tenants send
// Zipf-keyed traffic:
//   tenant 0  Query::point lookups          (single shard)
//   tenant 1  1-row neighbour expansions    (lhs = the key's adjacency row;
//                                            straddles shards)
//   tenant 2  masked expansions             (friends of friends that are
//                                            not already friends)
// serve_rw adds a second client thread sending 64-update mutate() batches
// open-loop, with background delta compaction on.
//
// Correctness: serve_read checks a fixed sample of answers memcmp-equal to
// serve::run_single on the base. serve_rw checks, at quiescent checkpoints
// (after warm-up and at the end), a sample of answers against a
// from-scratch rebuild with every acknowledged mutation applied. In-flight
// answers under writes are not checked: the Router documents that a chain
// straddling shards may mix epochs, so there is no single reference.

#include <map>
#include <thread>

#ifdef __linux__
#include <sys/prctl.h>
#endif

#include "semiring/all.hpp"
#include "serve.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "util/generators.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace hyperspace;
using S = semiring::PlusTimes<double>;
using Q = serve::Query<S>;
using Mat = sparse::Matrix<double>;
using sparse::Index;

// Input sizes and rates (fixed; the seed picks graph, keys and updates).
constexpr int kScale = 12;                 // 4096 vertices
constexpr double kEdgeFactor = 16;         // 65536 edges
// Key popularity skew. A steeper skew lets a handful of hot keys, which
// differ per seed, decide a run's latencies.
constexpr double kZipfS = 0.9;
// The hot keys move every this many requests (about 1 s at the fixed
// rate). With one hot set per run, whether the few hottest keys are R-MAT
// hubs would decide a run's answer sizes, and with them peak RSS.
constexpr std::size_t kHotSetRequests = 1024;
// The fixed read rate. Not 1000: a rate commensurate with the 1 ms flush
// interval phase-locks arrivals to flushes and makes p50 bimodal.
constexpr double kReadQps = 1100;
constexpr double kLadder[] = {2300, 3000, 4500, 6000, 9000, 13500};  // serve_read
constexpr double kLadderStepS = 0.5;       // seconds per ladder rate
constexpr double kP99LimitMs = 25;         // max_qps latency limit
constexpr double kWriteBps = 20;           // serve_rw: mutate batches / s
constexpr int kUpdatesPerBatch = 64;
constexpr double kWarmupS = 2;
constexpr int kTenants = 3;
constexpr std::size_t kCheckEvery = 37;    // serve_read answer sample
constexpr int kCheckpointQueries = 96;     // serve_rw sample per checkpoint

serve::Router<S>::Config router_config(bool rw) {
  serve::Router<S>::Config cfg;
  cfg.n_shards = 4;
  auto& ex = cfg.executor;
  ex.max_batch_queries = 64;
  ex.tenant_flop_quota = std::uint64_t{1} << 16;
  ex.async = true;
  ex.flush_queue_depth = 48;
  ex.flush_interval = std::chrono::milliseconds(1);
  ex.cache_bytes = std::size_t{1} << 20;
  if (rw) {
    ex.delta.compact_threshold = 1024;
    ex.delta.background = true;
  }
  return cfg;
}

/// Everything generated from the seed before the router exists.
struct Inputs {
  Index n = 0;
  Mat base;
  std::vector<std::vector<Index>> adj;      ///< adjacency cols per row
  std::vector<std::vector<double>> adjv;    ///< matching values
  std::vector<Index> universe;              ///< keys with out-degree ≥ 1
  std::vector<double> zipf_cdf;             ///< over universe ranks
  std::vector<sparse::Triple<double>> base_triples;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.n = Index{1} << kScale;
  const auto edges = util::rmat_edges(
      {.scale = kScale, .edge_factor = kEdgeFactor, .seed = seed});
  std::vector<sparse::Triple<double>> t;
  t.reserve(edges.size());
  for (const auto& e : edges) t.push_back({e.src, e.dst, e.weight});
  in.base = Mat::from_triples<S>(in.n, in.n, std::move(t));
  in.base_triples = in.base.to_triples();
  in.adj.resize(static_cast<std::size_t>(in.n));
  in.adjv.resize(static_cast<std::size_t>(in.n));
  for (const auto& e : in.base_triples) {
    in.adj[static_cast<std::size_t>(e.row)].push_back(e.col);
    in.adjv[static_cast<std::size_t>(e.row)].push_back(e.val);
  }
  for (Index v = 0; v < in.n; ++v) {
    if (!in.adj[static_cast<std::size_t>(v)].empty()) in.universe.push_back(v);
  }
  // Popularity rank -> key: a seeded shuffle, so hot keys land on every
  // shard and are not simply the R-MAT hubs.
  util::Xoshiro256 rng(seed ^ 0x5EEDull);
  for (std::size_t i = in.universe.size(); i > 1; --i) {
    std::swap(in.universe[i - 1], in.universe[rng.bounded(i)]);
  }
  in.zipf_cdf.resize(in.universe.size());
  double acc = 0;
  for (std::size_t r = 0; r < in.universe.size(); ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    in.zipf_cdf[r] = acc;
  }
  for (auto& c : in.zipf_cdf) c /= acc;
  return in;
}

/// A request is (tenant, key); the tenant picks the query kind.
struct Spec {
  serve::TenantId tenant = 0;
  Index key = 0;
};

/// Draw one request. Popularity rank r maps to key universe[(r + shift)
/// mod |universe|]; the reader moves `shift` to a fresh random place every
/// kHotSetRequests requests, so the hot keys change during a run.
Spec draw(const Inputs& in, util::Xoshiro256& rng, std::size_t shift = 0) {
  const double u = rng.uniform();
  const auto r = static_cast<std::size_t>(
      std::lower_bound(in.zipf_cdf.begin(), in.zipf_cdf.end(), u) -
      in.zipf_cdf.begin());
  const std::size_t n = in.universe.size();
  return {static_cast<serve::TenantId>(rng.bounded(kTenants)),
          in.universe[(std::min(r, n - 1) + shift) % n]};
}

Mat row_matrix(const Inputs& in, Index key) {
  std::vector<sparse::Triple<double>> t;
  const auto& cols = in.adj[static_cast<std::size_t>(key)];
  const auto& vals = in.adjv[static_cast<std::size_t>(key)];
  t.reserve(cols.size());
  for (std::size_t j = 0; j < cols.size(); ++j) t.push_back({0, cols[j], vals[j]});
  return Mat::from_canonical_triples(1, in.n, t);
}

Q make_query(const Inputs& in, const Spec& s) {
  switch (s.tenant) {
    case 0:
      return Q::point(s.key, in.n);
    case 1:
      return Q::analytic(row_matrix(in, s.key));
    default:
      return Q::masked(row_matrix(in, s.key), row_matrix(in, s.key),
                       {.complement = true});
  }
}

/// Client threads sleep until the next due time; ask for exact wake-ups
/// (the default 50 µs timer slack would blur sub-millisecond latencies).
void tight_timer_slack() {
#ifdef __linux__
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
#endif
}

struct Req {
  std::int64_t due = 0;
  std::int64_t done = 0;  ///< 0 while outstanding
  std::size_t ticket = 0;
  Spec spec;
  const Mat* answer = nullptr;
  bool failed = false;
  const char* why = nullptr;  ///< set when failed
};

/// The open-loop reader: one thread, submits on schedule, polls the
/// outstanding tickets in between. Client spans (when on) are one
/// "request" span per request from its due time to completion, with the
/// submit and every poll call as children; all share the ticket id.
class Reader {
 public:
  Reader(serve::Router<S>& router, const Inputs& in, std::uint64_t seed,
         Spans& spans)
      : router_(router), in_(in), rng_(seed), spans_(spans) {}

  /// Run the open loop at `qps` for `seconds`, then wait (bounded) for the
  /// outstanding tail. Returns the requests of this phase.
  std::vector<Req> run(double qps, double seconds) {
    tight_timer_slack();
    std::vector<Req> reqs;
    reqs.reserve(static_cast<std::size_t>(qps * seconds) + 16);
    std::vector<std::size_t> open;
    std::vector<std::int32_t> open_span;
    const auto period = static_cast<std::int64_t>(1e9 / qps);
    const std::int64_t t0 = now_ns();
    const auto total = static_cast<std::size_t>(qps * seconds);
    late_max_ns_ = 0;
    backlog_max_ = 0;
    backlog_mid_ = 0;
    backlog_last_ = 0;
    std::size_t next = 0;
    const std::int64_t drain_deadline =
        t0 + static_cast<std::int64_t>(seconds * 1e9) + 10'000'000'000;
    while (next < total || !open.empty()) {
      std::int64_t now = now_ns();
      while (next < total && t0 + static_cast<std::int64_t>(next) * period <= now) {
        Req r;
        r.due = t0 + static_cast<std::int64_t>(next) * period;
        if (drawn_++ % kHotSetRequests == 0) {
          shift_ = rng_.bounded(in_.universe.size());
        }
        r.spec = draw(in_, rng_, shift_);
        late_max_ns_ = std::max(late_max_ns_, now - r.due);
        const auto rs = spans_.open("request", 0, Spans::kNoParent, r.due);
        const auto ss = spans_.open("client.submit", 0, rs);
        try {
          r.ticket = router_.submit(r.spec.tenant, make_query(in_, r.spec));
        } catch (const std::exception& e) {
          r.failed = true;
          r.why = "submit threw";
          std::fprintf(stderr, "perfbench: submit threw: %s\n", e.what());
          r.done = now_ns();
        }
        spans_.close(ss);
        spans_.set_id(rs, r.ticket);
        spans_.set_id(ss, r.ticket);
        reqs.push_back(r);
        if (!r.failed) {
          open.push_back(reqs.size() - 1);
          open_span.push_back(rs);
        } else {
          spans_.close(rs, r.done);
        }
        ++next;
        if (next == total / 2) backlog_mid_ = open.size();
        if (next == total) backlog_last_ = open.size();
        now = now_ns();
      }
      backlog_max_ = std::max(backlog_max_, open.size());
      // Poll every outstanding ticket once.
      const std::int64_t sweep_start = now_ns();
      for (std::size_t i = 0; i < open.size();) {
        Req& r = reqs[open[i]];
        const auto ps = spans_.open("client.poll", r.ticket, open_span[i]);
        const Mat* a = nullptr;
        bool failed = false;
        try {
          a = router_.poll(r.ticket);
        } catch (const std::exception& e) {
          failed = true;
          r.why = "poll threw";
          std::fprintf(stderr, "perfbench: poll threw: %s\n", e.what());
        }
        spans_.close(ps);
        if (a != nullptr || failed) {
          r.done = now_ns();
          r.answer = a;
          r.failed = failed;
          spans_.close(open_span[i], r.done);
          open[i] = open.back();
          open.pop_back();
          open_span[i] = open_span.back();
          open_span.pop_back();
        } else {
          ++i;
        }
      }
      const std::int64_t sweep_end = now_ns();
      if (sweep_end > drain_deadline) break;  // unfinished = failed below
      // Sleep until the next request falls due or, with requests
      // outstanding, until the next sweep: at least 100 µs and at least as
      // long as this sweep took. Polling thus holds the engine's locks at
      // most half the time; an unthrottled sweep over a long backlog was
      // seen to starve a shard's flush thread of its queue lock.
      std::int64_t wake = next < total
                              ? t0 + static_cast<std::int64_t>(next) * period
                              : sweep_end + 100'000;
      if (!open.empty()) {
        wake = std::min(wake, sweep_end + std::max<std::int64_t>(
                                              100'000, sweep_end - sweep_start));
      }
      const std::int64_t d = wake - now_ns();
      if (d > 20'000) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(d - 10'000));
      }
    }
    if (!open.empty()) {
      std::fprintf(stderr,
                   "perfbench: %zu requests outstanding 10 s after a %.0f q/s "
                   "phase; queued per shard:",
                   open.size(), qps);
      for (std::size_t sh = 0; sh < router_.n_shards(); ++sh) {
        std::fprintf(stderr, " %zu", router_.shard_executor(sh).pending());
      }
      std::fprintf(stderr, "\n");
    }
    for (const auto i : open) {  // never completed
      reqs[i].failed = true;
      reqs[i].why = "never completed";
    }
    return reqs;
  }

  double late_max_ms() const { return static_cast<double>(late_max_ns_) * 1e-6; }
  std::size_t backlog_max() const { return backlog_max_; }
  /// The backlog grew when, at the last submission, far more requests were
  /// outstanding than halfway through the phase.
  bool backlog_grew() const { return backlog_last_ > 2 * backlog_mid_ + 16; }

 private:
  serve::Router<S>& router_;
  const Inputs& in_;
  util::Xoshiro256 rng_;
  std::size_t drawn_ = 0, shift_ = 0;
  Spans& spans_;
  std::int64_t late_max_ns_ = 0;
  std::size_t backlog_max_ = 0, backlog_mid_ = 0, backlog_last_ = 0;
};

/// The open-loop writer (serve_rw): 64-update batches at a fixed rate,
/// 3:1 assign:erase, erases aimed at existing base edges. Every
/// acknowledged batch is logged, in order, for the reference rebuild.
class Writer {
 public:
  Writer(serve::Router<S>& router, const Inputs& in, std::uint64_t seed)
      : router_(router), in_(in), rng_(seed) {}

  void run(double bps, double seconds) {
    tight_timer_slack();
    const auto period = static_cast<std::int64_t>(1e9 / bps);
    const auto total = static_cast<std::size_t>(bps * seconds);
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < total; ++i) {
      const std::int64_t due = t0 + static_cast<std::int64_t>(i) * period;
      const std::int64_t d = due - now_ns();
      if (d > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(d));
      sparse::UpdateBatch<double> ops;
      for (int k = 0; k < kUpdatesPerBatch; ++k) {
        if (k % 4 == 3) {
          const auto& e = in_.base_triples[rng_.bounded(in_.base_triples.size())];
          ops.push_back(sparse::Update<double>::erased(e.row, e.col));
        } else {
          const Index r = in_.universe[rng_.bounded(in_.universe.size())];
          const auto c = static_cast<Index>(
              rng_.bounded(static_cast<std::uint64_t>(in_.n)));
          ops.push_back(
              sparse::Update<double>::assign(r, c, 1.0 + rng_.uniform()));
        }
      }
      const std::int64_t c0 = now_ns();
      try {
        router_.mutate(serve::TenantId{kTenants}, ops);
        log_.push_back(std::move(ops));
      } catch (const std::exception&) {
        ++failed_;
      }
      const std::int64_t c1 = now_ns();
      ++attempted_;
      from_due_ms_.push_back(static_cast<double>(c1 - due) * 1e-6);
      call_ms_.push_back(static_cast<double>(c1 - c0) * 1e-6);
    }
  }

  const std::vector<sparse::UpdateBatch<double>>& log() const { return log_; }
  std::vector<double> from_due_ms_, call_ms_;
  std::uint64_t attempted_ = 0, failed_ = 0;

 private:
  serve::Router<S>& router_;
  const Inputs& in_;
  util::Xoshiro256 rng_;
  std::vector<sparse::UpdateBatch<double>> log_;
};

/// Rebuild the base from scratch with every logged batch applied in
/// order (last write per key wins, erase removes).
Mat rebuild(const Inputs& in,
            const std::vector<sparse::UpdateBatch<double>>& log) {
  std::map<std::pair<Index, Index>, double> cells;
  for (const auto& e : in.base_triples) cells[{e.row, e.col}] = e.val;
  for (const auto& batch : log) {
    for (const auto& u : batch) {
      if (u.erase) {
        cells.erase({u.row, u.col});
      } else {
        cells[{u.row, u.col}] = u.val;
      }
    }
  }
  std::vector<sparse::Triple<double>> t;
  t.reserve(cells.size());
  for (const auto& [k, v] : cells) t.push_back({k.first, k.second, v});
  return Mat::from_canonical_triples(in.n, in.n, t, S::zero());
}

/// Quiescent checkpoint: submit a sample of every kind, wait for each and
/// compare it byte for byte with run_single on `reference`.
void checkpoint(serve::Router<S>& router, const Inputs& in,
                const Mat& reference, util::Xoshiro256& rng, Report& rep) {
  for (int i = 0; i < kCheckpointQueries; ++i) {
    Spec s = draw(in, rng);
    s.tenant = static_cast<serve::TenantId>(i % kTenants);
    ++rep.attempted;
    try {
      const auto ticket = router.submit(s.tenant, make_query(in, s));
      const Mat& got = router.wait(ticket);
      if (!same_bytes(got, serve::run_single<S>(reference, make_query(in, s)))) {
        rep.fail("checkpoint answer differs from rebuild (tenant " +
                 std::to_string(s.tenant) + ")");
      }
    } catch (const std::exception& e) {
      rep.fail(std::string("checkpoint query threw: ") + e.what());
    }
  }
}

struct Phase {
  std::vector<double> lat_ms;
  std::vector<double> tenant_ms[kTenants];
  std::uint64_t failed = 0;
};

Phase summarize(const std::vector<Req>& reqs) {
  Phase p;
  for (const auto& r : reqs) {
    if (r.failed) {
      ++p.failed;
      continue;
    }
    const double ms = static_cast<double>(r.done - r.due) * 1e-6;
    p.lat_ms.push_back(ms);
    p.tenant_ms[r.spec.tenant].push_back(ms);
  }
  return p;
}


/// Self time per engine stage (µs, summed) from the library tracer's
/// spans: within each display lane spans nest properly, so a span's self
/// time is its duration minus its direct children's.
std::map<std::string, double> stage_self_us(
    const std::vector<serve::trace::Span>& spans) {
  std::map<std::uint64_t, std::vector<const serve::trace::Span*>> lanes;
  for (const auto& s : spans) lanes[s.lane].push_back(&s);
  std::map<std::string, double> out;
  for (auto& [lane, v] : lanes) {
    std::sort(v.begin(), v.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->dur_ns > b->dur_ns;
    });
    std::vector<std::pair<const serve::trace::Span*, double>> stack;
    auto pop = [&] {
      const auto [sp, child_ns] = stack.back();
      stack.pop_back();
      out[serve::trace::stage_name(sp->stage)] +=
          std::max(0.0, static_cast<double>(sp->dur_ns) - child_ns) * 1e-3;
    };
    for (const auto* s : v) {
      while (!stack.empty() &&
             stack.back().first->ts_ns + stack.back().first->dur_ns <= s->ts_ns) {
        pop();
      }
      if (!stack.empty()) stack.back().second += static_cast<double>(s->dur_ns);
      stack.push_back({s, 0.0});
    }
    while (!stack.empty()) pop();
  }
  return out;
}

}  // namespace

Report run_serve(const Args& args, bool rw) {
  Report rep;
  auto& registry = util::metrics::Registry::instance();
  auto& tracer = serve::trace::Tracer::instance();

  // nproc / n_shards kernel workers per shard: every shard's flush thread
  // runs its kernels on max_threads() workers, so the default (nproc per
  // shard) would put n_shards × nproc workers on nproc cores, and the read
  // tail would measure the OS scheduler rather than the engine.
  const auto cfg = router_config(rw);
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  util::set_num_threads(std::max(1, nproc / cfg.n_shards));

  // Set-up: inputs from the seed, then the router (re-timed at the end).
  const Inputs in = make_inputs(args.seed);
  auto router = std::make_unique<serve::Router<S>>(in.base, cfg);

  Spans spans;
  Reader reader(*router, in, args.seed * 7919 + 1, spans);
  Writer writer(*router, in, args.seed * 104729 + 3);
  util::Xoshiro256 check_rng(args.seed ^ 0xC4ECull);

  // Open loop, optionally with the writer running alongside.
  auto phase = [&](double qps, double seconds) {
    std::thread w;
    if (rw) w = std::thread([&] { writer.run(kWriteBps, seconds); });
    auto reqs = reader.run(qps, seconds);
    if (w.joinable()) w.join();
    return reqs;
  };

  // Warm-up, discarded (caches, allocator, page faults, thread spin-up).
  const auto warm = phase(kReadQps, kWarmupS);
  if (rw) {
    router->flush();
    checkpoint(*router, in, rebuild(in, writer.log()), check_rng, rep);
  }
  writer.from_due_ms_.clear();
  writer.call_ms_.clear();

  // The fixed-rate phase. The traced run alternates quarters with the
  // tracer and client spans off / on, to price tracing in the same run.
  registry.reset_values();
  const auto rss0 = rss_kb();
  const auto stats0 = router->stats();
  const auto rstats0 = router->router_stats();
  const auto total_deferrals = [&] {
    std::uint64_t d = 0;
    for (const auto t : router->tenants()) d += router->tenant_stats(t).deferrals;
    return d;
  };
  const auto deferrals0 = total_deferrals();
  // serve_read ends with the rate ladder: a fixed step per rate (at most a
  // quarter of the run in all), so a longer run lengthens the fixed-rate
  // phase, where the end-to-end figures are taken.
  const double ladder_step_s =
      rw ? 0.0
         : std::min(kLadderStepS,
                    args.seconds * 0.25 / static_cast<double>(std::size(kLadder)));
  const double fixed_s =
      args.seconds - ladder_step_s * static_cast<double>(std::size(kLadder));
  std::vector<Req> fixed;
  std::vector<double> on_ms, off_ms;
  std::vector<serve::trace::Span> engine_spans;
  double late_max = 0;
  std::size_t backlog_max = 0;
  const int quarters = args.trace ? 4 : 1;
  for (int q = 0; q < quarters; ++q) {
    const bool on = args.trace && q % 2 == 1;
    spans.set_on(on);
    if (on) {
      tracer.configure({.enabled = true, .sample_every = 1,
                        .ring_capacity = std::size_t{1} << 17});
    }
    auto part = phase(kReadQps, fixed_s / quarters);
    if (on) {
      auto snap = tracer.snapshot();
      engine_spans.insert(engine_spans.end(), snap.begin(), snap.end());
      tracer.configure({.enabled = false});
    }
    late_max = std::max(late_max, reader.late_max_ms());
    backlog_max = std::max(backlog_max, reader.backlog_max());
    const auto lat = summarize(part).lat_ms;
    (on ? on_ms : off_ms).insert((on ? on_ms : off_ms).end(), lat.begin(),
                                 lat.end());
    fixed.insert(fixed.end(), part.begin(), part.end());
  }
  spans.set_on(false);
  const auto stats1 = router->stats();
  const auto rstats1 = router->router_stats();
  const auto deferrals1 = total_deferrals();
  const double rss_per_query =
      (rss_kb() - rss0) / static_cast<double>(std::max<std::size_t>(1, fixed.size()));
  const auto batch_hist = registry.histogram_snapshot("serve.batch_ns");
  const auto query_hist = registry.histogram_snapshot("serve.query_latency_ns");
  const Phase fx = summarize(fixed);

  // serve_read: the rest of the rate ladder on the same router, no reset. A rate passes when its p99 meets the limit and
  // its backlog did not keep growing; max_qps is the highest that passes.
  double max_qps =
      fx.failed == 0 && percentile(fx.lat_ms, 0.99) <= kP99LimitMs ? kReadQps : 0;
  std::vector<Req> ladder_all;
  auto step = [&](double qps, double seconds) {
    auto reqs = reader.run(qps, seconds);
    const Phase p = summarize(reqs);
    const double p99 = percentile(p.lat_ms, 0.99);
    if (p.failed == 0 && !reader.backlog_grew() && p99 <= kP99LimitMs && qps > max_qps) {
      max_qps = qps;
    }
    std::printf("  rate %6.0f q/s: p50 %.3f ms  p99 %.3f ms  backlog %zu  failed %llu\n",
                qps, median(p.lat_ms), p99, reader.backlog_max(),
                static_cast<unsigned long long>(p.failed));
    ladder_all.insert(ladder_all.end(), reqs.begin(), reqs.end());
  };
  if (!rw) {
    for (const double qps : kLadder) step(qps, ladder_step_s);
  }

  // Correctness. Every failed or unfinished request counts.
  const auto tally = [&](const std::vector<Req>& reqs) {
    for (const auto& r : reqs) {
      ++rep.attempted;
      if (r.failed) rep.fail(std::string("request ") + r.why);
    }
  };
  tally(warm);
  tally(fixed);
  tally(ladder_all);
  if (!rw) {
    // A fixed sample of answers, memcmp-equal to run_single on the base.
    for (std::size_t i = 0; i < fixed.size(); i += kCheckEvery) {
      const Req& r = fixed[i];
      if (r.failed || r.answer == nullptr) continue;
      ++rep.attempted;
      if (!same_bytes(*r.answer,
                      serve::run_single<S>(in.base, make_query(in, r.spec)))) {
        rep.fail("answer differs from run_single (tenant " +
                 std::to_string(r.spec.tenant) + ")");
      }
    }
  } else {
    router->flush();
    checkpoint(*router, in, rebuild(in, writer.log()), check_rng, rep);
    rep.attempted += writer.attempted_;
    for (std::uint64_t i = 0; i < writer.failed_; ++i) rep.fail("mutate threw");
  }

  // End-to-end metrics.
  const double p50 = median(fx.lat_ms), p99 = percentile(fx.lat_ms, 0.99);
  rep.set("read_p50_ms", p50, "ms");
  rep.set("read_p99_ms", p99, "ms");
  rep.set("p50_ms", p50, "ms");
  // slow_ms: the p90 of the single-shard point lookups (tenant 0). The
  // tail of the mix is set by the expansions' chains across shards, and
  // each hop waits for a flush thread to wake: on a shared host that tail
  // (read_p99_ms, in the table and the per-layer set) doubles while the
  // host's other tenants are busy, so it is no end-to-end metric.
  rep.set("slow_ms", percentile(fx.tenant_ms[0], 0.90), "ms");
  if (rw) {
    rep.set("write_p50_ms", median(writer.from_due_ms_), "ms");
    rep.set("write_p99_ms", percentile(writer.from_due_ms_, 0.99), "ms");
    rep.set("aux_ms", median(writer.from_due_ms_), "ms");
  } else {
    rep.set("max_qps", max_qps, "1/s");
    // aux_ms: the median of the expansions (tenants 1 and 2), which
    // straddle shards: scatter, chain carry, merge and gather.
    std::vector<double> expansions = fx.tenant_ms[1];
    expansions.insert(expansions.end(), fx.tenant_ms[2].begin(),
                      fx.tenant_ms[2].end());
    rep.set("aux_ms", median(expansions), "ms");
  }
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("fail_ratio",
          static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
          "ratio");

  if (args.trace) {
    // Client layer, from the benchmark-side spans.
    rep.set("client.submit_us_p99",
            percentile(spans.durations("client.submit"), 0.99) * 1e6, "us");
    rep.set("client.poll_us_p99",
            percentile(spans.durations("client.poll"), 0.99) * 1e6, "us");
    rep.set("client.late_max_ms", late_max, "ms");
    rep.set("client.backlog_max", static_cast<double>(backlog_max), "count");
    // Serve layer, from the engine's own stats over the fixed phase.
    const double hits = static_cast<double>(rstats1.cache_hits - rstats0.cache_hits);
    const double misses =
        static_cast<double>(rstats1.cache_misses - rstats0.cache_misses);
    const double scattered =
        static_cast<double>((rstats1.single_shard - rstats0.single_shard) +
                            (rstats1.straddling - rstats0.straddling));
    const double batches = static_cast<double>(stats1.batches - stats0.batches);
    rep.set("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
    rep.set("serve.straddle_ratio",
            static_cast<double>(rstats1.straddling - rstats0.straddling) /
                std::max(1.0, scattered),
            "ratio");
    rep.set("serve.merges", static_cast<double>(rstats1.merges - rstats0.merges),
            "count");
    rep.set("serve.queries_per_batch",
            static_cast<double>(stats1.queries - stats0.queries) /
                std::max(1.0, batches),
            "count");
    rep.set("serve.launches_saved",
            static_cast<double>(stats1.launches_saved - stats0.launches_saved),
            "count");
    rep.set("serve.flops_kept",
            static_cast<double>(stats1.flops_kept - stats0.flops_kept), "count");
    rep.set("serve.flops_skipped",
            static_cast<double>(stats1.flops_skipped - stats0.flops_skipped),
            "count");
    for (int t = 0; t < kTenants; ++t) {
      rep.set("serve.tenant" + std::to_string(t) + ".p99_ms",
              percentile(fx.tenant_ms[t], 0.99), "ms");
    }
    rep.set("serve.deferrals", static_cast<double>(deferrals1 - deferrals0),
            "count");
    rep.set("serve.rss_kb_per_query", rss_per_query, "kB");
    rep.set("serve.query_latency_p99_ms",
            static_cast<double>(query_hist.percentile(0.99)) * 1e-6, "ms");
    rep.set("serve.batch_p99_ms",
            static_cast<double>(batch_hist.percentile(0.99)) * 1e-6, "ms");
    // Stage self times per traced read (µs), from the library tracer.
    const auto self = stage_self_us(engine_spans);
    const double traced = static_cast<double>(std::max<std::size_t>(1, on_ms.size()));
    for (const char* st : {"submit", "cache_probe", "scatter", "tenant_queue",
                           "admission", "kernel", "chain_carry", "gather"}) {
      const auto it = self.find(st);
      rep.set(std::string("serve.stage.") + st + "_us",
              it == self.end() ? 0.0 : it->second / traced, "us");
    }
    // Delta layer (serve_rw).
    if (rw) {
      rep.set("delta.mutate_ms_p99", percentile(writer.call_ms_, 0.99), "ms");
      double compactions = 0;
      for (std::size_t s = 0; s < router->n_shards(); ++s) {
        compactions +=
            static_cast<double>(router->shard_executor(s).delta_base().compactions());
      }
      rep.set("delta.compactions", compactions, "count");
      rep.set("delta.final_epoch", static_cast<double>(router->epoch()), "count");
    }
    // Tracing overhead: read p50 with tracing on vs off, same run.
    rep.set("trace.read_p50_ms_on", median(on_ms), "ms");
    rep.set("trace.read_p50_ms_off", median(off_ms), "ms");
    rep.set("trace.read_overhead_pct",
            (median(on_ms) / median(off_ms) - 1.0) * 100.0, "%");
    spans.write_json(args.out_dir + "/spans_" + args.workload + ".json");
  }
  router->shutdown();
  router.reset();

  // setup_s: the same set-up, eleven more times, timed at the end of the
  // run: for about a second after process start, parallel regions on the
  // reference host sometimes run an order of magnitude slower, which would
  // make a start-of-run timing bimodal. Each router is torn down after its
  // timing, outside it.
  std::vector<double> setups;
  for (int i = 0; i < 11; ++i) {
    const auto t0 = now_ns();
    const Inputs again = make_inputs(args.seed);
    auto fresh = std::make_unique<serve::Router<S>>(again.base, cfg);
    setups.push_back(seconds_since(t0));
    fresh->shutdown();
  }
  rep.set("setup_s", median(setups), "s");
  util::set_num_threads(0);
  return rep;
}

}  // namespace perfbench
