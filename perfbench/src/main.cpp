// perfbench: the repository benchmark binary.
//
//   perfbench --workload <analytics|serve_read|serve_rw> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Prints a human-readable table (every metric of the run, by name, with
// its unit), then, as the LAST line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set (see perfbench/README.md for what each means per workload).

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "analytics.hpp"
#include "common.hpp"
#include "serve.hpp"

namespace {

using perfbench::Report;

// Keys and units must match BENCHMARK.json.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"p50_ms", "ms"},
    {"slow_ms", "ms"}, {"aux_ms", "ms"}};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    // analytics
    {"job_s", "s"}, {"job_s_1t", "s"}, {"job_s_half", "s"},
    {"array.ingest_s", "s"}, {"db.planned_batch_s", "s"},
    {"db.products_skipped", "count"}, {"db.queries_batched", "count"},
    {"sparse.build_s", "s"}, {"sparse.transpose_s", "s"},
    {"sparse.ewise_add_s", "s"}, {"sparse.reduce_s", "s"},
    {"sparse.mxm_s", "s"}, {"sparse.mxm_out_nnz", "count"},
    {"sparse.mxm_masked_s", "s"}, {"sparse.mask_flops_kept", "count"},
    {"sparse.mask_flops_skipped", "count"}, {"hypergraph.bfs_s", "s"},
    {"dnn.infer_s", "s"}, {"mxm_speedup", "x"}, {"mxm_masked_speedup", "x"},
    {"transpose_speedup", "x"}, {"ewise_speedup", "x"}, {"bfs_speedup", "x"},
    {"job_speedup", "x"}, {"parallel.tiles", "count"},
    {"parallel.steals", "count"}, {"parallel.idle_ms", "ms"},
    {"trace.job_s_on", "s"}, {"trace.job_s_off", "s"},
    {"trace.job_overhead_pct", "%"},
    // serving
    {"read_p50_ms", "ms"}, {"read_p99_ms", "ms"}, {"max_qps", "1/s"},
    {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"},
    {"client.submit_us_p99", "us"}, {"client.poll_us_p99", "us"},
    {"client.late_max_ms", "ms"}, {"client.backlog_max", "count"},
    {"serve.cache_hit_ratio", "ratio"}, {"serve.straddle_ratio", "ratio"},
    {"serve.merges", "count"}, {"serve.queries_per_batch", "count"},
    {"serve.launches_saved", "count"}, {"serve.flops_kept", "count"},
    {"serve.flops_skipped", "count"}, {"serve.tenant0.p99_ms", "ms"},
    {"serve.tenant1.p99_ms", "ms"}, {"serve.tenant2.p99_ms", "ms"},
    {"serve.deferrals", "count"}, {"serve.rss_kb_per_query", "kB"},
    {"serve.query_latency_p99_ms", "ms"}, {"serve.batch_p99_ms", "ms"},
    {"serve.stage.submit_us", "us"}, {"serve.stage.cache_probe_us", "us"},
    {"serve.stage.scatter_us", "us"}, {"serve.stage.tenant_queue_us", "us"},
    {"serve.stage.admission_us", "us"}, {"serve.stage.kernel_us", "us"},
    {"serve.stage.chain_carry_us", "us"}, {"serve.stage.gather_us", "us"},
    {"delta.mutate_ms_p99", "ms"}, {"delta.compactions", "count"},
    {"delta.final_epoch", "count"}, {"trace.read_p50_ms_on", "ms"},
    {"trace.read_p50_ms_off", "ms"}, {"trace.read_overhead_pct", "%"},
    // every workload
    {"fail_ratio", "ratio"}};

int usage() {
  std::cerr << "usage: perfbench --workload <analytics|serve_read|serve_rw> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
  return 2;
}

void print_host() {
  std::string model = "unknown";
  std::ifstream cpu("/proc/cpuinfo");
  for (std::string line; std::getline(cpu, line);) {
    if (line.rfind("model name", 0) == 0) {
      model = line.substr(line.find(':') + 2);
      break;
    }
  }
  std::string llc = "unknown";
  for (int idx = 3; idx >= 0 && llc == "unknown"; --idx) {
    std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index" +
                    std::to_string(idx) + "/size");
    if (f) std::getline(f, llc);
  }
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " cpu=\"" << model << "\" llc=" << llc << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      args.seed = std::stoull(v);
    } else if (k == "--seconds") {
      args.seconds = std::stod(v);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--out-dir") {
      args.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || args.seconds <= 0) return usage();

  Report rep;
  try {
    if (args.workload == "analytics") {
      rep = perfbench::run_analytics(args);
    } else if (args.workload == "serve_read") {
      rep = perfbench::run_serve(args, false);
    } else if (args.workload == "serve_rw") {
      rep = perfbench::run_serve(args, true);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " aborted: " << e.what()
              << '\n';
    return 1;
  }
  if (rep.attempted > 0) {
    rep.set("fail_ratio",
            static_cast<double>(rep.failed) / static_cast<double>(rep.attempted),
            "ratio");
  }

  const auto& keys = args.trace ? kPerLayer : kEndToEnd;
  // Metrics a workload does not produce read 0 in the per-layer set.
  std::vector<std::string> names;
  for (const auto& [name, unit] : keys) {
    bool found = false;
    for (const auto& m : rep.metrics) found = found || m.name == name;
    if (!found) rep.set(name, 0.0, unit);
    names.push_back(name);
  }

  print_host();
  std::cout << "workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << '\n';
  for (const auto& m : rep.metrics) {
    std::printf("  %-30s %14s %s\n", m.name.c_str(),
                Report::number(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  %-30s %14llu / %llu\n", "failed / attempted",
              static_cast<unsigned long long>(rep.failed),
              static_cast<unsigned long long>(rep.attempted));
  for (const auto& n : rep.notes) std::cout << "  FAIL: " << n << '\n';
  std::cout << rep.json_line(names) << std::endl;
  return 0;
}
