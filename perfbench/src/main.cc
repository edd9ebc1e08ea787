// Benchmark binary: runs one workload and prints its result as one JSON line
// (the last line of stdout). perfbench/run.py builds this binary, passes
// the workload's parameters from workloads.json, checks request accounting
// and reduces the result to the metrics BENCHMARK.json names.
//
//   perfbench_main --workload=NAME --seed=N --seconds=S --trace=0|1
//       --out_dir=DIR --setup_reps=N [--tamper_probe] [--stall_scoring]
//       workload parameters...
//
// Exits 1, printing no result line, when the correctness gate trips.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "core/auth_server.h"
#include "ml/krr_approx.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opts(argc, argv);
    RunConfig run;
    run.workload = opts.str("workload");
    run.seed = static_cast<std::uint64_t>(opts.integer("seed"));
    run.seconds = opts.num("seconds");
    run.trace = opts.integer("trace") != 0;
    run.tamper_probe = opts.has("tamper_probe");
    run.stall_scoring = opts.has("stall_scoring");
    run.setup_reps = static_cast<int>(opts.integer("setup_reps"));
    run.threads = std::min(std::max(1u, std::thread::hardware_concurrency()),
                           run.threads);
    run.out_dir = opts.str("out_dir");
    run.params = &opts;
    std::filesystem::create_directories(run.out_dir);

    Result result;
    if (run.workload == "phone_window") {
      result = run_phone_window(run);
    } else if (run.workload == "gateway_score") {
      result = run_gateway_score(run);
    } else if (run.workload == "gateway_churn") {
      result = run_gateway_churn(run);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n",
                   run.workload.c_str());
      return 2;
    }
    result.identity = machine_identity();
    result.identity["seed"] = std::to_string(run.seed);
    result.identity["krr_mode"] =
        sy::ml::to_string(sy::core::TrainingConfig{}.krr.mode);
    result.identity["threads"] = std::to_string(run.threads);
    result.identity["traced"] = std::to_string(run.trace ? 1 : 0);
    print_report(run.workload, result);
    if (!result.errors.empty()) return 1;
    std::printf("%s\n", to_json(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
