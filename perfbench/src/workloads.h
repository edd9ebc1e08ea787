// The benchmark's workloads. Each builds its fixture `setup_reps` times
// (setup_s is the median), generates its inputs from the seed, measures for
// `seconds`, then runs its correctness gate.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{10.0};
  bool trace{false};
  /// Test hook: corrupt one re-scored probe result so the gate must trip.
  bool tamper_probe{false};
  /// Test hook: delay every open-loop scoring request so the backlog runs
  /// over and the phase stops sending.
  bool stall_scoring{false};
  int setup_reps{3};
  /// Threads in total, counting the load generator and the gateway's pool:
  /// four, or nproc if fewer.
  unsigned threads{4};
  std::string out_dir;
  const Options* params{nullptr};
};

Result run_phone_window(const RunConfig& run);
Result run_gateway_score(const RunConfig& run);
Result run_gateway_churn(const RunConfig& run);

}  // namespace perfbench
