// Shared plumbing for the benchmark binary: options, clocks, latency
// summaries, request accounting and the result record the binary prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// `--key=value` / `--key value` options. Every workload parameter comes in
/// this way from run.py, which reads it from workloads.json. Unlike
/// util::Args there is no environment fallback and no default: a missing key
/// is an error, so nothing but workloads.json can change a run.
class Options {
 public:
  Options(int argc, char** argv);
  bool has(const std::string& key) const { return values_.count(key) > 0; }
  std::string str(const std::string& key) const;
  double num(const std::string& key) const;
  long integer(const std::string& key) const;
  std::vector<double> list(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Waits until `due_ns` by spinning, so open-loop arrivals leave on time. A
/// generator that sleeps between arrivals wakes milliseconds late now and
/// then on a VM whose idle virtual CPU had to be rescheduled, and every
/// request due meanwhile is charged that lateness. Run it on a CPU of its
/// own (pin_cpus).
void wait_until(std::int64_t due_ns);

inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile of `values`. A failed or shed operation is
/// recorded as +inf, so it counts as missing any limit.
double percentile(std::vector<double> values, double p);

/// Operations of one timed phase: sent = ok + shed + failed must hold.
struct Phase {
  std::string name;
  std::uint64_t sent{0};
  std::uint64_t ok{0};
  std::uint64_t shed{0};
  std::uint64_t failed{0};
};

struct Metric {
  double value{0.0};
  std::string unit;
};

/// Everything one run reports. `e2e` holds the untraced end-to-end
/// metrics, `layers` the traced per-layer metrics, `detail` the named
/// breakdown printed for people (per-rate latencies, enroll tails).
struct Result {
  std::map<std::string, std::string> identity;
  std::vector<Phase> phases;
  std::vector<std::string> errors;  // correctness-gate failures
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layers;
  std::map<std::string, Metric> detail;

  void fail(const std::string& what) { errors.push_back(what); }
};

/// Moves the calling thread to the `k`-th CPU (mod the number allowed at
/// first use). A single-thread loop that calls this as it goes samples every
/// CPU in each run, instead of whichever one the scheduler happened to give
/// it (on a small VM one CPU also takes the interrupts and runs measurably
/// slower).
void rotate_cpu(std::uint64_t k);

/// Restricts the calling thread to allowed CPUs [first, first + count)
/// (mod the number allowed; a no-op with fewer than two). Threads it starts
/// afterwards inherit the set: a load generator pins its pool to CPUs of
/// their own this way, then itself to the one left, so it never takes a
/// worker's CPU.
void pin_cpus(std::size_t first, std::size_t count);

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// CPU model, nproc, num:: backend, build type: the fields that make two
/// results comparable. Seed and training mode are added by the caller.
std::map<std::string, std::string> machine_identity();

/// One-line JSON rendering of the result (the last line the binary prints).
std::string to_json(const Result& result);

/// Human-readable report of every metric, by name and unit, on stderr.
void print_report(const std::string& workload, const Result& result);

/// Percentile `p` of each run of `window` consecutive operations, in the
/// order they were issued; the last window takes the remainder. Fewer than
/// two full windows: one value, the percentile of everything.
std::vector<double> window_percentiles(const std::vector<double>& in_order,
                                       double p, std::size_t window);

/// Median of a small sample (setup repetitions).
double median(std::vector<double> values);

}  // namespace perfbench
