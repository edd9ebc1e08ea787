#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "num/backend.h"

namespace perfbench {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_.insert_or_assign(arg, std::string(1, '1'));  // bare flag
    }
  }
}

std::string Options::str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double Options::num(const std::string& key) const {
  return std::stod(str(key));
}

long Options::integer(const std::string& key) const {
  return std::stol(str(key));
}

std::vector<double> Options::list(const std::string& key) const {
  std::vector<double> out;
  std::stringstream in(str(key));
  std::string item;
  while (std::getline(in, item, ',')) out.push_back(std::stod(item));
  if (out.empty()) throw std::invalid_argument("empty list --" + key);
  return out;
}

void wait_until(std::int64_t due_ns) {
  while (now_ns() < due_ns) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::vector<double> window_percentiles(const std::vector<double>& in_order,
                                       double p, std::size_t window) {
  const std::size_t windows = window > 0 ? in_order.size() / window : 0;
  if (windows < 2) return {percentile(in_order, p)};
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = in_order.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? in_order.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    out.push_back(percentile(std::vector<double>(begin, end), p));
  }
  return out;
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

namespace {

/// The CPUs this process may run on, as found at first use.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void rotate_cpu(std::uint64_t k) {
  const auto& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);  // best effort
}

void pin_cpus(std::size_t first, std::size_t count) {
  const auto& cpus = allowed_cpus();
  if (cpus.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = 0; i < count; ++i) {
    CPU_SET(cpus[(first + i) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof set, &set);  // best effort
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

std::map<std::string, std::string> machine_identity() {
  std::map<std::string, std::string> id;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  id["cpu_model"] = "unknown";
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        id["cpu_model"] = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  id["nproc"] = std::to_string(std::thread::hardware_concurrency());
  id["num_backend"] = std::string(sy::num::backend_name(sy::num::active_backend()));
  id["build_type"] = PERFBENCH_BUILD_TYPE;
  return id;
}

namespace {

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void metrics_json(std::ostringstream& out,
                  const std::map<std::string, Metric>& metrics) {
  out << "{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << quote(name) << ": {\"value\": "
        << number(m.value) << ", \"unit\": " << quote(m.unit) << "}";
    first = false;
  }
  out << "}";
}

}  // namespace

std::string to_json(const Result& result) {
  std::ostringstream out;
  out << "{\"identity\": {";
  bool first = true;
  for (const auto& [k, v] : result.identity) {
    out << (first ? "" : ", ") << quote(k) << ": " << quote(v);
    first = false;
  }
  out << "}, \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    out << (i ? ", " : "") << quote(result.errors[i]);
  }
  out << "], \"phases\": [";
  for (std::size_t i = 0; i < result.phases.size(); ++i) {
    const Phase& p = result.phases[i];
    out << (i ? ", " : "") << "{\"name\": " << quote(p.name)
        << ", \"sent\": " << p.sent << ", \"ok\": " << p.ok
        << ", \"shed\": " << p.shed << ", \"failed\": " << p.failed << "}";
  }
  out << "], \"e2e\": ";
  metrics_json(out, result.e2e);
  out << ", \"layers\": ";
  metrics_json(out, result.layers);
  out << ", \"detail\": ";
  metrics_json(out, result.detail);
  out << "}";
  return out.str();
}

void print_report(const std::string& workload, const Result& result) {
  std::fprintf(stderr, "perfbench %s:", workload.c_str());
  for (const auto& [k, v] : result.identity) {
    std::fprintf(stderr, " %s=%s;", k.c_str(), v.c_str());
  }
  std::fprintf(stderr, "\n");
  for (const Phase& p : result.phases) {
    std::fprintf(stderr,
                 "  phase %-14s sent %8llu  ok %8llu  shed %4llu  failed %4llu\n",
                 p.name.c_str(), static_cast<unsigned long long>(p.sent),
                 static_cast<unsigned long long>(p.ok),
                 static_cast<unsigned long long>(p.shed),
                 static_cast<unsigned long long>(p.failed));
  }
  const auto section = [](const char* title,
                          const std::map<std::string, Metric>& metrics) {
    if (metrics.empty()) return;
    std::fprintf(stderr, "  %s\n", title);
    for (const auto& [name, m] : metrics) {
      std::fprintf(stderr, "    %-40s %14.6g %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
  };
  section("end to end:", result.e2e);
  section("detail:", result.detail);
  section("per layer (traced):", result.layers);
  for (const auto& e : result.errors) {
    std::fprintf(stderr, "  CORRECTNESS FAILURE: %s\n", e.c_str());
  }
}

}  // namespace perfbench
