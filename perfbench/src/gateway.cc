// gateway_score and gateway_churn: the serving path, serve::AuthGateway over
// ModelCache, ShardedPopulationStore and RetrainQueue, calling into core,
// ml, num and the util thread pool.
//
// Users are synthetic 28-dim feature clouds (the gateway only ever sees
// precomputed vectors). The enrolled population, its models and the probe
// payloads come from a fixed corpus seed per workload; --seed draws the arrival
// times, which user each request names, which payload it carries, and the
// churn client's uploads.
//
// Load comes from one process: a generator thread (this one) paces
// Poisson arrivals and hands each request to the gateway's pool, so a
// request's latency runs from its due time and includes its queue wait.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <future>
#include <thread>

#include "obs/registry.h"
#include "serve/auth_gateway.h"
#include "serve/resilience.h"
#include "trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sy;

using sensors::DetectedContext;

// ---------------------------------------------------------------------------
// Synthetic users.

/// Feature clouds: user u's windows are N(center_u, noise^2 I) with
/// center_u ~ N(0, spread^2 I). Token ranges keep the roles apart.
struct Corpus {
  std::uint64_t seed;
  std::size_t dim;
  double spread;
  double noise;

  static constexpr int kContributorBase = 1'000'000;
  static constexpr int kAttackerBase = 2'000'000;  // never enrolled
  static constexpr int kChurnBase = 3'000'000;

  std::vector<double> center(int token) const {
    util::Rng rng(util::splitmix64(seed ^ static_cast<std::uint64_t>(token)));
    std::vector<double> c(dim);
    for (auto& v : c) v = rng.gaussian(0.0, spread);
    return c;
  }
  std::vector<std::vector<double>> windows(int token, std::size_t n,
                                           util::Rng& rng) const {
    const auto c = center(token);
    std::vector<std::vector<double>> out(n, std::vector<double>(dim));
    for (auto& v : out) {
      for (std::size_t d = 0; d < dim; ++d) v[d] = rng.gaussian(c[d], noise);
    }
    return out;
  }
  static DetectedContext context_of(int user) {
    return user % 2 == 0 ? DetectedContext::kStationary
                         : DetectedContext::kMoving;
  }
};

// Fixed by design, the same in every workload and size.
constexpr std::size_t kDim = 28;          // paper-scale phone+watch vectors
constexpr double kSpread = 0.55;          // user centers ~ N(0, spread^2 I)
constexpr double kNoise = 1.0;            // windows ~ N(center, noise^2 I)
constexpr int kPayloads = 4;              // per user: half owner, half impostor
constexpr std::size_t kRequestWindows = 4;
/// Test hook (--stall_scoring): each scoring request sleeps this long first.
constexpr std::int64_t kStallNs = 50'000'000;

struct GatewayParams {
  Corpus corpus;
  int users;            // enrolled users scored by the load
  int contributors;     // anonymous population donors
  std::size_t contrib_windows;  // per contributor per context
  std::size_t train_windows;    // positives per enrollment (N = 2x)
  std::size_t cache_mb;

  GatewayParams(const Options& o, std::uint64_t corpus_seed)
      : corpus{corpus_seed, kDim, kSpread, kNoise},
        users(static_cast<int>(o.integer("users"))),
        contributors(static_cast<int>(o.integer("contributors"))),
        contrib_windows(static_cast<std::size_t>(o.integer("contrib_windows"))),
        train_windows(static_cast<std::size_t>(o.integer("train_windows"))),
        cache_mb(static_cast<std::size_t>(o.integer("cache_mb"))) {}
};

/// One request body and the decisions the gateway gave it right after
/// enrollment; every later answer must match bit for bit.
struct Payload {
  std::vector<std::vector<double>> windows;
  bool owner{false};
  std::vector<core::AuthDecision> expected;
};

bool same_decisions(const std::vector<core::AuthDecision>& a,
                    const std::vector<core::AuthDecision>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].accepted != b[i].accepted || a[i].context != b[i].context ||
        std::memcmp(&a[i].confidence, &b[i].confidence,
                    sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// A gateway with its population contributed and its users enrolled.
struct Fixture {
  std::unique_ptr<serve::AuthGateway> gateway;
  std::vector<Payload> payloads;  // [user * payloads + p]
};

void build_fixture(Fixture& fx, const GatewayParams& p,
                   util::ThreadPool& pool, const std::string& model_dir) {
  fx.gateway.reset();
  std::error_code ec;
  std::filesystem::remove_all(model_dir, ec);
  serve::GatewayConfig config;
  config.cache_bytes = p.cache_mb << 20;
  config.model_dir = model_dir;
  fx.gateway = std::make_unique<serve::AuthGateway>(config, &pool);
  serve::AuthGateway& gw = *fx.gateway;

  // Sequential contributions keep the store's order, and so every drawn
  // impostor set and every model, identical from run to run.
  for (int i = 0; i < p.contributors; ++i) {
    const int token = Corpus::kContributorBase + i;
    util::Rng rng(util::splitmix64(p.corpus.seed + 7 * static_cast<std::uint64_t>(i) + 1));
    for (const auto context :
         {DetectedContext::kStationary, DetectedContext::kMoving}) {
      gw.contribute(token, context,
                    p.corpus.windows(token, p.contrib_windows, rng));
    }
  }
  pool.parallel_for(static_cast<std::size_t>(p.users), [&](std::size_t u) {
    const int user = static_cast<int>(u);
    util::Rng rng(util::splitmix64(p.corpus.seed + 13 * u + 2));
    core::VectorsByContext positives;
    positives[Corpus::context_of(user)] =
        p.corpus.windows(user, p.train_windows, rng);
    (void)gw.enroll(user, positives, rng.next_u64(),
                    /*contribute_positives=*/false);
  });
}

/// Probe payloads: each user gets owner payloads from its own cloud and
/// impostor payloads from a never-enrolled attacker's cloud.
std::vector<Payload> build_payloads(const GatewayParams& p) {
  std::vector<Payload> out;
  out.reserve(static_cast<std::size_t>(p.users * kPayloads));
  for (int u = 0; u < p.users; ++u) {
    for (int k = 0; k < kPayloads; ++k) {
      const bool owner = k < kPayloads / 2;
      util::Rng rng(util::splitmix64(p.corpus.seed + 31 * static_cast<std::uint64_t>(u) +
                                     static_cast<std::uint64_t>(k) + 3));
      const int source = owner ? u : Corpus::kAttackerBase + u;
      out.push_back(Payload{p.corpus.windows(source, kRequestWindows, rng),
                            owner, {}});
    }
  }
  return out;
}

/// Scores every probe payload (users in parallel). Returns decisions in
/// payload order.
std::vector<std::vector<core::AuthDecision>> score_probe(
    serve::AuthGateway& gw, util::ThreadPool& pool, const GatewayParams& p,
    const std::vector<Payload>& payloads) {
  std::vector<std::vector<core::AuthDecision>> out(payloads.size());
  pool.parallel_for(static_cast<std::size_t>(p.users), [&](std::size_t u) {
    const int user = static_cast<int>(u);
    for (int k = 0; k < kPayloads; ++k) {
      const std::size_t i = u * static_cast<std::size_t>(kPayloads) +
                            static_cast<std::size_t>(k);
      out[i] = gw.score_batch(user, Corpus::context_of(user),
                              payloads[i].windows);
    }
  });
  return out;
}

struct Accuracy {
  double frr{0.0};
  double far{0.0};
  std::uint64_t owner_windows{0};
  std::uint64_t impostor_windows{0};
};

Accuracy accuracy(const std::vector<Payload>& payloads) {
  Accuracy a;
  std::uint64_t rejected = 0, accepted = 0;
  for (const auto& pl : payloads) {
    for (const auto& d : pl.expected) {
      if (pl.owner) {
        ++a.owner_windows;
        rejected += d.accepted ? 0 : 1;
      } else {
        ++a.impostor_windows;
        accepted += d.accepted ? 1 : 0;
      }
    }
  }
  a.frr = static_cast<double>(rejected) / static_cast<double>(a.owner_windows);
  a.far = static_cast<double>(accepted) / static_cast<double>(a.impostor_windows);
  return a;
}

/// Correctness gate: the whole probe set again, bit for bit.
void probe_gate(Result& result, Fixture& fx, util::ThreadPool& pool,
                const GatewayParams& p, bool tamper) {
  auto after = score_probe(*fx.gateway, pool, p, fx.payloads);
  if (tamper && !after.empty() && !after[0].empty()) {
    std::uint64_t bits;
    std::memcpy(&bits, &after[0][0].confidence, sizeof bits);
    bits ^= 1;
    std::memcpy(&after[0][0].confidence, &bits, sizeof bits);
  }
  std::size_t diff = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (!same_decisions(after[i], fx.payloads[i].expected)) ++diff;
  }
  if (diff > 0) {
    result.fail(std::to_string(diff) +
                " probe payloads changed decision or confidence after the load");
  }
}

// ---------------------------------------------------------------------------
// Registry deltas over a timed section (metrics the gateway already keeps).

struct RegistryDelta {
  obs::Snapshot before;
  obs::Snapshot after;

  std::uint64_t counter(const std::string& name) const {
    const auto a = after.counters.find(name);
    const auto b = before.counters.find(name);
    return (a == after.counters.end() ? 0 : a->second) -
           (b == before.counters.end() ? 0 : b->second);
  }
  std::int64_t gauge(const std::string& name) const {
    const auto a = after.gauges.find(name);
    const auto b = before.gauges.find(name);
    return (a == after.gauges.end() ? 0 : a->second) -
           (b == before.gauges.end() ? 0 : b->second);
  }
  /// Percentile of the values a histogram recorded inside the section, by
  /// the registry's own bucketing.
  double percentile(const std::string& name, double q) const {
    const auto a = after.histograms.find(name);
    if (a == after.histograms.end()) return 0.0;
    obs::HistogramSnapshot delta = a->second;
    const auto b = before.histograms.find(name);
    if (b != before.histograms.end()) {
      delta.count -= b->second.count;
      for (auto& [index, count] : delta.buckets) {
        for (const auto& [bi, bc] : b->second.buckets) {
          if (bi == index) count -= bc;
        }
      }
    }
    return static_cast<double>(delta.percentile(q));
  }
};

void put_registry_layers(Result& result, const RegistryDelta& d) {
  for (const char* stage : {"cache_fetch", "feature_lookup", "kernel",
                            "decision"}) {
    const std::string name = std::string("gateway.score.") + stage + "_ns";
    result.layers[name + ".p50"] = {d.percentile(name, 0.50), "ns"};
    result.layers[name + ".p99"] = {d.percentile(name, 0.99), "ns"};
  }
  const double hits = static_cast<double>(d.counter("cache.hits"));
  const double misses = static_cast<double>(d.counter("cache.misses"));
  result.layers["cache.lookups"] = {hits + misses, "count"};
  result.layers["cache.hit_ratio"] = {
      hits + misses > 0 ? hits / (hits + misses) : 0.0, "fraction"};
  result.layers["cache.loads"] = {static_cast<double>(d.counter("cache.loads")),
                                  "count"};
  result.layers["cache.evictions"] = {
      static_cast<double>(d.counter("cache.evictions")), "count"};
  const auto tasks = d.gauge("pool.tasks_executed");
  result.layers["pool.tasks"] = {static_cast<double>(tasks), "count"};
  result.layers["pool.queue_wait_ns"] = {
      tasks > 0 ? static_cast<double>(d.gauge("pool.queue_wait_ns")) /
                      static_cast<double>(tasks)
                : 0.0,
      "ns"};
  result.layers["gateway.admission.shed_saturated"] = {
      static_cast<double>(d.counter("gateway.admission.shed_saturated")),
      "count"};
  result.layers["gateway.admission.shed_deadline"] = {
      static_cast<double>(d.counter("gateway.admission.shed_deadline")),
      "count"};
}

void put_span_layers(Result& result, const Tracer& tracer) {
  const auto spans = tracer.summarize();
  const auto put = [&](const std::string& metric, const char* span) {
    std::vector<double> v;
    if (const auto it = spans.find(span); it != spans.end()) {
      v = it->second.dur_us;
    }
    result.layers[metric + ".p50"] = {percentile(v, 0.50), "us"};
    result.layers[metric + ".p99"] = {percentile(v, 0.99), "us"};
  };
  put("serve.queue_wait_us", "serve.queue_wait");
  put("serve.score_us", "serve.score");
}

// ---------------------------------------------------------------------------
// Open-loop scoring.

struct Arrival {
  std::int64_t offset_ns;
  int user;
  int payload;
};

/// Poisson arrivals at `rate` for `seconds`; `pick` names the user.
template <typename Pick>
std::vector<Arrival> schedule(double rate, double seconds, util::Rng& rng,
                              Pick pick) {
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += rng.exponential(rate);
    if (t >= seconds) break;
    const int user = pick(rng);
    out.push_back(Arrival{static_cast<std::int64_t>(t * 1e9), user,
                          rng.uniform_int(0, kPayloads - 1)});
  }
  return out;
}

enum class Status : std::uint8_t { kOk, kShed, kFailed, kMismatch, kUnsent };

struct Timing {
  std::int64_t due{0};
  std::int64_t dispatched{0};
  std::int64_t started{0};
  std::int64_t ended{0};
  Status status{Status::kUnsent};
};

/// How a phase treats arrivals it never sent because the backlog ran over.
enum class Unsent {
  kFailed,    // a timed phase: each one was due and got no answer
  kStopRule,  // a ladder probe: stopping at saturation is how it fails a rung
};

struct LoopResult {
  Phase phase;
  std::vector<Timing> timings;  // one per arrival, in schedule order
  std::size_t unsent{0};

  /// Latency from due time in ms; shed, failed, mismatched and unsent
  /// requests are +inf.
  std::vector<double> latencies_ms(int parity = -1) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < timings.size(); ++i) {
      if (parity >= 0 && static_cast<int>(i % 2) != parity) continue;
      const Timing& t = timings[i];
      out.push_back(t.status == Status::kOk
                        ? static_cast<double>(t.ended - t.due) / 1e6
                        : kFailedLatency);
    }
    return out;
  }
  std::vector<double> late_us() const {
    std::vector<double> out;
    for (const Timing& t : timings) {
      if (t.status == Status::kUnsent) continue;
      out.push_back(static_cast<double>(t.dispatched - t.due) / 1e3);
    }
    return out;
  }
  /// Summed score_batch call time (start to end) of every sent request.
  double busy_seconds() const {
    std::int64_t busy = 0;
    for (const Timing& t : timings) {
      if (t.status != Status::kUnsent) busy += t.ended - t.started;
    }
    return static_cast<double>(busy) / 1e9;
  }
  /// Completed requests per second, first due time to last completion.
  double achieved_rate() const {
    if (timings.empty()) return 0.0;
    std::int64_t last = 0;
    for (const Timing& t : timings) last = std::max(last, t.ended);
    return static_cast<double>(phase.ok) /
           (static_cast<double>(last - timings.front().due) / 1e9);
  }
};

/// Sends `arrivals` on schedule, one pool task per request, and stops
/// sending once more than `backlog_s` seconds of arrivals at `rate` are in
/// flight: the rate is past saturation and the queue would only grow.
/// `unsent` says how the requests left over are counted. With a tracer,
/// every other request is traced; `stall_ns` delays every request (test
/// hook).
LoopResult open_loop(const std::string& name, serve::AuthGateway& gw,
                     util::ThreadPool& pool, const std::vector<Payload>& payloads,
                     const std::vector<Arrival>& arrivals, double rate,
                     double backlog_s, Unsent unsent, Tracer* tracer,
                     std::int64_t stall_ns) {
  const auto max_backlog =
      static_cast<std::size_t>(std::max(16.0, rate * backlog_s));
  LoopResult r;
  r.phase.name = name;
  r.timings.resize(arrivals.size());
  std::atomic<std::size_t> completed{0};
  std::size_t sent = 0;
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (; sent < arrivals.size(); ++sent) {
    const Arrival& a = arrivals[sent];
    const std::int64_t due = t0 + a.offset_ns;
    wait_until(due);
    if (sent - completed.load(std::memory_order_acquire) > max_backlog) break;
    Timing& timing = r.timings[sent];
    timing.due = due;
    timing.dispatched = now_ns();
    const std::size_t i = sent;
    pool.submit([&, i] {
      const Arrival& req = arrivals[i];
      Timing& t = r.timings[i];
      t.started = now_ns();
      Tracer* tr = (tracer != nullptr && i % 2 == 0) ? tracer : nullptr;
      std::uint32_t root = Tracer::kNoSpan, score = Tracer::kNoSpan;
      if (tr != nullptr) {
        root = tr->open("serve.request", i, Tracer::kNoSpan, t.due);
        tr->close(tr->open("serve.queue_wait", i, root, t.due), t.started);
        score = tr->open("serve.score", i, root, t.started);
      }
      if (stall_ns > 0) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(stall_ns));
      }
      const Payload& pl = payloads[static_cast<std::size_t>(
          req.user * kPayloads + req.payload)];
      Status status = Status::kOk;
      try {
        const auto decisions =
            gw.score_batch(req.user, Corpus::context_of(req.user), pl.windows);
        status = same_decisions(decisions, pl.expected) ? Status::kOk
                                                        : Status::kMismatch;
      } catch (const serve::OverloadError&) {
        status = Status::kShed;
      } catch (const std::exception&) {
        status = Status::kFailed;
      }
      t.status = status;
      t.ended = now_ns();
      if (tr != nullptr) {
        tr->close(score, t.ended);
        tr->close(root, t.ended);
      }
      completed.fetch_add(1, std::memory_order_acq_rel);
    });
  }
  while (completed.load(std::memory_order_acquire) < sent) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  r.unsent = arrivals.size() - sent;
  r.phase.sent = sent;
  for (std::size_t i = 0; i < sent; ++i) {
    switch (r.timings[i].status) {
      case Status::kOk: ++r.phase.ok; break;
      case Status::kShed: ++r.phase.shed; break;
      default: ++r.phase.failed; break;
    }
  }
  if (unsent == Unsent::kFailed) {
    r.phase.sent += r.unsent;
    r.phase.failed += r.unsent;
  } else {
    r.timings.resize(sent);
  }
  return r;
}

std::size_t count_mismatches(const LoopResult& r) {
  std::size_t n = 0;
  for (const Timing& t : r.timings) n += t.status == Status::kMismatch ? 1 : 0;
  return n;
}

/// Records a phase, with its latency at its rate, and turns any mismatched
/// answer into a gate failure.
void account(Result& result, const LoopResult& r) {
  result.phases.push_back(r.phase);
  auto lat = r.latencies_ms();
  const std::string key = "phase." + r.phase.name;
  result.detail[key + ".p50_ms"] = {percentile(lat, 0.5), "ms"};
  result.detail[key + ".p99_ms"] = {percentile(lat, 0.99), "ms"};
  result.detail[key + ".requests"] = {static_cast<double>(r.phase.sent), "count"};
  if (r.unsent > 0) {
    result.detail[key + ".unsent"] = {static_cast<double>(r.unsent), "count"};
  }
  if (const std::size_t bad = count_mismatches(r); bad > 0) {
    result.fail(std::to_string(bad) + " requests in phase " + r.phase.name +
                " got decisions that differ from the probe reference");
  }
}

/// Primary-latency p50 of traced over untraced requests, in percent.
double overhead_pct(const LoopResult& r) {
  auto traced = r.latencies_ms(0);
  auto untraced = r.latencies_ms(1);
  const double u = percentile(untraced, 0.5);
  return u > 0 ? 100.0 * (percentile(traced, 0.5) / u - 1.0) : 0.0;
}

Accuracy setup_and_probe(Result& result, Fixture& fx, const GatewayParams& p,
                         util::ThreadPool& pool, const RunConfig& run,
                         const std::string& model_dir) {
  std::vector<double> setup_s;
  for (int rep = 0; rep < run.setup_reps; ++rep) {
    const std::int64_t t0 = now_ns();
    build_fixture(fx, p, pool, model_dir);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  result.e2e["setup_s"] = {median(setup_s), "s"};
  // Untimed: write the bundles back now, so the kernel's writeback of the
  // last setup does not compete with the timed phases.
  if (const int fd = ::open(model_dir.c_str(), O_RDONLY | O_DIRECTORY);
      fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
  fx.payloads = build_payloads(p);
  const auto reference = score_probe(*fx.gateway, pool, p, fx.payloads);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    fx.payloads[i].expected = reference[i];
  }
  return accuracy(fx.payloads);
}

void put_common_e2e(Result& result, const Accuracy& acc) {
  std::uint64_t sent = 0, ok = 0;
  for (const Phase& ph : result.phases) {
    sent += ph.sent;
    ok += ph.ok;
  }
  result.e2e["frr"] = {acc.frr, "fraction"};
  result.e2e["far"] = {acc.far, "fraction"};
  result.e2e["ok_frac"] = {
      sent > 0 ? static_cast<double>(ok) / static_cast<double>(sent) : 0.0,
      "fraction"};
  result.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  result.detail["probe_owner_windows"] = {
      static_cast<double>(acc.owner_windows), "count"};
  result.detail["probe_impostor_windows"] = {
      static_cast<double>(acc.impostor_windows), "count"};
}

}  // namespace

// ---------------------------------------------------------------------------

Result run_gateway_score(const RunConfig& run) {
  constexpr std::uint64_t kCorpusSeed = 20170627;
  // 10% of users get 90% of requests. With the 24 MB cache of the full-size
  // run this leaves about 11% of lookups on the miss path.
  constexpr double kHotFraction = 0.1;
  constexpr double kHotMass = 0.9;
  // Shares of --seconds: rate_lo, whose tail is gated, gets the most; the
  // ladder gets what rate_hi leaves.
  constexpr double kLoShare = 0.5;
  constexpr double kHiShare = 0.15;
  const Options& o = *run.params;
  const GatewayParams p(o, kCorpusSeed);
  const double rate_lo = o.num("rate_lo");
  const double rate_hi = o.num("rate_hi");
  std::vector<double> ladder = o.list("ladder");
  std::sort(ladder.begin(), ladder.end());
  const double slo_ms = o.num("slo_ms");
  const double warm_s = o.num("warm_seconds");
  const double min_probe_requests = o.num("min_probe_requests");
  const std::int64_t stall_ns = run.stall_scoring ? kStallNs : 0;

  Result result;
  // The pool's workers on CPUs 1.., the generator (this thread) on CPU 0.
  pin_cpus(1, std::max(1u, run.threads - 1));
  util::ThreadPool pool(std::max(1u, run.threads - 1));
  pin_cpus(0, 1);
  const std::string model_dir = run.out_dir + "/models_gateway_score";
  Fixture fx;
  const Accuracy acc = setup_and_probe(result, fx, p, pool, run, model_dir);
  serve::AuthGateway& gw = *fx.gateway;

  // Hot-set skew over a seeded choice of hot users.
  util::Rng rng(util::splitmix64(run.seed) + 5);
  std::vector<int> order(static_cast<std::size_t>(p.users));
  for (int u = 0; u < p.users; ++u) order[static_cast<std::size_t>(u)] = u;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1],
              order[static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1))]);
  }
  const int hot = std::max(1, static_cast<int>(kHotFraction * p.users));
  const auto pick = [&](util::Rng& r) {
    const bool is_hot = r.uniform() < kHotMass;
    return order[static_cast<std::size_t>(
        r.uniform_int(0, (is_hot ? hot : p.users) - 1))];
  };
  const auto loop = [&](const std::string& name, double rate, double seconds,
                        Unsent unsent, Tracer* tracer) {
    const auto arrivals = schedule(rate, seconds, rng, pick);
    return open_loop(name, gw, pool, fx.payloads, arrivals, rate,
                     /*backlog_s=*/0.1, unsent, tracer, stall_ns);
  };

  Tracer tracer(run.trace);
  Tracer* traced = run.trace ? &tracer : nullptr;
  account(result, loop("warm", rate_lo, warm_s, Unsent::kFailed, nullptr));

  RegistryDelta delta;
  delta.before = gw.metrics().snapshot();
  const LoopResult lo = loop("rate_lo", rate_lo, run.seconds * kLoShare,
                             Unsent::kFailed, traced);
  const LoopResult hi = loop("rate_hi", rate_hi, run.seconds * kHiShare,
                             Unsent::kFailed, traced);
  delta.after = gw.metrics().snapshot();
  account(result, lo);
  account(result, hi);

  // Ladder: binary search for the highest rung whose p99 stays within the
  // limit, with nothing failed and no growing backlog. Each probe lasts long
  // enough for min_probe_requests.
  const double ladder_s = run.seconds * (1.0 - kLoShare - kHiShare);
  const int probes = static_cast<int>(std::ceil(std::log2(ladder.size() + 1.0)));
  int good = -1, bad = static_cast<int>(ladder.size());
  double max_rps = 0.0;
  while (bad - good > 1) {
    const int mid = (good + bad) / 2;
    const double rate = ladder[static_cast<std::size_t>(mid)];
    const double seconds =
        std::max(ladder_s / probes, min_probe_requests / rate);
    const LoopResult r =
        loop("ladder_" + std::to_string(static_cast<long>(rate)), rate, seconds,
             Unsent::kStopRule, nullptr);
    account(result, r);
    // A growing backlog shows as the last tenth's median latency rising
    // past the limit, or as the probe stopping early; a passing rung has
    // neither.
    const auto lat = r.latencies_ms();
    const std::vector<double> last(lat.end() - static_cast<std::ptrdiff_t>(lat.size() / 10),
                                   lat.end());
    const bool pass = r.unsent == 0 && r.phase.ok == r.phase.sent &&
                      percentile(lat, 0.99) <= slo_ms &&
                      percentile(last, 0.5) <= slo_ms;
    if (pass) {
      good = mid;
      max_rps = r.achieved_rate();
    } else {
      bad = mid;
    }
  }
  gw.wait_idle();
  probe_gate(result, fx, pool, p, run.tamper_probe);

  auto lo_lat = lo.latencies_ms();
  auto hi_lat = hi.latencies_ms();
  // Gated tail: each 1000-request window's p99, median over the ~15 windows
  // of rate_lo. A host stall of a few milliseconds (other tenants on a
  // shared VM) then moves one window, not the figure: the pooled p99 of the
  // phase spread 0.49 over 10 seeds on a busy 4-vCPU host, this figure
  // 0.06-0.17. It reads below the pooled p99, and misses a regression that
  // stalls fewer than half the windows, so the pooled p99 and the worst
  // window's p99 are reported beside it.
  constexpr std::size_t kP99Window = 1000;
  const auto lo_windows = window_percentiles(lo_lat, 0.99, kP99Window);
  const auto late = [&] {
    auto v = lo.late_us();
    const auto hi_late = hi.late_us();
    v.insert(v.end(), hi_late.begin(), hi_late.end());
    return v;
  }();
  result.e2e["p50_ms"] = {percentile(lo_lat, 0.50), "ms"};
  result.e2e["p99_ms"] = {median(lo_windows), "ms"};
  // Gated: the inverse of the mean in-call service time, i.e. requests
  // served per second of summed score_batch call time at the two fixed
  // rates. It leaves out queueing and is not the gateway's capacity, which
  // is about `threads - 1` times this; score_max_rps, the capacity under the
  // latency limit, is reported only, because the rate at which a tail limit
  // is first missed amplifies host speed noise (10-run spread 0.27).
  const double served_per_busy_s =
      static_cast<double>(lo.phase.ok + hi.phase.ok) /
      (lo.busy_seconds() + hi.busy_seconds());
  result.e2e["ops_per_s"] = {served_per_busy_s, "1/s"};
  put_common_e2e(result, acc);
  result.detail["score_ms_p50.lo"] = result.e2e["p50_ms"];
  result.detail["score_ms_p99.lo"] = result.e2e["p99_ms"];
  result.detail["score_ms_p99_all.lo"] = {percentile(lo_lat, 0.99), "ms"};
  result.detail["score_ms_p99_worst_window.lo"] = {
      *std::max_element(lo_windows.begin(), lo_windows.end()), "ms"};
  result.detail["score_ms_p50.hi"] = {percentile(hi_lat, 0.50), "ms"};
  result.detail["score_ms_p99.hi"] = {percentile(hi_lat, 0.99), "ms"};
  result.detail["score_max_rps"] = {max_rps, "1/s"};
  result.detail["score_max_rung"] = {
      good >= 0 ? ladder[static_cast<std::size_t>(good)] : 0.0, "1/s"};
  result.detail["gen.late_us.p99"] = {percentile(late, 0.99), "us"};

  if (run.trace) {
    put_registry_layers(result, delta);
    put_span_layers(result, tracer);
    for (const char* tail : {"score_ms_p99_all.lo", "score_ms_p99_worst_window.lo"}) {
      result.layers[std::string("tail.") + tail] = result.detail[tail];
    }
    result.layers["gen.late_us.p99"] = result.detail["gen.late_us.p99"];
    result.layers["trace.overhead_pct"] = {overhead_pct(lo), "%"};
    result.layers["trace.spans"] = {
        static_cast<double>(tracer.write(run.out_dir +
                                         "/trace_gateway_score_seed" +
                                         std::to_string(run.seed) + ".tsv")),
        "count"};
  }
  fx.gateway.reset();
  std::error_code ec;
  std::filesystem::remove_all(model_dir, ec);
  return result;
}

Result run_gateway_churn(const RunConfig& run) {
  constexpr std::uint64_t kCorpusSeed = 20170628;
  constexpr std::size_t kContributeWindows = 40;  // per client contribution
  const Options& o = *run.params;
  const GatewayParams p(o, kCorpusSeed);
  const double rate = o.num("rate");
  const int churn_users = static_cast<int>(o.integer("churn_users"));
  const auto churn_windows =
      static_cast<std::size_t>(o.integer("churn_train_windows"));

  Result result;
  // The generator (this thread) on CPU 0, the enrolling client on CPU 1,
  // the pool's workers on CPUs 2...
  pin_cpus(2, std::max(1u, run.threads - 2));
  util::ThreadPool pool(std::max(1u, run.threads - 2));
  pin_cpus(0, 1);
  const std::string model_dir = run.out_dir + "/models_gateway_churn";
  Fixture fx;
  const Accuracy acc = setup_and_probe(result, fx, p, pool, run, model_dir);
  serve::AuthGateway& gw = *fx.gateway;

  // The client's uploads, drawn from the seed ahead of time: each churn
  // user enrolls both contexts (a phone waiting for its full model).
  util::Rng rng(util::splitmix64(run.seed) + 9);
  std::vector<core::VectorsByContext> uploads(static_cast<std::size_t>(churn_users));
  for (int c = 0; c < churn_users; ++c) {
    for (const auto context :
         {DetectedContext::kStationary, DetectedContext::kMoving}) {
      uploads[static_cast<std::size_t>(c)][context] =
          p.corpus.windows(Corpus::kChurnBase + c, churn_windows, rng);
    }
  }
  const auto donation = p.corpus.windows(Corpus::kContributorBase - 1,
                                         kContributeWindows, rng);
  const auto arrivals = schedule(rate, run.seconds, rng,
                                 [&](util::Rng& r) {
                                   return r.uniform_int(0, p.users - 1);
                                 });

  Tracer tracer(run.trace);
  Tracer* traced = run.trace ? &tracer : nullptr;
  struct Client {
    std::vector<double> enroll_ms;
    std::vector<std::shared_future<core::AuthModel>> drifts;
    Phase enrolls{"enroll"}, contributes{"contribute"}, drift{"drift_report"};
    double active_s{0.0};
  } client;
  std::atomic<bool> stop{false};

  RegistryDelta delta;
  delta.before = gw.metrics().snapshot();
  std::thread client_thread([&] {
    pin_cpus(1, 1);
    const std::int64_t t0 = now_ns();
    for (std::uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
      Tracer* tr = (traced != nullptr && i % 2 == 0) ? traced : nullptr;
      const int c = static_cast<int>(i % static_cast<std::uint64_t>(churn_users));
      const auto timed = [&](Phase& ph, const char* span, auto&& call) {
        ++ph.sent;
        Scoped s(tr, span, i);
        const std::int64_t start = now_ns();
        try {
          call();
          ++ph.ok;
        } catch (const std::exception&) {
          ++ph.failed;
          return kFailedLatency;
        }
        return static_cast<double>(now_ns() - start);
      };
      client.enroll_ms.push_back(
          timed(client.enrolls, "serve.enroll", [&] {
            // Re-enrollments do not re-contribute the same uploads, so the
            // store (and memory) grows only by the small donations below,
            // not in step with enroll throughput.
            (void)gw.enroll(Corpus::kChurnBase + c,
                            uploads[static_cast<std::size_t>(c)],
                            run.seed + i, /*contribute_positives=*/false);
          }) / 1e6);
      (void)timed(client.contributes, "serve.contribute", [&] {
        gw.contribute(Corpus::kContributorBase - 1 - static_cast<int>(i),
                      Corpus::context_of(static_cast<int>(i)), donation);
      });
      // One drift retrain in flight at a time: the next report goes out
      // once the previous retrain is installed, so retraining keeps one pool
      // worker busy instead of arriving in bursts that stall every worker.
      if (client.drifts.empty() ||
          client.drifts.back().wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        const int target = static_cast<int>(
            (i + static_cast<std::uint64_t>(churn_users) / 2) %
            static_cast<std::uint64_t>(churn_users));
        (void)timed(client.drift, "serve.drift_submit", [&] {
          client.drifts.push_back(gw.report_drift(
              Corpus::kChurnBase + target,
              uploads[static_cast<std::size_t>(target)], run.seed + 7 * i));
        });
      }
    }
    client.active_s = static_cast<double>(now_ns() - t0) / 1e9;
  });
  const LoopResult scores =
      open_loop("score", gw, pool, fx.payloads, arrivals, rate,
                // A retrain may hold a worker for tens of milliseconds.
                /*backlog_s=*/0.5, Unsent::kFailed, traced,
                run.stall_scoring ? kStallNs : 0);
  stop.store(true, std::memory_order_release);
  client_thread.join();
  gw.wait_idle();  // drain the drift retrains
  delta.after = gw.metrics().snapshot();
  for (auto& f : client.drifts) {
    try {
      (void)f.get();
    } catch (const std::exception&) {
      // The report was accepted but its retrain threw: a failed report.
      --client.drift.ok;
      ++client.drift.failed;
    }
  }
  account(result, scores);
  result.phases.push_back(client.enrolls);
  result.phases.push_back(client.contributes);
  result.phases.push_back(client.drift);
  probe_gate(result, fx, pool, p, run.tamper_probe);

  auto score_lat = scores.latencies_ms();
  const double enrolls_per_s =
      static_cast<double>(client.enrolls.ok) / client.active_s;
  // Enroll latency is the gated figure here. The scoring stream's tail under
  // churn is reported in detail only: on a shared 4-vCPU host its p99 ranged
  // 0.5-6.0 ms over 10 seeds, wider than any usable bound.
  result.e2e["p50_ms"] = {percentile(client.enroll_ms, 0.50), "ms"};
  result.e2e["p99_ms"] = {percentile(client.enroll_ms, 0.99), "ms"};
  result.e2e["ops_per_s"] = {enrolls_per_s, "1/s"};
  put_common_e2e(result, acc);
  result.detail["enroll_ms_p50"] = result.e2e["p50_ms"];
  result.detail["enroll_ms_p99"] = result.e2e["p99_ms"];
  result.detail["enrolls_per_s"] = {enrolls_per_s, "1/s"};
  result.detail["score_ms_p50.lo"] = {percentile(score_lat, 0.50), "ms"};
  result.detail["score_ms_p99.lo"] = {percentile(score_lat, 0.99), "ms"};
  result.detail["enrolls"] = {static_cast<double>(client.enrolls.sent), "count"};
  result.detail["gen.late_us.p99"] = {percentile(scores.late_us(), 0.99), "us"};

  if (run.trace) {
    put_registry_layers(result, delta);
    put_span_layers(result, tracer);
    result.layers["gen.late_us.p99"] = result.detail["gen.late_us.p99"];
    const auto spans = tracer.summarize();
    const auto span_p = [&](const char* name, double q, double scale) {
      const auto it = spans.find(name);
      if (it == spans.end()) return 0.0;
      return percentile(it->second.dur_us, q) * scale;
    };
    result.layers["serve.enroll_ms.p50"] = {span_p("serve.enroll", 0.5, 1e-3), "ms"};
    result.layers["serve.enroll_ms.p99"] = {span_p("serve.enroll", 0.99, 1e-3), "ms"};
    result.layers["serve.contribute_us.p50"] = {span_p("serve.contribute", 0.5, 1.0), "us"};
    result.layers["store.snapshot_rebuild_ns.p50"] = {
        delta.percentile("store.snapshot_rebuild_ns", 0.5), "ns"};
    for (const char* c : {"store.snapshot_rebuilds", "store.snapshot_reuses",
                          "store.snapshot_buckets_copied", "retrain.completed",
                          "retrain.coalesced", "retrain.shed"}) {
      result.layers[c] = {static_cast<double>(delta.counter(c)), "count"};
    }
    result.layers["retrain.train_ns.p50"] = {
        delta.percentile("retrain.train_ns", 0.5), "ns"};
    result.layers["retrain.train_ns.p99"] = {
        delta.percentile("retrain.train_ns", 0.99), "ns"};
    result.layers["gateway.drift_submit_ns.p50"] = {
        delta.percentile("gateway.drift_submit_ns", 0.5), "ns"};
    result.layers["trace.overhead_pct"] = {overhead_pct(scores), "%"};
    result.layers["trace.spans"] = {
        static_cast<double>(tracer.write(run.out_dir +
                                         "/trace_gateway_churn_seed" +
                                         std::to_string(run.seed) + ".tsv")),
        "count"};
  }
  fx.gateway.reset();
  std::error_code ec;
  std::filesystem::remove_all(model_dir, ec);
  return result;
}

}  // namespace perfbench
