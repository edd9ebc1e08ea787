// phone_window: the on-phone §V-H path, one raw 6 s phone+watch window at a
// time, from samples to a response action:
//   signal+features  FeatureExtractor::auth_vectors
//   context          ContextDetector::detect
//   core/ml/num      AuthModel::score (scaler, KRR decision, RBF kernel row)
//   core             ResponseModule::on_decision
// One thread runs a closed loop over pre-cut windows; serve is not involved.
//
// The study corpus (population, training sessions, detector data, probe
// sessions) comes from the fixed kCorpusSeed, like the paper's fixed
// dataset, so frr/far are a property of the code, not of the draw. --seed
// draws the windows the loop runs and their order.
#include <algorithm>
#include <cstring>
#include <optional>
#include <span>

#include "context/context_detector.h"
#include "core/auth_model.h"
#include "core/auth_server.h"
#include "core/response.h"
#include "features/feature_extractor.h"
#include "sensors/device.h"
#include "sensors/population.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace sy;

using sensors::DetectedContext;
using sensors::UsageContext;

constexpr std::uint64_t kCorpusSeed = 20170626;
constexpr int kContributors = 12;  // users 1..12 feed the population store
constexpr int kImpostors = 3;      // held-out users after them attack the owner

struct PhoneParams {
  double train_minutes;   // owner enrollment data per context
  double contrib_minutes; // per contributor per context
  double lab_seconds;     // detector training per user per raw context
  double probe_minutes;   // owner held-out probe data per context
  int loop_windows;       // pre-cut windows the loop cycles over

  explicit PhoneParams(const Options& o)
      : train_minutes(o.num("train_minutes")),
        contrib_minutes(o.num("contrib_minutes")),
        lab_seconds(o.num("lab_seconds")),
        probe_minutes(o.num("probe_minutes")),
        loop_windows(static_cast<int>(o.integer("loop_windows"))) {}
};

constexpr UsageContext kAuthContexts[] = {UsageContext::kStationaryUse,
                                          UsageContext::kMoving};
constexpr int kTrainSessions = 4;
constexpr int kContribSessions = 2;

sensors::CollectorOptions collector(double seconds) {
  sensors::CollectorOptions c;
  c.with_watch = true;
  c.bluetooth = false;
  c.synthesis.duration_seconds = seconds;
  return c;
}

/// The trained phone: what enrollment leaves on the device.
struct PhoneFixture {
  features::FeatureExtractor extractor;
  context::ContextDetector detector;
  core::AuthModel model;
  std::size_t train_n{0};  // KRR training-set size N per context
};

PhoneFixture build_fixture(const PhoneParams& p,
                           const sensors::Population& pop) {
  PhoneFixture f;
  util::Rng rng(kCorpusSeed + 1);

  // User-agnostic context detector from the contributors' lab sessions.
  std::vector<std::vector<double>> ctx_x;
  std::vector<UsageContext> ctx_y;
  for (int u = 1; u <= kContributors; ++u) {
    for (const auto context :
         {UsageContext::kStationaryUse, UsageContext::kMoving,
          UsageContext::kOnTable, UsageContext::kVehicle}) {
      const auto s = sensors::collect_session(pop.user(u), context,
                                              collector(p.lab_seconds), rng);
      for (auto& v : f.extractor.context_vectors(s.phone)) {
        ctx_x.push_back(std::move(v));
        ctx_y.push_back(context);
      }
    }
  }
  f.detector.train(ctx_x, ctx_y);

  // Anonymized population, then the owner's per-context model.
  core::AuthServer server;
  for (int u = 1; u <= kContributors; ++u) {
    for (const auto context : kAuthContexts) {
      for (int k = 0; k < kContribSessions; ++k) {
        const auto s = sensors::collect_session(
            pop.user(u), context,
            collector(p.contrib_minutes * 60.0 / kContribSessions), rng);
        server.contribute(u, sensors::collapse_context(context),
                          f.extractor.auth_vectors(s.phone, &*s.watch));
      }
    }
  }
  // Enrollment data spans several sessions, as free-form use would.
  core::VectorsByContext positives;
  for (const auto context : kAuthContexts) {
    auto& out = positives[sensors::collapse_context(context)];
    for (int k = 0; k < kTrainSessions; ++k) {
      const auto s = sensors::collect_session(
          pop.user(0), context,
          collector(p.train_minutes * 60.0 / kTrainSessions), rng);
      for (auto& v : f.extractor.auth_vectors(s.phone, &*s.watch)) {
        out.push_back(std::move(v));
      }
    }
  }
  f.train_n = 2 * positives.begin()->second.size();  // negative_ratio 1
  f.model = server.train_user_model(0, positives, rng, 1);
  return f;
}

/// One pre-cut 300-sample window of both devices (accelerometer and
/// gyroscope, the streams the authentication features read).
struct RawWindow {
  sensors::Recording phone;
  sensors::Recording watch;
  bool owner{false};
};

sensors::Recording cut(const sensors::Recording& r, std::size_t begin,
                       std::size_t n) {
  sensors::Recording w;
  w.device = r.device;
  w.context = r.context;
  w.sample_rate_hz = r.sample_rate_hz;
  w.t0_seconds = r.t0_seconds + static_cast<double>(begin) / r.sample_rate_hz;
  const auto slice = [&](const sensors::AxisTrace& in, sensors::AxisTrace& out) {
    out.x.assign(in.x.begin() + begin, in.x.begin() + begin + n);
    out.y.assign(in.y.begin() + begin, in.y.begin() + begin + n);
    out.z.assign(in.z.begin() + begin, in.z.begin() + begin + n);
  };
  slice(r.accel, w.accel);
  slice(r.gyro, w.gyro);
  return w;
}

/// What the phone decided for one window; compared bit-for-bit.
struct Outcome {
  bool accepted{false};
  double confidence{0.0};
  DetectedContext context{DetectedContext::kStationary};
  core::Action action{core::Action::kAllow};

  bool same(const Outcome& o) const {
    return accepted == o.accepted &&
           std::memcmp(&confidence, &o.confidence, sizeof confidence) == 0 &&
           context == o.context && action == o.action;
  }
};

/// The phone path for one window, with one span per layer when `tracer` is
/// set (an untraced window makes no tracing calls at all).
Outcome run_window(const PhoneFixture& f, const RawWindow& w,
                   core::ResponseModule& response, Tracer* tracer,
                   std::uint64_t request) {
  Scoped root(tracer, "phone.window", request);
  std::vector<std::vector<double>> vectors;
  {
    Scoped s(tracer, "features.extract", request, root.id());
    vectors = f.extractor.auth_vectors(w.phone, &w.watch);
  }
  const std::vector<double>& v = vectors.front();
  Outcome out;
  {
    Scoped s(tracer, "context.detect", request, root.id());
    out.context = f.detector.detect(std::span<const double>(v.data(), 14));
  }
  {
    Scoped s(tracer, "core.score", request, root.id());
    out.confidence = f.model.score(out.context, v);
  }
  out.accepted = out.confidence >= 0.0;
  {
    Scoped s(tracer, "core.response", request, root.id());
    out.action = response.on_decision(
        core::AuthDecision{out.accepted, out.confidence, out.context});
  }
  return out;
}

/// Probe corpus: held-out owner sessions and impostor sessions, extracted
/// as whole streams; frr/far and the before/after gate are computed on it.
struct Probe {
  std::vector<std::vector<double>> vectors;
  std::vector<bool> owner;
};

Probe build_probe(const PhoneParams& p, const sensors::Population& pop,
                  const features::FeatureExtractor& extractor) {
  Probe probe;
  util::Rng rng(kCorpusSeed + 2);
  const auto add = [&](int user, UsageContext context, double seconds) {
    const auto s = sensors::collect_session(pop.user(user), context,
                                            collector(seconds), rng);
    for (auto& v : extractor.auth_vectors(s.phone, &*s.watch)) {
      probe.vectors.push_back(std::move(v));
      probe.owner.push_back(user == 0);
    }
  };
  for (const auto context : kAuthContexts) {
    add(0, context, p.probe_minutes * 60.0);
    for (int i = 0; i < kImpostors; ++i) {
      add(1 + kContributors + i, context,
          p.probe_minutes * 60.0 / kImpostors);
    }
  }
  return probe;
}

std::vector<Outcome> score_probe(const PhoneFixture& f, const Probe& probe) {
  std::vector<Outcome> out;
  out.reserve(probe.vectors.size());
  for (const auto& v : probe.vectors) {
    Outcome o;
    o.context = f.detector.detect(std::span<const double>(v.data(), 14));
    o.confidence = f.model.score(o.context, v);
    o.accepted = o.confidence >= 0.0;
    out.push_back(o);
  }
  return out;
}

/// The loop's windows, drawn from fresh sessions seeded by --seed: owner
/// and impostor windows of both contexts, shuffled together.
std::vector<RawWindow> build_loop_windows(const PhoneParams& p,
                                          const sensors::Population& pop,
                                          std::uint64_t seed) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 17);
  constexpr std::size_t kWindow = 300;  // 6 s at 50 Hz
  std::vector<RawWindow> windows;
  const int per_source = std::max(1, p.loop_windows / 4);
  const auto add = [&](int user, UsageContext context, int n) {
    const auto s = sensors::collect_session(pop.user(user), context,
                                            collector(6.0 * n), rng);
    const std::size_t have =
        std::min(s.phone.samples(), s.watch->samples()) / kWindow;
    for (std::size_t k = 0; k < have && k < static_cast<std::size_t>(n); ++k) {
      windows.push_back(RawWindow{cut(s.phone, k * kWindow, kWindow),
                                  cut(*s.watch, k * kWindow, kWindow),
                                  user == 0});
    }
  };
  for (const auto context : kAuthContexts) {
    add(0, context, per_source);
    for (int i = 0; i < kImpostors; ++i) {
      add(1 + kContributors + i, context,
          std::max(1, per_source / kImpostors));
    }
  }
  for (std::size_t i = windows.size(); i > 1; --i) {
    std::swap(windows[i - 1], windows[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<int>(i) - 1))]);
  }
  return windows;
}

/// One owner session module and one impostor session module; a lock is
/// followed by explicit re-authentication so the loop keeps exercising the
/// decision path. Reset at every pass so each pass repeats its actions.
struct Sessions {
  core::ResponseModule owner;
  core::ResponseModule impostor;
  void reset() {
    owner = core::ResponseModule();
    impostor = core::ResponseModule();
  }
  core::ResponseModule& for_window(const RawWindow& w) {
    return w.owner ? owner : impostor;
  }
  void after(core::ResponseModule& m) {
    if (m.locked()) m.explicit_auth(true);
  }
};

}  // namespace

Result run_phone_window(const RunConfig& run) {
  const PhoneParams p(*run.params);
  Result result;
  const auto pop = sensors::Population::generate(
      static_cast<std::size_t>(1 + kContributors + kImpostors),
      kCorpusSeed);

  std::vector<double> setup_s;
  std::optional<PhoneFixture> fixture;
  for (int rep = 0; rep < run.setup_reps; ++rep) {
    fixture.reset();
    const std::int64_t t0 = now_ns();
    fixture.emplace(build_fixture(p, pop));
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const PhoneFixture& f = *fixture;

  const Probe probe = build_probe(p, pop, f.extractor);
  const auto windows = build_loop_windows(p, pop, run.seed);
  const std::vector<Outcome> probe_before = score_probe(f, probe);

  // Untimed reference pass: the outcome every later pass must reproduce.
  Sessions sessions;
  std::vector<Outcome> reference;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    auto& m = sessions.for_window(windows[i]);
    reference.push_back(run_window(f, windows[i], m, nullptr, i));
    sessions.after(m);
  }

  // Closed loop. In a traced run every other window is traced, so tracing
  // overhead is the traced windows' latency over the untraced ones'.
  Tracer tracer(run.trace);
  std::vector<double> lat_ms, traced_ms, untraced_ms;
  lat_ms.reserve(static_cast<std::size_t>(run.seconds * 20000) + 1024);
  std::uint64_t mismatches = 0;
  std::uint64_t n = 0;
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(run.seconds * 1e9);
  std::int64_t end = start;
  for (std::uint64_t pass = 0; end - start < budget; ++pass) {
    rotate_cpu(pass);
    sessions.reset();
    for (std::size_t i = 0; i < windows.size() && end - start < budget; ++i) {
      const bool traced = run.trace && (n % 2 == 0);
      auto& m = sessions.for_window(windows[i]);
      const std::int64_t t0 = now_ns();
      const Outcome o =
          run_window(f, windows[i], m, traced ? &tracer : nullptr, n);
      end = now_ns();
      sessions.after(m);
      const double ms = static_cast<double>(end - t0) / 1e6;
      lat_ms.push_back(ms);
      if (run.trace) (traced ? traced_ms : untraced_ms).push_back(ms);
      if (!o.same(reference[i])) ++mismatches;
      ++n;
    }
  }
  const double elapsed_s = static_cast<double>(end - start) / 1e9;

  // Correctness gate: probe corpus again, bit for bit; frr/far from it.
  std::vector<Outcome> probe_after = score_probe(f, probe);
  if (run.tamper_probe && !probe_after.empty()) {
    std::uint64_t bits;
    std::memcpy(&bits, &probe_after[0].confidence, sizeof bits);
    bits ^= 1;
    std::memcpy(&probe_after[0].confidence, &bits, sizeof bits);
  }
  std::uint64_t probe_diff = 0, owner_n = 0, owner_rej = 0, imp_n = 0,
                imp_acc = 0;
  for (std::size_t i = 0; i < probe_before.size(); ++i) {
    if (!probe_before[i].same(probe_after[i])) ++probe_diff;
    if (probe.owner[i]) {
      ++owner_n;
      owner_rej += probe_before[i].accepted ? 0 : 1;
    } else {
      ++imp_n;
      imp_acc += probe_before[i].accepted ? 1 : 0;
    }
  }
  if (probe_diff > 0) {
    result.fail(std::to_string(probe_diff) +
                " probe windows changed decision or confidence after the load");
  }
  if (mismatches > 0) {
    result.fail(std::to_string(mismatches) +
                " loop windows differ from the reference pass");
  }
  result.phases.push_back(Phase{"window_loop", n, n - mismatches, 0, mismatches});

  const double frr = static_cast<double>(owner_rej) / static_cast<double>(owner_n);
  const double far = static_cast<double>(imp_acc) / static_cast<double>(imp_n);
  result.e2e["setup_s"] = {median(setup_s), "s"};
  result.e2e["p50_ms"] = {percentile(lat_ms, 0.50), "ms"};
  result.e2e["p99_ms"] = {percentile(lat_ms, 0.99), "ms"};
  result.e2e["ops_per_s"] = {static_cast<double>(n) / elapsed_s, "1/s"};
  result.e2e["frr"] = {frr, "fraction"};
  result.e2e["far"] = {far, "fraction"};
  result.e2e["ok_frac"] = {static_cast<double>(n - mismatches) /
                               static_cast<double>(n),
                           "fraction"};
  result.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  result.detail["window_ms_p50"] = result.e2e["p50_ms"];
  result.detail["window_ms_p99"] = result.e2e["p99_ms"];
  result.detail["windows"] = {static_cast<double>(n), "count"};
  result.detail["probe_owner_windows"] = {static_cast<double>(owner_n), "count"};
  result.detail["probe_impostor_windows"] = {static_cast<double>(imp_n), "count"};
  result.detail["model_train_n"] = {static_cast<double>(f.train_n), "count"};

  if (run.trace) {
    const auto spans = tracer.summarize();
    const auto self = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? std::vector<double>{} : it->second.self_us;
    };
    const auto put = [&](const std::string& metric, std::vector<double> us,
                         bool p99) {
      result.layers[metric + ".p50"] = {percentile(us, 0.50), "us"};
      if (p99) result.layers[metric + ".p99"] = {percentile(us, 0.99), "us"};
    };
    put("features.extract_us", self("features.extract"), true);
    put("context.detect_us", self("context.detect"), false);
    put("core.score_us", self("core.score"), true);
    put("core.response_us", self("core.response"), false);
    put("phone.window_self_us", self("phone.window"), false);
    double extract_total = 0.0, window_total = 0.0;
    for (const double v : self("features.extract")) extract_total += v;
    if (const auto it = spans.find("phone.window"); it != spans.end()) {
      for (const double v : it->second.dur_us) window_total += v;
    }
    result.layers["features.share"] = {
        window_total > 0 ? extract_total / window_total : 0.0, "fraction"};
    result.layers["trace.window_total_ms"] = {window_total / 1e3, "ms"};
    // Computed, not measured: one RBF kernel row reads the N x d support
    // matrix and the N dual coefficients, 8 bytes each.
    const auto d = features::FeatureExtractor::auth_dim(/*with_watch=*/true);
    result.layers["num.kernel_bytes_per_window"] = {
        static_cast<double>(f.train_n * (d + 1) * sizeof(double)), "B"};
    const double traced_p50 = percentile(traced_ms, 0.5);
    const double untraced_p50 = percentile(untraced_ms, 0.5);
    result.layers["trace.overhead_pct"] = {
        untraced_p50 > 0 ? 100.0 * (traced_p50 / untraced_p50 - 1.0) : 0.0,
        "%"};
    const std::size_t written = tracer.write(
        run.out_dir + "/trace_phone_window_seed" + std::to_string(run.seed) +
        ".tsv");
    result.layers["trace.spans"] = {static_cast<double>(written), "count"};
  }
  return result;
}

}  // namespace perfbench
