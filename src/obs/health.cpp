#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "support/bench_json.h"
#include "support/json_escape.h"
#include "support/stopwatch.h"

namespace eric::obs {

namespace {

// Watchdog self-telemetry: the watchdog records onto the registry it
// watches, so its own cost and activity show up in every snapshot.
struct HealthMetrics {
  Counter& evaluations;
  Counter& breaches;
  Histogram& eval_us;

  static HealthMetrics& Get() {
    static auto& registry = MetricsRegistry::Global();
    static HealthMetrics metrics{
        registry.GetCounter("obs_health_evaluations"),
        registry.GetCounter("obs_health_breaches"),
        registry.GetHistogram("obs_health_eval_us"),
    };
    return metrics;
  }
};

Status ParseError(std::string_view text, const std::string& what) {
  return Status(ErrorCode::kParseError,
                "bad --slo spec \"" + std::string(text) + "\": " + what);
}

// The process-global monitor the snapshot writers render. Guarded by a
// mutex (not an atomic) because readers call into the monitor while
// holding it — the monitor cannot be destroyed mid-render.
std::mutex g_monitor_mutex;
HealthMonitor* g_monitor = nullptr;

// Parses a finite double out of `token` entirely; false on trailing
// garbage, nan and inf (a NaN threshold could never breach).
bool ParseDouble(std::string_view token, double* out) {
  if (token.empty()) return false;
  const std::string copy(token);
  char* end = nullptr;
  *out = std::strtod(copy.c_str(), &end);
  return end == copy.c_str() + copy.size() && std::isfinite(*out);
}

}  // namespace

std::string_view SloKindName(SloKind kind) {
  switch (kind) {
    case SloKind::kRatio: return "ratio";
    case SloKind::kRate: return "rate";
    case SloKind::kQuantile: return "quantile";
  }
  return "unknown";
}

std::string_view BreachPolicyName(BreachPolicy policy) {
  switch (policy) {
    case BreachPolicy::kLog: return "log";
    case BreachPolicy::kPause: return "pause";
    case BreachPolicy::kAbort: return "abort";
  }
  return "unknown";
}

Result<SloSpec> ParseSloSpec(std::string_view text) {
  SloSpec spec;
  std::string_view rest = text;

  // Optional NAME= prefix: an '=' before the kind's '(' names the SLO.
  const size_t eq = rest.find('=');
  const size_t paren = rest.find('(');
  if (eq != std::string_view::npos && paren != std::string_view::npos &&
      eq < paren) {
    spec.name = std::string(rest.substr(0, eq));
    if (spec.name.empty()) return ParseError(text, "empty name before '='");
    rest.remove_prefix(eq + 1);
  }

  const size_t open = rest.find('(');
  const size_t close = rest.find(')');
  if (open == std::string_view::npos || close == std::string_view::npos ||
      close < open) {
    return ParseError(text, "expected KIND(METRIC...)");
  }
  const std::string_view kind_token = rest.substr(0, open);
  std::string_view args = rest.substr(open + 1, close - open - 1);
  rest.remove_prefix(close + 1);

  std::string kind_suffix;
  if (kind_token == "ratio") {
    spec.kind = SloKind::kRatio;
    const size_t comma = args.find(',');
    if (comma == std::string_view::npos) {
      return ParseError(text, "ratio() needs (numerator,denominator)");
    }
    spec.metric = std::string(args.substr(0, comma));
    spec.denominator = std::string(args.substr(comma + 1));
    kind_suffix = "ratio";
  } else if (kind_token == "rate") {
    spec.kind = SloKind::kRate;
    spec.metric = std::string(args);
    kind_suffix = "rate";
  } else if (kind_token.size() >= 2 && kind_token.front() == 'p') {
    double percent = 0.0;
    if (!ParseDouble(kind_token.substr(1), &percent) || percent <= 0.0 ||
        percent >= 100.0) {
      return ParseError(text, "quantile kind must be p1..p99.99");
    }
    spec.kind = SloKind::kQuantile;
    spec.quantile = percent / 100.0;
    spec.metric = std::string(args);
    kind_suffix = std::string(kind_token);
  } else {
    return ParseError(text, "unknown kind \"" + std::string(kind_token) +
                                "\" (ratio, rate, or pNN)");
  }
  if (!IsValidMetricName(spec.metric)) {
    return ParseError(text, "invalid metric name \"" + spec.metric + "\"");
  }
  if (spec.kind == SloKind::kRatio && !IsValidMetricName(spec.denominator)) {
    return ParseError(text,
                      "invalid denominator name \"" + spec.denominator + "\"");
  }

  if (rest.empty() || rest.front() != '<') {
    return ParseError(text, "expected '<THRESHOLD' after the metric");
  }
  rest.remove_prefix(1);
  const size_t at = rest.find('@');
  if (at == std::string_view::npos) {
    return ParseError(text, "expected '@WINDOWs' after the threshold");
  }
  if (!ParseDouble(rest.substr(0, at), &spec.threshold) ||
      spec.threshold <= 0.0) {
    return ParseError(text, "threshold must be a number > 0");
  }
  rest.remove_prefix(at + 1);

  // WINDOW[s], then optional :POLICY, then optional ;min=N.
  size_t window_end = rest.find_first_of(":;");
  std::string_view window_token =
      rest.substr(0, window_end == std::string_view::npos ? rest.size()
                                                          : window_end);
  if (!window_token.empty() && window_token.back() == 's') {
    window_token.remove_suffix(1);
  }
  if (!ParseDouble(window_token, &spec.window_seconds) ||
      spec.window_seconds <= 0.0) {
    return ParseError(text, "window must be a number of seconds > 0");
  }
  rest.remove_prefix(window_end == std::string_view::npos ? rest.size()
                                                          : window_end);

  if (!rest.empty() && rest.front() == ':') {
    rest.remove_prefix(1);
    const size_t semi = rest.find(';');
    const std::string_view policy_token =
        rest.substr(0, semi == std::string_view::npos ? rest.size() : semi);
    if (policy_token == "log") {
      spec.policy = BreachPolicy::kLog;
    } else if (policy_token == "pause") {
      spec.policy = BreachPolicy::kPause;
    } else if (policy_token == "abort") {
      spec.policy = BreachPolicy::kAbort;
    } else {
      return ParseError(text, "policy must be log, pause, or abort");
    }
    rest.remove_prefix(semi == std::string_view::npos ? rest.size() : semi);
  }
  if (!rest.empty()) {
    if (rest.front() != ';' || rest.substr(1, 4) != "min=") {
      return ParseError(text, "trailing garbage \"" + std::string(rest) +
                                  "\" (expected ;min=N)");
    }
    double min_count = 0.0;
    // 2^64 is the first double past uint64_t; the cast below would be UB.
    if (!ParseDouble(rest.substr(5), &min_count) || min_count < 1.0 ||
        min_count != std::floor(min_count) || min_count >= 0x1p64) {
      return ParseError(text, "min must be an integer in [1, 2^64)");
    }
    spec.min_count = static_cast<uint64_t>(min_count);
  }

  if (spec.name.empty()) spec.name = spec.metric + "_" + kind_suffix;
  return spec;
}

std::string FormatSloSpec(const SloSpec& spec) {
  char buffer[64];
  std::string out = spec.name + "=";
  switch (spec.kind) {
    case SloKind::kRatio:
      out += "ratio(" + spec.metric + "," + spec.denominator + ")";
      break;
    case SloKind::kRate:
      out += "rate(" + spec.metric + ")";
      break;
    case SloKind::kQuantile:
      std::snprintf(buffer, sizeof(buffer), "p%.6g", spec.quantile * 100.0);
      out += buffer;
      out += "(" + spec.metric + ")";
      break;
  }
  std::snprintf(buffer, sizeof(buffer), "<%.6g@%.6gs", spec.threshold,
                spec.window_seconds);
  out += buffer;
  out += ":";
  out += BreachPolicyName(spec.policy);
  if (spec.min_count > 1) {
    std::snprintf(buffer, sizeof(buffer), ";min=%llu",
                  static_cast<unsigned long long>(spec.min_count));
    out += buffer;
  }
  return out;
}

// --- SloWindow ---------------------------------------------------------------

SloWindow::SloWindow(SloSpec spec) : spec_(std::move(spec)) {}

void SloWindow::Push(Sample sample) {
  // Counter-reset tolerance: cumulative totals only move forward; a
  // total that went backwards means the process (or the instrument)
  // restarted, and deltas against pre-reset samples would go negative.
  // Restart the window at this sample instead — the next window's
  // worth of readings rebuilds honest deltas.
  if (!samples_.empty()) {
    const Sample& last = samples_.back();
    bool reset = sample.num < last.num || sample.den < last.den ||
                 sample.buckets.size() < last.buckets.size();
    if (!reset) {
      for (size_t i = 0; i < last.buckets.size(); ++i) {
        if (sample.buckets[i] < last.buckets[i]) {
          reset = true;
          break;
        }
      }
    }
    if (reset) samples_.clear();
  }
  samples_.push_back(std::move(sample));
  // Trim to the window, always keeping one sample at or before the
  // window start as the delta baseline.
  const double cutoff = samples_.back().t - spec_.window_seconds;
  while (samples_.size() >= 2 && samples_[1].t <= cutoff) {
    samples_.pop_front();
  }
}

SloState SloWindow::Evaluate() {
  SloState state;
  const Sample& oldest = samples_.front();
  const Sample& newest = samples_.back();
  switch (spec_.kind) {
    case SloKind::kRatio: {
      const double num = newest.num - oldest.num;
      const double den = newest.den - oldest.den;
      state.window_count = static_cast<uint64_t>(den);
      state.observed = den > 0.0 ? num / den : 0.0;
      break;
    }
    case SloKind::kRate: {
      const double num = newest.num - oldest.num;
      const double elapsed = newest.t - oldest.t;
      state.window_count = static_cast<uint64_t>(num);
      state.observed = elapsed > 0.0 ? num / elapsed : 0.0;
      break;
    }
    case SloKind::kQuantile: {
      // Quantile of the *window*: interpolate inside the per-bucket
      // count deltas. HistogramSnapshot::Percentile does the rank
      // arithmetic; the observed min/max of the delta population is
      // unknown, so the clamp bounds are widened to the bucket range.
      HistogramSnapshot delta;
      delta.buckets.resize(std::max(newest.buckets.size(),
                                    oldest.buckets.size()));
      uint64_t total = 0;
      for (size_t i = 0; i < delta.buckets.size(); ++i) {
        const uint64_t now = i < newest.buckets.size() ? newest.buckets[i] : 0;
        const uint64_t then = i < oldest.buckets.size() ? oldest.buckets[i] : 0;
        delta.buckets[i] = now >= then ? now - then : 0;
        total += delta.buckets[i];
      }
      delta.count = total;
      delta.min_us = 0.0;
      delta.max_us = HistogramSnapshot::BucketUpperUs(
          delta.buckets.empty() ? 0 : delta.buckets.size() - 1);
      state.window_count = total;
      state.observed = delta.Percentile(spec_.quantile);
      break;
    }
  }
  state.burn_rate = state.observed / spec_.threshold;
  state.breached = state.window_count >= spec_.min_count &&
                   state.observed > spec_.threshold;
  state_ = state;
  return state;
}

SloState SloWindow::Update(double t_seconds, double numerator_total,
                          double denominator_total) {
  Sample sample;
  sample.t = t_seconds;
  sample.num = numerator_total;
  sample.den = denominator_total;
  Push(std::move(sample));
  return Evaluate();
}

SloState SloWindow::UpdateBuckets(double t_seconds,
                                 const std::vector<uint64_t>& buckets_total) {
  Sample sample;
  sample.t = t_seconds;
  sample.buckets = buckets_total;
  Push(std::move(sample));
  return Evaluate();
}

// --- HealthMonitor -----------------------------------------------------------

HealthMonitor::~HealthMonitor() {
  Stop();
  // Self-uninstall, keyed to this instance: a dying monitor must not
  // rip out a newer one that replaced it.
  std::lock_guard lock(g_monitor_mutex);
  if (g_monitor == this) g_monitor = nullptr;
}

Status HealthMonitor::AddSlo(SloSpec spec) {
  if (spec.name.empty() || spec.threshold <= 0.0 ||
      spec.window_seconds <= 0.0 ||
      (spec.kind == SloKind::kQuantile &&
       (spec.quantile <= 0.0 || spec.quantile >= 1.0))) {
    return Status(ErrorCode::kInvalidArgument,
                  "invalid SLO spec for \"" + spec.name + "\"");
  }
  if (!IsValidMetricName(spec.metric) ||
      (spec.kind == SloKind::kRatio && !IsValidMetricName(spec.denominator))) {
    return Status(ErrorCode::kInvalidArgument,
                  "SLO \"" + spec.name + "\" names an invalid metric");
  }
  std::lock_guard lock(mutex_);
  for (const Tracked& tracked : slos_) {
    if (tracked.window.spec().name == spec.name) {
      return Status(ErrorCode::kInvalidArgument,
                    "duplicate SLO name \"" + spec.name + "\"");
    }
  }
  slos_.emplace_back(std::move(spec));
  return Status::Ok();
}

void HealthMonitor::SetBreachAction(
    std::function<void(const BreachInfo&)> action) {
  std::lock_guard lock(mutex_);
  action_ = std::move(action);
}

std::vector<BreachInfo> HealthMonitor::EvaluateLocked() {
  const auto eval_start = std::chrono::steady_clock::now();
  const double t = std::chrono::duration<double>(eval_start - epoch_).count();
  MetricsRegistry& registry = MetricsRegistry::Global();
  std::vector<BreachInfo> transitions;
  for (Tracked& tracked : slos_) {
    const SloSpec& spec = tracked.window.spec();
    SloState state;
    switch (spec.kind) {
      case SloKind::kRatio:
        state = tracked.window.Update(
            t, static_cast<double>(registry.GetCounter(spec.metric).value()),
            static_cast<double>(
                registry.GetCounter(spec.denominator).value()));
        break;
      case SloKind::kRate:
        state = tracked.window.Update(
            t, static_cast<double>(registry.GetCounter(spec.metric).value()));
        break;
      case SloKind::kQuantile:
        state = tracked.window.UpdateBuckets(
            t, registry.GetHistogram(spec.metric).Snapshot().buckets);
        break;
    }
    if (state.breached && !tracked.latched) {
      tracked.latched = true;
      BreachInfo info;
      info.slo_name = spec.name;
      info.kind = spec.kind;
      info.policy = spec.policy;
      info.metric = spec.metric;
      info.observed = state.observed;
      info.threshold = spec.threshold;
      info.burn_rate = state.burn_rate;
      info.window_count = state.window_count;
      transitions.push_back(std::move(info));
    }
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  HealthMetrics& metrics = HealthMetrics::Get();
  metrics.evaluations.Add();
  metrics.eval_us.Record(MicrosecondsSince(eval_start));
  return transitions;
}

void HealthMonitor::EvaluateNow() {
  std::vector<BreachInfo> transitions;
  std::function<void(const BreachInfo&)> action;
  {
    std::lock_guard lock(mutex_);
    transitions = EvaluateLocked();
    action = action_;
  }
  for (const BreachInfo& breach : transitions) {
    HealthMetrics::Get().breaches.Add();
    char message[EventLog::kMessageBytes];
    std::snprintf(message, sizeof(message),
                  "slo %s breached: observed %.6g > %.6g (burn %.2fx, "
                  "n=%llu, policy %s)",
                  breach.slo_name.c_str(), breach.observed, breach.threshold,
                  breach.burn_rate,
                  static_cast<unsigned long long>(breach.window_count),
                  std::string(BreachPolicyName(breach.policy)).c_str());
    EmitEvent(EventSeverity::kError, "health", message);
    if (action) action(breach);
  }
}

Status HealthMonitor::Start(double interval_seconds) {
  if (running_) {
    return Status(ErrorCode::kFailedPrecondition,
                  "health monitor already running");
  }
  {
    std::lock_guard lock(mutex_);
    if (slos_.empty()) {
      return Status(ErrorCode::kFailedPrecondition,
                    "health monitor has no SLOs");
    }
  }
  if (interval_seconds < 0.01) interval_seconds = 0.01;
  stop_requested_ = false;
  // Seed pass: every window gets its t=now baseline, so the first real
  // tick measures a delta instead of judging absolute totals.
  EvaluateNow();
  thread_ = std::thread([this, interval_seconds] {
    for (;;) {
      {
        std::unique_lock lock(stop_mutex_);
        cv_.wait_for(lock, std::chrono::duration<double>(interval_seconds),
                     [this] { return stop_requested_; });
        if (stop_requested_) return;
      }
      EvaluateNow();
    }
  });
  running_ = true;
  return Status::Ok();
}

void HealthMonitor::Stop() {
  if (!running_) return;
  {
    std::lock_guard lock(stop_mutex_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
  EvaluateNow();  // final verdict: campaigns shorter than one interval
}

std::vector<HealthMonitor::SloReport> HealthMonitor::Report() const {
  std::lock_guard lock(mutex_);
  std::vector<SloReport> reports;
  reports.reserve(slos_.size());
  for (const Tracked& tracked : slos_) {
    SloReport report;
    report.spec = tracked.window.spec();
    report.state = tracked.window.state();
    report.latched = tracked.latched;
    reports.push_back(std::move(report));
  }
  return reports;
}

void HealthMonitor::WriteJson(JsonWriter& json) const {
  const std::vector<SloReport> reports = Report();
  json.BeginObject();
  json.Field("evaluations", evaluations());
  json.Key("slos");
  json.BeginArray();
  for (const SloReport& report : reports) {
    json.BeginObject();
    json.Field("name", report.spec.name);
    json.Field("kind", std::string(SloKindName(report.spec.kind)));
    json.Field("metric", report.spec.metric);
    if (report.spec.kind == SloKind::kRatio) {
      json.Field("denominator", report.spec.denominator);
    }
    if (report.spec.kind == SloKind::kQuantile) {
      json.Field("quantile", report.spec.quantile);
    }
    json.Field("threshold", report.spec.threshold);
    json.Field("window_seconds", report.spec.window_seconds);
    json.Field("min_count", report.spec.min_count);
    json.Field("policy", std::string(BreachPolicyName(report.spec.policy)));
    json.Field("observed", report.state.observed);
    json.Field("burn_rate", report.state.burn_rate);
    json.Field("window_count", report.state.window_count);
    json.Field("breached", report.state.breached);
    json.Field("latched", report.latched);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string HealthMonitor::PrometheusText() const {
  const std::vector<SloReport> reports = Report();
  if (reports.empty()) return std::string();
  std::string out;
  char line[128];
  const auto series = [&](const char* family, auto value_of) {
    out += "# TYPE ";
    out += family;
    out += " gauge\n";
    for (const SloReport& report : reports) {
      out += family;
      out += "{slo=\"";
      // Label values go through the Prometheus escaper: an SLO name
      // with a quote or newline must not break the exposition format.
      AppendPromLabelEscaped(out, report.spec.name);
      out += "\"} ";
      std::snprintf(line, sizeof(line), "%.6g\n", value_of(report));
      out += line;
    }
  };
  series("eric_slo_burn_rate",
         [](const SloReport& r) { return r.state.burn_rate; });
  series("eric_slo_observed",
         [](const SloReport& r) { return r.state.observed; });
  series("eric_slo_breached",
         [](const SloReport& r) { return r.state.breached ? 1.0 : 0.0; });
  return out;
}

// --- Global install ----------------------------------------------------------

void SetGlobalHealthMonitor(HealthMonitor* monitor) {
  std::lock_guard lock(g_monitor_mutex);
  g_monitor = monitor;
}

void WriteGlobalHealthJson(JsonWriter& json) {
  std::lock_guard lock(g_monitor_mutex);
  if (g_monitor != nullptr) {
    g_monitor->WriteJson(json);
    return;
  }
  json.BeginObject();
  json.Field("evaluations", 0);
  json.Key("slos");
  json.BeginArray();
  json.EndArray();
  json.EndObject();
}

std::string GlobalHealthPrometheusText() {
  std::lock_guard lock(g_monitor_mutex);
  return g_monitor != nullptr ? g_monitor->PrometheusText() : std::string();
}

}  // namespace eric::obs
