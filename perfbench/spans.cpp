#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "harness/trial.h"

namespace perfbench {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ThreadLane() {
  static std::atomic<int> next_lane{0};
  thread_local const int lane = next_lane.fetch_add(1);
  return lane;
}

int SpanRecorder::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.lane = 0;
  span.begin_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  current_.store(id, std::memory_order_release);
  return id;
}

void SpanRecorder::Close(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate nothing else.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  current_.store(open_.empty() ? -1 : open_.back(), std::memory_order_release);
}

void SpanRecorder::Add(Span span) { spans_.push_back(std::move(span)); }

std::vector<std::int64_t> SpanRecorder::SelfNs() const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.lane != 0) continue;
    self[i] += s.end_ns - s.begin_ns;
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].lane == 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.end_ns - s.begin_ns;
    }
  }
  return self;
}

bool SpanRecorder::Nested() const {
  // Lane-0 spans grouped by their lane-0 parent (roots under -1).
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : spans_) {
    if (s.lane != 0) continue;
    if (s.end_ns < s.begin_ns) return false;
    int parent = s.parent;
    if (parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(parent)];
      if (p.lane != 0) continue;
      if (s.begin_ns < p.begin_ns || s.end_ns > p.end_ns) return false;
    }
    children[parent].emplace_back(s.begin_ns, s.end_ns);
  }
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end());
    for (std::size_t k = 1; k < kids.size(); ++k) {
      if (kids[k].first < kids[k - 1].second) return false;
    }
  }
  return true;
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::LaneZeroLayers() const {
  const std::vector<std::int64_t> self = SelfNs();
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.lane != 0) continue;
    LayerTime& t = layers[s.name];
    ++t.count;
    t.total_s += (s.end_ns - s.begin_ns) * 1e-9;
    t.self_s += self[i] * 1e-9;
  }
  return layers;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  os << "{\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.lane,
                  (s.begin_ns - origin) * 1e-3, (s.end_ns - s.begin_ns) * 1e-3, i,
                  s.parent);
    os << buf;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

void TrialLog::Record(const TrialSample& sample) {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.push_back(sample);
}

std::vector<TrialSample> TrialLog::Take() {
  std::vector<TrialSample> taken;
  {
    std::lock_guard<std::mutex> lock(mu_);
    taken.swap(samples_);
  }
  if (recorder_ != nullptr) {
    for (const TrialSample& t : taken) {
      Span span;
      span.name = "trial";
      span.parent = t.parent;
      span.lane = t.lane;
      span.begin_ns = t.begin_ns;
      span.end_ns = t.end_ns;
      recorder_->Add(std::move(span));
    }
  }
  return taken;
}

campaign::Scenario WrapScenario(const campaign::Scenario& scenario,
                                const std::vector<double>& rates,
                                std::shared_ptr<TrialLog> log) {
  campaign::Scenario wrapped = scenario;
  for (std::size_t s = 0; s < wrapped.series.size(); ++s) {
    harness::TrialFn inner = scenario.series[s].fn;
    const int series = static_cast<int>(s);
    wrapped.series[s].fn = [inner, series, rates,
                            log](const robustify::core::FaultEnvironment& env) {
      TrialSample sample;
      sample.series = series;
      sample.seed = env.seed;
      sample.rate = -1;
      for (std::size_t r = 0; r < rates.size(); ++r) {
        if (rates[r] == env.fault_rate) sample.rate = static_cast<int>(r);
      }
      sample.lane = ThreadLane();
      const SpanRecorder* recorder = log->recorder();
      sample.parent = recorder ? recorder->current() : -1;
      sample.begin_ns = NowNs();
      harness::TrialOutcome out = inner(env);
      sample.end_ns = NowNs();
      sample.flops = out.fpu_stats.faulty_flops;
      sample.faults = out.fpu_stats.faults_injected;
      log->Record(sample);
      return out;
    };
  }
  return wrapped;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

}  // namespace perfbench
