// Benchmark-side tracing: spans recorded around calls into the library's
// public functions, kept in memory and written out when the run ends.
//
// Lane 0 is the driver's own thread.  Every other thread that runs a
// wrapped trial function gets its own lane on first use.  A span's self
// time is its duration minus that of its lane-0 children; spans on worker
// lanes (trials inside a parallel campaign) are accounted as executor busy
// time instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/scenarios.h"

namespace perfbench {

namespace campaign = robustify::campaign;
namespace harness = robustify::harness;

std::int64_t NowNs();

// The calling thread's lane: 0 for the first thread that asks (the driver
// calls this first from main), then 1, 2, ... in first-use order.
int ThreadLane();

struct Span {
  std::string name;
  int parent = -1;  // index into the recorder's spans, -1 for a root
  int lane = 0;
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  // Opens a child of the innermost open lane-0 span.  Driver thread only.
  int Open(const std::string& name);
  void Close(int id);

  // Innermost open lane-0 span, -1 when none; safe from worker threads.
  int current() const { return current_.load(std::memory_order_acquire); }

  // Records a finished span (trial spans from TrialLog).
  void Add(Span span);

  const std::vector<Span>& spans() const { return spans_; }

  // Per-name self and total time (seconds) over lane-0 spans.
  struct LayerTime {
    long count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, LayerTime> LaneZeroLayers() const;

  // True when every lane-0 span lies inside its lane-0 parent and no two
  // lane-0 siblings (roots included) overlap: the condition under which
  // the lane-0 self times are non-negative and sum to the root spans.
  // Trial spans run inline on the driver thread (1-thread passes, fresh
  // query trials) are timed by the trial wrapper and parented by
  // current(), not opened by ScopedSpan, so they can break it.
  bool Nested() const;

  // Chrome trace-event JSON ("X" events, one track per lane).
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<std::int64_t> SelfNs() const;

  std::vector<Span> spans_;
  std::vector<int> open_;
  std::atomic<int> current_{-1};
};

// RAII span; a null recorder makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder), id_(recorder ? recorder->Open(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->Close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

// One call of a wrapped trial function.
struct TrialSample {
  int series = 0;
  int rate = 0;     // index into the spec's rate axis; -1 when off-axis
  std::uint64_t seed = 0;  // env.seed: base seed + trial index
  int lane = 0;
  int parent = -1;  // recorder span open on lane 0 when the trial ran
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t flops = 0;   // fpu_stats of the outcome
  std::uint64_t faults = 0;
  double seconds() const { return (end_ns - begin_ns) * 1e-9; }
};

// Collects TrialSamples from every thread that runs a wrapped trial.
class TrialLog {
 public:
  // Attach a recorder to turn samples into spans (nullptr = untraced).
  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
  SpanRecorder* recorder() const { return recorder_; }

  void Record(const TrialSample& sample);

  // Returns and clears the samples; with a recorder attached, each sample
  // is also added to it as a "trial" span.
  std::vector<TrialSample> Take();

 private:
  std::mutex mu_;
  std::vector<TrialSample> samples_;
  SpanRecorder* recorder_ = nullptr;
};

// A copy of `scenario` whose trial functions time each call into `log`.
// `rates` is the spec axis the scenario runs under (for the cell index).
campaign::Scenario WrapScenario(const campaign::Scenario& scenario,
                                const std::vector<double>& rates,
                                std::shared_ptr<TrialLog> log);

// ---- small statistics -------------------------------------------------------

double Median(std::vector<double> values);
// Linear interpolation between order statistics, q in [0, 1].
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench
