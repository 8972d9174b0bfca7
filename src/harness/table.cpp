#include "harness/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ostream>

namespace robustify::harness {

double ExtractValue(const TrialSummary& summary, TableValue value) {
  switch (value) {
    case TableValue::kSuccessRatePct: return summary.success_rate_pct;
    case TableValue::kMedianMetric: return summary.median_metric;
    case TableValue::kMeanMetric: return summary.mean_metric;
    case TableValue::kMeanFaultyFlops: return summary.mean_faulty_flops;
  }
  return 0.0;
}

namespace {

// Minimum column width; a column widens to fit its longest series name
// plus two spaces, so no name is cut.
constexpr int kColWidth = 16;

std::string FormatCell(double v, TableValue value) {
  if (value != TableValue::kSuccessRatePct && !std::isfinite(v)) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                value == TableValue::kSuccessRatePct ? "%.1f" : "%.4e", v);
  return buf;
}

// Left-aligns text in a column of the given width.
std::string Pad(std::string text, int width) {
  if (text.size() < static_cast<std::size_t>(width)) text.resize(width, ' ');
  return text;
}

}  // namespace

void PrintSweepTable(std::ostream& os, const std::string& title,
                     const std::vector<Series>& series, TableValue value,
                     const std::string& value_label) {
  int width = kColWidth;
  for (const Series& s : series) {
    width = std::max(width, static_cast<int>(s.name.size()) + 2);
  }
  os << title << "\n";
  os << "value: " << value_label << "\n";
  os << Pad("fault_rate", width);
  for (const Series& s : series) os << Pad(s.name, width);
  os << "\n";
  os << std::string(static_cast<std::size_t>(width) * (series.size() + 1), '-')
     << "\n";
  if (series.empty()) return;
  for (std::size_t r = 0; r < series.front().points.size(); ++r) {
    char rate[64];
    std::snprintf(rate, sizeof(rate), "%.6g", series.front().points[r].fault_rate);
    os << Pad(rate, width);
    for (const Series& s : series) {
      const double v = r < s.points.size() ? ExtractValue(s.points[r].summary, value)
                                           : 0.0;
      os << Pad(FormatCell(v, value), width);
    }
    os << "\n";
  }
}

}  // namespace robustify::harness
