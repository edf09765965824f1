//===- perfbench/Report.h - Metrics, percentiles and the result line -------===//

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// Everything one run prints.
struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Correctness failures (wrong verdict, invalid witness, ...); any entry
  /// makes the run incorrect.
  std::vector<std::string> Errors;
  /// Human-readable lines printed before the result line.
  std::vector<std::string> Notes;
  std::vector<Metric> Metrics;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
  void error(const std::string &Line);
};

/// Median of \p V (mean of the middle pair for even sizes); 0 when empty.
double median(std::vector<double> V);

/// Nearest-rank percentile of \p Sorted (ascending), \p P in (0, 100].
double percentile(const std::vector<double> &Sorted, double P);

/// The highest of p99/p90 with at least ten samples beyond it; falls back
/// to p50 for fewer than 100 samples.
struct Tail {
  double Value = 0;
  double Percent = 0;
  size_t Beyond = 0;
};
Tail tailPercentile(const std::vector<double> &Sorted);

/// printf into a std::string.
std::string format(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Prints the notes, a metric table, and the one-line JSON result.
void printReport(const RunReport &R);

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
