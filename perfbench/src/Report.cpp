//===- perfbench/Report.cpp - Metrics, percentiles and the result line -----===//

#include "Report.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

using namespace perfbench;

void RunReport::error(const std::string &Line) {
  // Keep the output bounded when a whole pass goes wrong.
  if (Errors.size() < 20)
    Errors.push_back(Line);
  else if (Errors.size() == 20)
    Errors.push_back("... further errors suppressed");
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double perfbench::percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(
      std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

Tail perfbench::tailPercentile(const std::vector<double> &Sorted) {
  Tail T;
  for (double P : {99.0, 90.0, 50.0}) {
    size_t Rank = static_cast<size_t>(
        std::ceil(P / 100.0 * static_cast<double>(Sorted.size())));
    size_t Beyond = Sorted.size() - std::min(Rank, Sorted.size());
    if (Beyond >= 10 || P == 50.0) {
      T.Value = percentile(Sorted, P);
      T.Percent = P;
      T.Beyond = Beyond;
      return T;
    }
  }
  return T;
}

std::string perfbench::format(const char *Fmt, ...) {
  char Buf[1024];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

namespace {

std::string jsonNumber(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

void perfbench::printReport(const RunReport &R) {
  for (const std::string &Line : R.Notes)
    std::printf("%s\n", Line.c_str());
  for (const std::string &Line : R.Errors)
    std::printf("ERROR: %s\n", Line.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("  %-32s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string Json = "{\"correct\": ";
  Json += R.Errors.empty() ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    if (I)
      Json += ", ";
    Json += "\"" + M.Name + "\": {\"value\": " + jsonNumber(M.Value) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}
