//===- perfbench/main.cpp - The benchmark binary ---------------------------===//
///
/// \file
/// Two steps, run as separate processes by run.py so that labelling cost
/// and memory never show in the measured process:
///
///   perfbench label --workload W --seed S --out FILE
///       generates W's inputs and writes their reference labels;
///   perfbench run --workload W --seed S --seconds N --trace 0|1 --labels FILE
///       regenerates the same inputs, measures, checks every verdict, and
///       prints the metrics with a one-line JSON result last.
///
/// Exit status: 0 when every check passed, 1 on a failed check, 2 on a
/// usage or input error.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Reference.h"
#include "Runners.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench label --workload W --seed S --out FILE\n"
               "       perfbench run --workload W --seed S --seconds N "
               "--trace 0|1 --labels FILE\n",
               Why);
  return 2;
}

std::string labelHeader(Workload W, uint64_t Seed, size_t N) {
  return format("perfbench-labels %s %llu %zu", workloadName(W),
                static_cast<unsigned long long>(Seed), N);
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage("missing step");
  std::string Step = Argv[1];
  std::map<std::string, std::string> Args;
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0)
      return usage(("unexpected argument " + Key).c_str());
    Args[Key.substr(2)] = Argv[I + 1];
  }
  if ((Argc - 2) % 2)
    return usage("flag without a value");

  Workload W;
  if (!parseWorkload(Args["workload"], W))
    return usage("unknown --workload");
  char *End = nullptr;
  uint64_t Seed = std::strtoull(Args["seed"].c_str(), &End, 10);
  if (Args["seed"].empty() || *End)
    return usage("--seed must be a non-negative integer");

  SessionInputs Session;
  std::vector<Query> Queries = labelledQueries(W, Seed, &Session);

  if (Step == "label") {
    size_t Left = labelWithComparators(Queries);
    std::ofstream Out(Args["out"]);
    Out << labelHeader(W, Seed, Queries.size()) << "\n"
        << encodeLabels(Queries) << "\n";
    if (!Out)
      return usage("cannot write --out");
    std::fprintf(stderr, "perfbench: labelled %zu questions, %zu undecided "
                         "by the comparators\n",
                 Queries.size(), Left);
    return 0;
  }
  if (Step != "run")
    return usage("unknown step");

  std::ifstream In(Args["labels"]);
  std::string Header, Labels;
  if (!std::getline(In, Header) || !std::getline(In, Labels) ||
      Header != labelHeader(W, Seed, Queries.size()) ||
      !decodeLabels(Labels, Queries))
    return usage("--labels does not match this workload and seed");

  RunConfig C;
  C.W = W;
  C.Seed = Seed;
  C.Seconds = std::strtod(Args["seconds"].c_str(), &End);
  if (Args["seconds"].empty() || *End || !(C.Seconds > 0))
    return usage("--seconds must be positive");
  if (Args["trace"] != "0" && Args["trace"] != "1")
    return usage("--trace must be 0 or 1");
  C.Trace = Args["trace"] == "1";

  RunReport R = runWorkload(C, Queries, Session);
  printReport(R);
  return R.Errors.empty() ? 0 : 1;
}
