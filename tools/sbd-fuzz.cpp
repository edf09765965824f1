//===- tools/sbd-fuzz.cpp - Differential fuzzing CLI ------------------------===//
///
/// \file
/// Command-line front end for the differential fuzzing subsystem
/// (src/fuzz). Runs a seeded campaign, prints a human summary plus
/// ready-to-paste regression tests for every discrepancy, and optionally
/// writes the machine-readable JSON report consumed by CI.
///
/// Exit status: 0 when the run is clean, 1 when discrepancies were found
/// (inverted under --corrupt, which *expects* the injected bug to be
/// caught), 2 on usage errors.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

using namespace sbd;
using namespace sbd::fuzz;

namespace {

void usage(std::ostream &OS) {
  OS << "usage: sbd-fuzz [options]\n"
        "\n"
        "Seeded differential fuzzing over every regex engine in the\n"
        "library. A run is a pure function of its options: rerun with the\n"
        "seed from a CI report to reproduce a failure exactly.\n"
        "\n"
        "  --seed N               master seed (default: $SBD_FUZZ_SEED or 1)\n"
        "  --iterations N         regexes to generate (default 1000)\n"
        "  --words N              sample words per regex (default 4)\n"
        "  --max-nodes N          regex syntax-node budget (default 24)\n"
        "  --max-discrepancies N  stop after N distinct failures "
        "(default 16)\n"
        "  --json PATH            write the JSON run report (\"-\" = stdout)\n"
        "  --corrupt              inject the broken inter-as-union engine;\n"
        "                         exit 0 iff the oracle catches it\n"
        "  --dist N               run the dist_consistency law every Nth\n"
        "                         arena batch (forks workers; default off)\n"
        "  --dist-workers N       worker count for the N-process side\n"
        "                         (default 3)\n"
        "  --no-shrink            report discrepancies unshrunk\n"
        "  --no-sat               membership/law checks only (no solvers)\n"
        "  --quiet                suppress the human-readable summary\n"
        "  --help                 this text\n";
}

bool parseU64(const char *S, uint64_t &Out) {
  if (!S || !*S)
    return false;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (End == S || *End)
    return false;
  Out = V;
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  FuzzOptions Opts;
  if (const char *EnvSeed = std::getenv("SBD_FUZZ_SEED")) {
    uint64_t S = 0;
    if (parseU64(EnvSeed, S))
      Opts.Seed = S;
  }

  std::string JsonPath;
  bool Quiet = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto needValue = [&](uint64_t &Out) {
      if (I + 1 >= Argc || !parseU64(Argv[I + 1], Out)) {
        std::cerr << "sbd-fuzz: " << Arg << " requires a numeric value\n";
        std::exit(2);
      }
      ++I;
    };
    uint64_t V = 0;
    if (Arg == "--seed") {
      needValue(V);
      Opts.Seed = V;
    } else if (Arg == "--iterations") {
      needValue(V);
      Opts.Iterations = V;
    } else if (Arg == "--words") {
      needValue(V);
      Opts.WordsPerRegex = static_cast<uint32_t>(V);
    } else if (Arg == "--max-nodes") {
      needValue(V);
      Opts.Gen.MaxNodes = static_cast<uint32_t>(V);
    } else if (Arg == "--max-discrepancies") {
      needValue(V);
      Opts.MaxDiscrepancies = static_cast<uint32_t>(V);
    } else if (Arg == "--json") {
      if (I + 1 >= Argc) {
        std::cerr << "sbd-fuzz: --json requires a path\n";
        return 2;
      }
      JsonPath = Argv[++I];
    } else if (Arg == "--dist") {
      needValue(V);
      Opts.DistEvery = static_cast<uint32_t>(V);
    } else if (Arg == "--dist-workers") {
      needValue(V);
      Opts.DistWorkers = static_cast<uint32_t>(V);
    } else if (Arg == "--corrupt") {
      Opts.CorruptStub = true;
    } else if (Arg == "--no-shrink") {
      Opts.Shrink = false;
    } else if (Arg == "--no-sat") {
      Opts.Oracle.CheckSat = false;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (Arg == "--help" || Arg == "-h") {
      usage(std::cout);
      return 0;
    } else {
      std::cerr << "sbd-fuzz: unknown option '" << Arg << "'\n";
      usage(std::cerr);
      return 2;
    }
  }

  FuzzReport Rep = runFuzz(Opts);

  if (!JsonPath.empty()) {
    if (JsonPath == "-") {
      std::cout << Rep.json() << "\n";
    } else {
      std::ofstream OS(JsonPath);
      if (!OS) {
        std::cerr << "sbd-fuzz: cannot write " << JsonPath << "\n";
        return 2;
      }
      OS << Rep.json() << "\n";
    }
  }

  if (!Quiet) {
    std::cerr << "sbd-fuzz: seed=" << Rep.Seed
              << " iterations=" << Rep.Iterations
              << " samples=" << Rep.Samples << " checks=" << Rep.Checks
              << " discrepancies=" << Rep.Discrepancies.size()
              << " elapsed_us=" << Rep.ElapsedUs << "\n";
    for (const EngineTiming &T : Rep.Timings)
      std::cerr << "  engine " << T.Name << ": calls=" << T.Calls
                << " total_us=" << T.TotalUs << "\n";
    for (const EnginePhase &P : Rep.Engines)
      std::cerr << "  phases " << P.Name << ": queries=" << P.Queries
                << " derive_us=" << P.Stats.DeriveUs
                << " dnf_us=" << P.Stats.DnfUs
                << " search_us=" << P.Stats.SearchUs
                << " total_us=" << P.Stats.TotalUs << "\n";
    for (size_t I = 0; I != Rep.Discrepancies.size(); ++I) {
      const Discrepancy &D = Rep.Discrepancies[I];
      std::cerr << "\n--- discrepancy " << (I + 1) << " ---\n"
                << "law:     " << oracleLawName(D.Law) << "\n"
                << "engine:  " << D.Engine << "\n"
                << "pattern: " << D.Pattern << " (" << D.RegexNodes
                << " nodes)\n"
                << "detail:  " << D.Detail << "\n"
                << "regression test:\n"
                << renderRegressionTest(D, Rep.Seed, I + 1);
    }
  }

  if (Opts.CorruptStub) {
    // Self-check mode: the injected bug *must* be caught.
    if (Rep.Discrepancies.empty()) {
      std::cerr << "sbd-fuzz: --corrupt run found no discrepancies; the "
                   "oracle failed its self-check\n";
      return 1;
    }
    return 0;
  }
  return Rep.ok() ? 0 : 1;
}
