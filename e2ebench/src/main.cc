// e2ebench: the end-to-end benchmark of the evidential engine.
//
//   e2ebench gen  --workload lookup|analytic --seed N --dir D [--tiny]
//   e2ebench run  --workload lookup|analytic|integrate --seed N --dir D
//                 --seconds S --trace 0|1 [--tiny]
//   e2ebench selftest
//
// `gen` writes a workload's generated inputs (images, statement stream,
// expected digests) into D in its own process, so their construction
// never shows in the measuring process's time or memory. `run` measures
// the workload from D and prints one JSON result as its last line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

bool ParseOptions(int argc, char** argv, e2e::Options* options) {
  if (argc < 2) return false;
  options->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      options->dir = value;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Options options;
  if (!ParseOptions(argc, argv, &options)) {
    return e2e::Fail("usage: e2ebench gen|run|selftest [--workload W] "
                     "[--seed N] [--dir D] [--seconds S] [--trace 0|1] "
                     "[--tiny]");
  }
  if (options.command == "selftest") return e2e::SelfTest() == 0 ? 0 : 1;
  if (options.dir.empty()) return e2e::Fail("--dir is required");
  if (options.seconds <= 0) return e2e::Fail("--seconds must be positive");
  const std::string& w = options.workload;
  if (options.command == "gen") {
    if (w == "lookup") return e2e::GenLookup(options);
    if (w == "analytic") return e2e::GenAnalytic(options);
    if (w == "integrate") return 0;  // generated in the measuring process
  } else if (options.command == "run") {
    // Refuse to report anything unless the paper's tables reproduce.
    const std::string gate = e2e::CheckPaperTables();
    if (!gate.empty()) return e2e::Fail("paper-table gate failed: " + gate);
    if (w == "lookup") return e2e::RunLookup(options);
    if (w == "analytic") return e2e::RunAnalytic(options);
    if (w == "integrate") return e2e::RunIntegrate(options);
  }
  return e2e::Fail("unknown command or workload: " + options.command + " " +
                   w);
}
