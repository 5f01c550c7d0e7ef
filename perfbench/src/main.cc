// perfbench: one command per workload, printing every metric with its unit
// and a final one-line JSON result. Usage:
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--param <name>=<value>]...
// The workload's parameters come from perfbench/workloads.json, which
// run.py passes in as --param flags.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on a
// usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <sys/stat.h>

#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<nytimes-iterate|pubmed-grid8|serve-publish|dist-2w> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--param <name>=<value>]...\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.start_ns = perfbench::NowNs();
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else if (flag == "--param" && std::strchr(value, '=') != nullptr) {
      const char* eq = std::strchr(value, '=');
      char* end = nullptr;
      const double v = std::strtod(eq + 1, &end);
      if (end == eq + 1 || *end != '\0') {
        Usage();
        return 2;
      }
      args.params.Set(std::string(value, eq), v);
    } else {
      Usage();
      return 2;
    }
  }
  void (*run)(const perfbench::Args&, perfbench::Report&) = nullptr;
  if (args.workload == "nytimes-iterate") run = perfbench::RunNytimesIterate;
  if (args.workload == "pubmed-grid8") run = perfbench::RunPubmedGrid8;
  if (args.workload == "serve-publish") run = perfbench::RunServePublish;
  if (args.workload == "dist-2w") run = perfbench::RunDist2w;
  if (run == nullptr || args.seconds <= 0) {
    Usage();
    return 2;
  }
  ::mkdir(args.out_dir.c_str(), 0755);  // may exist already

  perfbench::Report report;
  report.Note("parameters: " + args.params.Describe());
  try {
    run(args, report);
    args.params.CheckAllRead();
  } catch (const std::exception& e) {
    report.Attempt(false, std::string("workload threw: ") + e.what(), true);
  }
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}
