// perfbench: runs one workload and prints every metric by name with its
// unit and kind; the last stdout line is the JSON result. Usually started
// through run.py, which builds this binary first.
//
//   perfbench --workload <kv_read99|kv_write50|rma_step>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out-dir <dir>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hpp"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--commit") {
      opt.commit = val;
    } else if (key == "--out-dir") {
      opt.out_dir = val;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (!(opt.seconds > 0) || opt.seconds > 600) {
    std::fprintf(stderr, "perfbench: --seconds must be in (0, 600]\n");
    return 2;
  }
  perfbench::Report rep(opt);
  try {
    if (opt.workload == "kv_read99" || opt.workload == "kv_write50") {
      perfbench::run_kv(opt, rep);
    } else if (opt.workload == "rma_step") {
      perfbench::run_rma_step(opt, rep);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }
  return rep.finish();
}
