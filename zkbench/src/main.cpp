// zkbench: one process of the repository benchmark (see BENCHMARK.json
// and run.py, which builds this program, runs it and aggregates).
//
//   zkbench --workload exchange|transfer|audit --seed N --seconds S
//           --trace 0|1 [--mode run|setup] [--workdir DIR]
//           [--inject wrong-balance|corrupt-proof]
//
// Prints one JSON object as its last line of output: set-up time, the
// window's op latencies, CPU and memory, exact prefix counts, per-layer
// metrics (traced runs) and every output check. Exit code 0 means the
// run completed (the checks may still have failed); 2 means it could
// not run at all.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"

int main(int argc, char** argv) {
  using namespace zkbench;
  // Host-speed reference samples before set-up (not part of it).
  Report rep;
  for (int i = 0; i < 3; ++i) rep.setup_ref_ms.push_back(host_ref_ms());
  const auto t0 = Clock::now();
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--mode") {
      opt.mode = val;
    } else if (key == "--workdir") {
      opt.workdir = val;
    } else if (key == "--inject") {
      opt.inject = val;
    } else {
      std::fprintf(stderr, "zkbench: unknown option %s\n", key.c_str());
      return 2;
    }
  }
  if (opt.mode != "run" && opt.mode != "setup") {
    std::fprintf(stderr, "zkbench: unknown mode %s\n", opt.mode.c_str());
    return 2;
  }

  rep.workload = opt.workload;
  rep.mode = opt.mode;
  try {
    if (opt.workload == "exchange") {
      run_exchange(opt, rep, t0);
    } else if (opt.workload == "transfer") {
      run_transfer(opt, rep, t0);
    } else if (opt.workload == "audit") {
      run_audit(opt, rep, t0);
    } else {
      std::fprintf(stderr, "zkbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zkbench: %s\n", e.what());
    return 2;
  }
  std::printf("%s\n", rep.to_json().c_str());
  return 0;
}
