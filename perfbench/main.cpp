// fsrbench: runs one benchmark workload and prints one JSON object (see
// report.h). Exit status 0 when every correctness check held, 3 when one was
// violated, 2 on bad arguments.
//
//   fsrbench --workload kv-put-saturate --seed 7 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/log.h"
#include "workloads.h"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "fsrbench: %s\nusage: fsrbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunOptions opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string(value) == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return usage("every flag takes a value");
  const perfbench::WorkloadSpec* w = perfbench::find_workload(workload);
  if (w == nullptr) return usage(("unknown workload '" + workload + "'").c_str());
  if (!(opt.seconds >= 0.5 && opt.seconds <= 120)) return usage("--seconds must be in [0.5, 120]");

  fsr::set_log_level(fsr::LogLevel::kError);
  try {
    perfbench::Outcome out = w->ring ? perfbench::run_ring(*w, opt) : perfbench::run_kv(*w, opt);
    out.report.detail("workload", w->name);
    out.report.detail("seed", double(opt.seed));
    out.report.detail("seconds", opt.seconds);
    std::printf("%s\n", out.report.json(out.correct, out.attempted, out.failed, out.violation)
                            .c_str());
    return out.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsrbench: %s\n", e.what());
    return 3;
  }
}
