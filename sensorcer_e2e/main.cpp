// sensorcer_e2e — one seeded benchmark for the SenSORCER user journeys on a
// kWire deployment, with per-layer attribution.
//
//   sensorcer_e2e --workload read_fanout|ingest_stream|dashboard_mixed
//                 --seed N --seconds S --trace 0|1 [--source-id ID]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics (timed-phase counter deltas, bench-timed layer probes
// and a traced phase attributing self time to the src/ modules). Either way
// the last stdout line is the JSON result, and the exit code is nonzero
// when an output check failed.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

#ifndef SENSORCER_E2E_BUILD_TYPE
#define SENSORCER_E2E_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload read_fanout|ingest_stream|"
               "dashboard_mixed --seed N --seconds S --trace 0|1 "
               "[--source-id ID]\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage(argv[0]);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0) || args.seconds > 120) {
        return usage(argv[0]);
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage(argv[0]);
      }
      args.trace = value[0] == '1';
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);

  // Provenance, printed next to every capture.
  std::printf("sensorcer_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%ld build=%s compiler=%s source=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), SENSORCER_E2E_BUILD_TYPE,
              __VERSION__, args.source_id.c_str());
  std::fflush(stdout);

  if (args.workload == "read_fanout") return e2e::run_read_fanout(args);
  if (args.workload == "ingest_stream") return e2e::run_ingest_stream(args);
  if (args.workload == "dashboard_mixed") return e2e::run_dashboard_mixed(args);
  return usage(argv[0]);
}
