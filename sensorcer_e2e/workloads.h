#pragma once
// The three workloads of sensorcer_e2e (see README.md for why each exists
// and which layers it should and should not move). Each builds its inputs
// from args.seed, runs its timed phase for args.seconds, checks the
// program's outputs and returns the process exit code.

#include "harness.h"

namespace e2e {

int run_read_fanout(const Args& args);
int run_ingest_stream(const Args& args);
int run_dashboard_mixed(const Args& args);

}  // namespace e2e
