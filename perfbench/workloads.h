#ifndef RAVEN_PERFBENCH_WORKLOADS_H_
#define RAVEN_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// Each entry point sets up its workload `options.setup_reps` times (timed
/// for setup_s), computes its references off the clock, runs the closed
/// loop for `options.seconds`, prints the host line and the result JSON,
/// and returns the process exit code (0 only when every result verified).
int RunPaperBatch(const Options& options);
int RunServePoint(const Options& options);
int RunServeAdhoc(const Options& options);

}  // namespace perfbench

#endif  // RAVEN_PERFBENCH_WORKLOADS_H_
