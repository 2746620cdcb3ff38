/**
 * @file
 * The benchmark's three workloads (see perfbench/README.md for why
 * each exists and which layers it stresses).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include "bench_util.hh"

namespace perfbench {

/** All ten paper benchmarks, functional, qaws-ts, cold tensors. */
Outcome runSuiteCold(const Options &opts);

/** Timing-only GPU baseline + every policy per instance at 2048^2. */
Outcome runSweepTiming(const Options &opts);

/** Open-loop seeded arrivals into a 2-worker Session. */
Outcome runServeMixed(const Options &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
