/**
 * @file
 * Stage replay: one program driven through the five public pipeline
 * stages in program order — Planner::plan, SamplingEngine::charge,
 * DispatchSim::run, HlopExecutor::execute, Aggregator::combine/cost —
 * the way core::GraphScheduler drives them, with a span around each
 * call. It runs on the caller's Runtime (same caches, same config), so
 * its simulated makespan and output bytes must equal Runtime::run's;
 * the traced run checks that for every replayed program.
 *
 * What the replay does not reproduce is the scheduler's host-side
 * overlap: VOps run one after another and NPU inputs are staged by the
 * HLOPs themselves instead of being prestaged. That difference is the
 * point — the replay's stage sum against Runtime::run's wall time is
 * what the overlap is worth.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.hh"
#include "core/runtime.hh"
#include "trace.hh"

namespace perfbench {

/** What one replayed program produced. */
struct ReplayOutcome
{
    shmt::common::Status status;
    double makespanSec = 0.0;
    size_t hlops = 0;   //!< Exec records dispatched
    size_t steals = 0;  //!< HLOPs moved by Steal records
};

/**
 * Replay @p program on @p runtime. @p devices are stand-ins for the
 * runtime's backends (makeBackendRef), in backend order. An empty
 * @p policy_label replays runGpuBaseline (one pinned GPU plan, baseline
 * costing); otherwise Runtime::run under core::makePolicy(label) with
 * the runtime's config seed. Spans: "program" > "planner",
 * "sampling", "dispatch", "executor", "aggregator".
 */
ReplayOutcome
replayProgram(shmt::core::Runtime &runtime,
              const std::vector<std::unique_ptr<shmt::devices::Backend>>
                  &devices,
              const shmt::core::VopProgram &program,
              std::string_view policy_label, bool functional,
              Tracer &tracer, uint64_t program_id);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
