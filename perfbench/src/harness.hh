/**
 * @file
 * What the workloads share: the runtime they build, the environment
 * and thread budget they record, the counters they read around the
 * measured programs, and how they turn all of it into metrics.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "core/runtime.hh"
#include "trace.hh"

namespace perfbench {

/** Set-ups per run; setup_s is their median. */
inline constexpr size_t kSetups = 3;

/**
 * Host pool lanes of every workload. Fewer than the 4 CPUs the
 * benchmark was tuned on: with every CPU a pool lane, a single CPU
 * taken by anything else stalls each fork-join phase, and repeated
 * runs of suite-cold spread three times wider than with two lanes.
 */
inline constexpr size_t kPoolLanes = 2;

/** Latency blocks a run measures at least (see summarize). */
inline constexpr size_t kMinBlocks = 3;

/** The policy every co-executed program runs under. */
inline constexpr const char *kPolicy = "qaws-ts";

/**
 * The paper's prototype platform (GPU + Edge TPU) on the default
 * calibration, with @p host_threads pool lanes; with @p tracer every
 * backend is wrapped in a timing decorator.
 */
std::unique_ptr<shmt::core::Runtime> makeRuntime(size_t host_threads,
                                                 Tracer *tracer);

/** Stand-ins for @p rt's backends, for the stage replay. */
std::vector<std::unique_ptr<shmt::devices::Backend>>
backendRefs(const shmt::core::Runtime &rt);

/**
 * Record the environment and enforce the thread budget: @p clients
 * caller threads (load generator or closed-loop client) plus
 * @p workers session workers plus the host pool's own threads (its
 * lanes minus the caller lane) must fit the CPUs this process has.
 */
void noteEnvironment(Outcome &o, size_t host_threads, size_t workers,
                     size_t clients);

/** Registry and pool counters read around the measured programs. */
enum Ctr : size_t {
    PlanHits, PlanMisses, StatsHits, StatsMisses, QuantHits, QuantMisses,
    ScanBytesAvoided, ResHits, ResMisses, ResEvictions, ResBytesAvoided,
    PoolAllocs, PoolReuse, PoolFreshBytes, PoolTasks, PoolSteals,
    PoolParks, kCtrs
};
using Counters = std::array<uint64_t, kCtrs>;

Counters readCounters();

/** acc += end - begin. */
void accumulate(Counters &acc, const Counters &begin, const Counters &end);

/** num / den, 0 when den is 0. */
double ratio(double num, double den);

/** Runtime::run under @p label, or runGpuBaseline for "". */
shmt::core::RunResult runJob(shmt::core::Runtime &rt,
                             const shmt::core::VopProgram &program,
                             const std::string &label, bool functional);

/** "bench/label" for reports ("gpu-baseline" for ""). */
std::string jobName(const std::string &bench, const std::string &label);

/**
 * Give @p copy fresh tensor ids; for a functional run also fill its
 * output with NaN, so a run that skips writing it fails its check.
 */
void renew(ProgramCopy &copy, bool functional);

/**
 * sim_speedup_gmean, mape_pct_mean and ssim_mean over @p names at
 * @p edge (untimed; see harness.cc).
 */
void addSimMetrics(Outcome &o, shmt::core::Runtime &rt,
                   const std::vector<std::string> &names, size_t edge);

/**
 * latency_p50_ms and latency_tail_ms: medians over consecutive blocks
 * of @p block samples (see summarize), with the counts behind them.
 */
void addLatencyMetrics(Outcome &o, const std::vector<double> &latencies,
                       size_t block);

/** Median latency per group (benchmark, policy or stream kind). */
void noteGroupLatency(
    Outcome &o, const std::map<std::string, std::vector<double>> &groups);

/** Program counts and error_rate. */
void addErrorAccounting(Outcome &o);

/** Everything the per-layer metrics are computed from. */
struct LayerInputs
{
    /** Span totals by layer: stage replay and backend decorators. */
    std::map<std::string, LayerTotals> spans;
    Counters counters{};
    double criticalSec = 0.0; //!< untraced wall of the programs, summed
    double tracedSec = 0.0;   //!< the same programs with tracing on
    size_t replayed = 0;
    size_t hlops = 0;
    size_t steals = 0;
    double queueWaitP50Ms = 0.0;
    size_t peakQueue = 0;
    double latenessP99Ms = 0.0;
};

/** Every per-layer metric, in BENCHMARK.json order. */
void addLayerMetrics(Outcome &o, const LayerInputs &in);

/** Write the traced run's spans to opts.spansOut, if given. */
void writeSpans(const Options &opts, const Tracer &tracer, Outcome &o);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
