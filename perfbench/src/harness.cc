#include "harness.hh"

#include <cmath>
#include <limits>

#include "apps/benchmarks.hh"
#include "common/memory_pool.hh"
#include "common/metrics_registry.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "kernels/kernel_registry.hh"
#include "metrics/error_metrics.hh"

namespace perfbench {

namespace sc = shmt::core;
using shmt::Tensor;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

/** Inputs of the simulated-quality pass, whatever --seed says. */
constexpr uint64_t kQualitySeed = 1;

} // namespace

std::unique_ptr<sc::Runtime>
makeRuntime(size_t host_threads, Tracer *tracer)
{
    const auto &cal = shmt::sim::defaultCalibration();
    auto backends = shmt::devices::makePrototypeBackends(
        shmt::kernels::KernelRegistry::instance(), cal);
    if (tracer)
        for (auto &b : backends)
            b = makeTimedBackend(std::move(b), *tracer);
    sc::RuntimeConfig config;
    config.hostThreads = host_threads;
    return std::make_unique<sc::Runtime>(std::move(backends), cal, config);
}

std::vector<std::unique_ptr<shmt::devices::Backend>>
backendRefs(const sc::Runtime &rt)
{
    std::vector<std::unique_ptr<shmt::devices::Backend>> refs;
    for (size_t d = 0; d < rt.deviceCount(); ++d)
        refs.push_back(makeBackendRef(rt.backend(d)));
    return refs;
}

void
noteEnvironment(Outcome &o, size_t host_threads, size_t workers,
                size_t clients)
{
    const size_t cpus = availableCpus();
    const size_t threads = clients + workers + (host_threads - 1);
    o.note("env.nproc", std::to_string(cpus));
    o.note("env.build_type", PERFBENCH_BUILD_TYPE);
    o.note("env.simd_backend", shmt::simd::backendName());
    o.note("env.host_threads", std::to_string(host_threads));
    o.note("env.session_workers", std::to_string(workers));
    o.note("env.threads_total", std::to_string(threads));
    o.require(threads <= cpus, "thread budget " + std::to_string(threads) +
                                   " exceeds nproc " +
                                   std::to_string(cpus));
}

Counters
readCounters()
{
    static const char *const names[] = {
        "shmt_plan_cache_hits_total",
        "shmt_plan_cache_misses_total",
        "shmt_criticality_stats_hits_total",
        "shmt_criticality_stats_misses_total",
        "shmt_criticality_quant_hits_total",
        "shmt_criticality_quant_misses_total",
        "shmt_scan_bytes_avoided_total",
        "shmt_residency_hits_total",
        "shmt_residency_misses_total",
        "shmt_residency_evictions_total",
        "shmt_residency_bytes_avoided_total",
        "shmt_mempool_allocs_total",
        "shmt_mempool_reuse_hits_total",
        "shmt_mempool_fresh_bytes_total",
    };
    const auto &reg = shmt::common::MetricsRegistry::instance();
    Counters c{};
    for (size_t i = 0; i < std::size(names); ++i)
        c[i] = reg.counterValue(names[i]);
    const auto pool = shmt::common::ThreadPool::global().stats();
    c[PoolTasks] = pool.submitted;
    c[PoolSteals] = pool.steals;
    c[PoolParks] = pool.parked;
    return c;
}

void
accumulate(Counters &acc, const Counters &begin, const Counters &end)
{
    for (size_t i = 0; i < kCtrs; ++i)
        acc[i] += end[i] - begin[i];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

sc::RunResult
runJob(sc::Runtime &rt, const sc::VopProgram &program,
       const std::string &label, bool functional)
{
    if (label.empty())
        return rt.runGpuBaseline(program, functional);
    auto policy = sc::makePolicy(label);
    return rt.run(program, *policy, functional);
}

std::string
jobName(const std::string &bench, const std::string &label)
{
    return bench + "/" + (label.empty() ? "gpu-baseline" : label);
}

void
renew(ProgramCopy &copy, bool functional)
{
    copy = ProgramCopy::renew(std::move(copy));
    if (functional)
        copy.output().view().fill(std::numeric_limits<float>::quiet_NaN());
}

/**
 * The three simulated metrics over @p names at @p edge: the GPU
 * baseline (the exact FP32 reference) and qaws-ts, both functional, on
 * inputs from a fixed seed. They are pure functions of the simulator,
 * so every run of the same code reports them bit-identically and any
 * change to them is reproduction drift, never noise. Untimed.
 */
void
addSimMetrics(Outcome &o, sc::Runtime &rt,
              const std::vector<std::string> &names, size_t edge)
{
    std::vector<double> speedups;
    double mape = 0.0;
    double ssim = 0.0;
    size_t images = 0;
    for (const std::string &name : names) {
        auto bench = shmt::apps::makeBenchmark(name, edge, edge, kQualitySeed);
        ProgramCopy copy(bench->program());
        const sc::RunResult base = rt.runGpuBaseline(copy.program(), true);
        o.require(base.status.ok(), "quality " + jobName(name, "") + ": " +
                                        base.status.toString());
        const Tensor exact = copy.output();
        renew(copy, true);
        const sc::RunResult run = runJob(rt, copy.program(), kPolicy, true);
        o.require(run.status.ok(), "quality " + jobName(name, kPolicy) +
                                       ": " + run.status.toString());
        speedups.push_back(base.makespanSec / run.makespanSec);
        mape += shmt::metrics::mape(exact.view(), copy.output().view());
        if (bench->imageLike()) {
            ssim += shmt::metrics::ssim(exact.view(), copy.output().view());
            ++images;
        }
    }
    o.add("sim_speedup_gmean", geomean(speedups), "x");
    o.add("mape_pct_mean", ratio(mape, static_cast<double>(names.size())),
          "%");
    o.add("ssim_mean", ratio(ssim, static_cast<double>(images)), "ratio");
    o.note("sim.benchmarks", std::to_string(names.size()));
    o.note("sim.ssim_benchmarks", std::to_string(images));
    o.note("sim.edge", std::to_string(edge));
}

void
addLatencyMetrics(Outcome &o, const std::vector<double> &latencies,
                  size_t block)
{
    const LatencySummary s = summarize(latencies, block);
    o.add("latency_p50_ms", s.p50Ms, "ms");
    o.add("latency_tail_ms", s.tailMs, "ms");
    o.note("latency.samples", std::to_string(s.samples));
    o.note("latency.blocks", std::to_string(s.blocks));
    o.note("latency.block_samples", std::to_string(block));
    o.note("latency.tail_percentile", s.tailLabel);
    o.note("latency.tail_samples_beyond_min",
           std::to_string(s.tailBeyond));
    o.require(s.blocks >= kMinBlocks, "too few latency blocks measured");
    o.note("latency.p90_ms", s.p90Ms);
    o.note("latency.p99_ms", s.p99Ms);
    o.note("latency.p999_ms", s.p999Ms);
}

void
noteGroupLatency(Outcome &o,
                 const std::map<std::string, std::vector<double>> &groups)
{
    for (const auto &[group, lat] : groups)
        o.note("latency." + group + ".p50_ms", percentile(lat, 0.5) * 1e3);
}

void
addErrorAccounting(Outcome &o)
{
    o.note("programs.attempted", std::to_string(o.attempted));
    o.note("programs.ok", std::to_string(o.attempted - o.failed));
    o.note("programs.failed", std::to_string(o.failed));
    o.note("error_rate", ratio(static_cast<double>(o.failed),
                               static_cast<double>(o.attempted)));
}

void
addLayerMetrics(Outcome &o, const LayerInputs &in)
{
    auto stage = [&](const std::string &name) {
        auto it = in.spans.find(name);
        return it == in.spans.end() ? LayerTotals{} : it->second;
    };
    const Counters &c = in.counters;
    auto count = [&](const char *name, double v) {
        o.add(name, v, "count");
    };
    auto hit_ratio = [&](const std::string &layer, uint64_t hits,
                         uint64_t misses) {
        o.add(layer + ".hit_ratio",
              ratio(static_cast<double>(hits),
                    static_cast<double>(hits + misses)),
              "ratio");
        o.add(layer + ".hits", static_cast<double>(hits), "count");
        o.add(layer + ".lookups", static_cast<double>(hits + misses),
              "count");
    };

    const LayerTotals planner = stage("planner");
    o.add("planner.busy_ms", planner.busySec * 1e3, "ms");
    count("planner.calls", static_cast<double>(planner.calls));
    hit_ratio("plan_cache", c[PlanHits], c[PlanMisses]);
    hit_ratio("quant_memo", c[QuantHits], c[QuantMisses]);
    o.add("scan.mib_avoided", static_cast<double>(c[ScanBytesAvoided]) / kMiB,
          "MiB");

    const LayerTotals sampling = stage("sampling");
    o.add("sampling.busy_ms", sampling.busySec * 1e3, "ms");
    count("sampling.calls", static_cast<double>(sampling.calls));
    hit_ratio("stats_memo", c[StatsHits], c[StatsMisses]);

    const LayerTotals dispatch = stage("dispatch");
    o.add("dispatch.busy_ms", dispatch.busySec * 1e3, "ms");
    count("dispatch.hlops", static_cast<double>(in.hlops));
    count("dispatch.steals", static_cast<double>(in.steals));

    const LayerTotals executor = stage("executor");
    o.add("executor.busy_ms", executor.busySec * 1e3, "ms");
    o.add("executor.self_ms", executor.selfSec * 1e3, "ms");
    count("executor.calls", static_cast<double>(executor.calls));

    double ns_per_elem[2] = {0.0, 0.0};
    const char *kinds[2] = {"gpu", "edgetpu"};
    for (int k = 0; k < 2; ++k) {
        const std::string layer = std::string("backend.") + kinds[k];
        const LayerTotals b = stage(layer);
        ns_per_elem[k] =
            ratio(b.busySec * 1e9, static_cast<double>(b.elems));
        o.add(layer + ".busy_ms", b.busySec * 1e3, "ms");
        o.add(layer + ".hlops", static_cast<double>(b.calls), "count");
        o.add(layer + ".elems", static_cast<double>(b.elems), "count");
        o.add(layer + ".ns_per_elem", ns_per_elem[k], "ns");
    }
    o.add("npu.overhead_ratio", ratio(ns_per_elem[1], ns_per_elem[0]),
          "ratio");

    const LayerTotals aggregator = stage("aggregator");
    o.add("aggregator.busy_ms", aggregator.busySec * 1e3, "ms");
    count("aggregator.calls", static_cast<double>(aggregator.calls));

    const double stage_sum = planner.busySec + sampling.busySec +
                             dispatch.busySec + executor.busySec +
                             aggregator.busySec;
    o.add("graph.critical_path_ms", in.criticalSec * 1e3, "ms");
    o.add("graph.stage_sum_ms", stage_sum * 1e3, "ms");
    o.add("graph.overlap_ratio", ratio(stage_sum, in.criticalSec), "ratio");

    hit_ratio("residency", c[ResHits], c[ResMisses]);
    o.add("residency.mib_avoided",
          static_cast<double>(c[ResBytesAvoided]) / kMiB, "MiB");
    count("residency.evictions", static_cast<double>(c[ResEvictions]));

    o.add("mempool.reuse_ratio",
          ratio(static_cast<double>(c[PoolReuse]),
                static_cast<double>(c[PoolAllocs])),
          "ratio");
    count("mempool.reuse_hits", static_cast<double>(c[PoolReuse]));
    count("mempool.allocs", static_cast<double>(c[PoolAllocs]));
    o.add("mempool.fresh_mib", static_cast<double>(c[PoolFreshBytes]) / kMiB,
          "MiB");
    o.add("mempool.peak_live_mib",
          static_cast<double>(shmt::common::MemoryPool::stats().peakLive) /
              kMiB,
          "MiB");

    count("threadpool.tasks", static_cast<double>(c[PoolTasks]));
    count("threadpool.steals", static_cast<double>(c[PoolSteals]));
    count("threadpool.parks", static_cast<double>(c[PoolParks]));

    o.add("session.queue_wait_p50_ms", in.queueWaitP50Ms, "ms");
    count("session.peak_queue", static_cast<double>(in.peakQueue));
    o.add("loadgen.lateness_p99_ms", in.latenessP99Ms, "ms");

    o.add("trace.overhead_ms", (in.tracedSec - in.criticalSec) * 1e3, "ms");
    o.add("trace.overhead_ratio", ratio(in.tracedSec, in.criticalSec),
          "ratio");
    count("replay.programs", static_cast<double>(in.replayed));
}

void
writeSpans(const Options &opts, const Tracer &tracer, Outcome &o)
{
    if (opts.spansOut.empty())
        return;
    o.require(tracer.writeChromeTrace(opts.spansOut),
              "cannot write spans to " + opts.spansOut);
    o.note("trace.spans", std::to_string(tracer.size()));
    o.note("trace.spans_file", opts.spansOut);
}

} // namespace perfbench
