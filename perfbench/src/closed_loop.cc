#include "workloads.hh"

#include <algorithm>
#include <map>

#include "apps/benchmarks.hh"
#include "harness.hh"
#include "replay.hh"

namespace perfbench {

namespace {

namespace sc = shmt::core;

/**
 * Every makePolicy label the prototype platform (GPU + Edge TPU) can
 * run; "cpu-only" needs a CPU backend it does not have.
 */
const std::vector<std::string> kSweepPolicies = {
    "even",    "work-stealing", "qaws-ts", "qaws-tu",
    "qaws-tr", "qaws-ls",       "qaws-lu", "qaws-lr",
    "ira",     "oracle",        "static-optimal",
    "gpu-only", "tpu-only"};

struct ClosedLoopSpec
{
    size_t edge = 0;
    bool functional = true;
    /** Jobs per instance, in order; "" is the GPU baseline. */
    std::vector<std::string> labels;
    /**
     * Rounds per block: the latency percentiles and the throughput are
     * medians over blocks, and a run measures whole blocks. The block
     * size fixes which percentile is the tail.
     */
    size_t blockRounds = 0;
    /**
     * Untimed rounds between the set-ups and the measured phase: enough
     * for the residency cache to reach its byte cap and the memory pool
     * its steady state.
     */
    size_t steadyRounds = 0;
};

struct Instance
{
    std::string bench;
    ProgramCopy copy;
    std::vector<double> refMakespan; //!< per label, from the warm-up
    std::vector<uint64_t> refHash;
};

struct ClosedLoopState
{
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<sc::Runtime> rt;
    std::vector<Instance> instances;
};

/**
 * Runtime and backend construction, input generation and one warm-up
 * round whose makespans and output hashes every later round must
 * reproduce.
 */
ClosedLoopState
setupClosedLoop(const ClosedLoopSpec &spec, const Options &opts,
                size_t host_threads, Outcome &o)
{
    ClosedLoopState st;
    if (opts.trace)
        st.tracer = std::make_unique<Tracer>();
    st.rt = makeRuntime(host_threads, st.tracer.get());
    for (const std::string &name : shmt::apps::benchmarkNames()) {
        auto bench =
            shmt::apps::makeBenchmark(name, spec.edge, spec.edge, opts.seed);
        st.instances.push_back(
            {name, ProgramCopy(bench->program()), {}, {}});
    }
    for (Instance &inst : st.instances) {
        renew(inst.copy, spec.functional);
        for (const std::string &label : spec.labels) {
            const sc::RunResult r =
                runJob(*st.rt, inst.copy.program(), label, spec.functional);
            o.require(r.status.ok(), "warm-up " + jobName(inst.bench, label) +
                                         ": " + r.status.toString());
            inst.refMakespan.push_back(r.makespanSec);
            inst.refHash.push_back(
                spec.functional ? hashTensor(inst.copy.output()) : 0);
        }
    }
    return st;
}

bool
matchesReference(const Instance &inst, size_t j,
                 const shmt::common::Status &status, double makespan,
                 bool functional, std::string &why)
{
    if (!status.ok()) {
        why = status.toString();
        return false;
    }
    if (makespan != inst.refMakespan[j]) {
        why = "simulated makespan " + num(makespan) + " != " +
              num(inst.refMakespan[j]);
        return false;
    }
    if (functional && hashTensor(inst.copy.output()) != inst.refHash[j]) {
        why = "output hash differs from the warm-up round";
        return false;
    }
    return true;
}

/**
 * Median over blocks of @p block programs of sum(@p work) divided by
 * sum(@p seconds): the closed loop's one client is busy for exactly the
 * timed calls, so their summed latency is the block's host time.
 */
double
blockRate(const std::vector<double> &work, const std::vector<double> &seconds,
          size_t block)
{
    std::vector<double> rates;
    for (size_t i = 0; i + block <= seconds.size(); i += block) {
        double w = 0.0;
        double t = 0.0;
        for (size_t k = i; k < i + block; ++k) {
            w += work[k];
            t += seconds[k];
        }
        rates.push_back(ratio(w, t));
    }
    return percentile(rates, 0.5);
}

Outcome
runClosedLoop(const ClosedLoopSpec &spec, const Options &opts)
{
    Outcome o;
    const size_t host_threads = std::min(kPoolLanes, availableCpus());
    noteEnvironment(o, host_threads, 0, 1);
    o.note("workload.edge", std::to_string(spec.edge));
    o.note("workload.functional", spec.functional ? "true" : "false");
    o.note("workload.jobs_per_instance",
           std::to_string(spec.labels.size()));

    std::vector<double> setup_sec;
    ClosedLoopState st;
    for (size_t k = 0; k < kSetups; ++k) {
        st = {};  // release the previous set-up before timing the next
        const double t0 = now();
        st = setupClosedLoop(spec, opts, host_threads, o);
        setup_sec.push_back(now() - t0);
    }
    sc::Runtime &rt = *st.rt;

    const double steady_t0 = now();
    for (size_t r = 0; r < spec.steadyRounds; ++r)
        for (Instance &inst : st.instances) {
            renew(inst.copy, spec.functional);
            for (size_t j = 0; j < spec.labels.size(); ++j) {
                const sc::RunResult res = runJob(rt, inst.copy.program(),
                                                 spec.labels[j],
                                                 spec.functional);
                std::string why;
                o.require(matchesReference(inst, j, res.status,
                                           res.makespanSec, spec.functional,
                                           why),
                          "steady-state warm-up " +
                              jobName(inst.bench, spec.labels[j]) + ": " +
                              why);
            }
        }
    o.note("warmup.steady_s", now() - steady_t0);

    std::vector<double> latencies;
    std::vector<double> ok_programs;
    std::vector<double> sim_hlops;
    std::map<std::string, std::vector<double>> groups;
    size_t rounds = 0;

    if (!opts.trace) {
        // Whole blocks of whole rounds, so every benchmark x job
        // contributes the same number of samples to every block and the
        // percentiles fall at the same places in the mixture.
        const double deadline = now() + opts.seconds;
        do {
            for (Instance &inst : st.instances) {
                renew(inst.copy, spec.functional);
                for (size_t j = 0; j < spec.labels.size(); ++j) {
                    const double t0 = now();
                    const sc::RunResult r =
                        runJob(rt, inst.copy.program(), spec.labels[j],
                               spec.functional);
                    const double dt = now() - t0;
                    latencies.push_back(dt);
                    groups[spec.labels.size() == 1
                               ? inst.bench
                               : jobName("all", spec.labels[j])]
                        .push_back(dt);
                    std::string why;
                    const bool ok = matchesReference(
                        inst, j, r.status, r.makespanSec, spec.functional,
                        why);
                    o.program(ok, jobName(inst.bench, spec.labels[j]) +
                                      ": " + why);
                    ok_programs.push_back(ok ? 1.0 : 0.0);
                    sim_hlops.push_back(
                        ok ? static_cast<double>(r.hlopsTotal) : 0.0);
                }
            }
            ++rounds;
        } while (now() < deadline || rounds % spec.blockRounds != 0 ||
                 rounds < kMinBlocks * spec.blockRounds);
    } else {
        // Traced run. Per instance and round, three passes, each over
        // fresh tensor ids so it meets the caches exactly as a timed
        // round does: Untraced — Runtime::run with the decorators
        // idle, giving the critical path and the counter deltas;
        // Traced — the same with the decorators recording, giving the
        // tracing overhead; Replay — the stage replay, giving the
        // per-layer split. All three must reproduce the warm-up
        // round's makespan and output hash, which is Runtime::run's.
        // The pass order rotates by round so no pass is always the one
        // that first pulls an instance's inputs into the CPU caches.
        enum class Pass { Untraced, Traced, Replay };
        Tracer &tracer = *st.tracer;
        const auto refs = backendRefs(rt);
        LayerInputs layers;
        std::vector<uint64_t> replay_ids;
        uint64_t next_program = 1;
        const double deadline = now() + opts.seconds;
        do {
            for (Instance &inst : st.instances) {
                for (size_t p = 0; p < 3; ++p) {
                    const auto pass = static_cast<Pass>((p + rounds) % 3);
                    renew(inst.copy, spec.functional);
                    tracer.arm(pass != Pass::Untraced);
                    for (size_t j = 0; j < spec.labels.size(); ++j) {
                        const std::string &label = spec.labels[j];
                        const std::string job = jobName(inst.bench, label);
                        const uint64_t pid = next_program++;
                        std::string why;
                        if (pass == Pass::Replay) {
                            replay_ids.push_back(pid);
                            const ReplayOutcome r = replayProgram(
                                rt, refs, inst.copy.program(), label,
                                spec.functional, tracer, pid);
                            layers.hlops += r.hlops;
                            layers.steals += r.steals;
                            ++layers.replayed;
                            // The fidelity gate: a replay that drifts
                            // from Runtime::run measures another program.
                            o.require(matchesReference(inst, j, r.status,
                                                       r.makespanSec,
                                                       spec.functional, why),
                                      "replay diverged from Runtime::run: " +
                                          job + ": " + why);
                            continue;
                        }
                        const Counters c0 = readCounters();
                        double dt = 0.0;
                        const sc::RunResult r = [&] {
                            ScopedSpan span(tracer, "run", 0, pid);
                            tracer.setAmbient(span.id(), pid);
                            const double t0 = now();
                            sc::RunResult res = runJob(
                                rt, inst.copy.program(), label,
                                spec.functional);
                            dt = now() - t0;
                            tracer.setAmbient(0, 0);
                            return res;
                        }();
                        const bool ok = matchesReference(
                            inst, j, r.status, r.makespanSec,
                            spec.functional, why);
                        if (pass == Pass::Traced) {
                            layers.tracedSec += dt;
                            o.require(ok, "traced run: " + job + ": " + why);
                            continue;
                        }
                        accumulate(layers.counters, c0, readCounters());
                        layers.criticalSec += dt;
                        o.program(ok, job + ": " + why);
                    }
                }
                tracer.arm(false);
            }
            ++rounds;
        } while (now() < deadline);
        o.note("workload.measured_s", layers.criticalSec);

        std::sort(replay_ids.begin(), replay_ids.end());
        const auto replayed = [&](const Span &s) {
            return std::binary_search(replay_ids.begin(), replay_ids.end(),
                                      s.program);
        };
        layers.spans = tracer.totals(replayed);
        addLayerMetrics(o, layers);
        writeSpans(opts, tracer, o);
    }

    o.note("workload.rounds", std::to_string(rounds));
    if (!opts.trace) {
        const size_t block =
            spec.blockRounds * st.instances.size() * spec.labels.size();
        o.add("setup_s", percentile(setup_sec, 0.5), "s");
        o.add("programs_per_s", blockRate(ok_programs, latencies, block),
              "1/s");
        o.add("hlops_per_s", blockRate(sim_hlops, latencies, block), "1/s");
        addLatencyMetrics(o, latencies, block);
        noteGroupLatency(o, groups);
        o.add("peak_rss_mib", peakRssMib(), "MiB");
        addSimMetrics(o, rt, shmt::apps::benchmarkNames(), spec.edge);
    }
    for (size_t k = 0; k < setup_sec.size(); ++k)
        o.note("setup.run" + std::to_string(k) + "_s", setup_sec[k]);
    addErrorAccounting(o);
    return o;
}

} // namespace

Outcome
runSuiteCold(const Options &opts)
{
    // Blocks of 12 rounds x 10 programs: p90 has 12 samples beyond it.
    // Fresh allocations stop after about ten rounds of cold tensors.
    return runClosedLoop({1024, true, {kPolicy}, 12, 10}, opts);
}

Outcome
runSweepTiming(const Options &opts)
{
    // Blocks of 12 rounds x 140 programs: p99 has ~17 samples beyond
    // it (the cold scans cluster, so fewer rounds can leave under 10).
    ClosedLoopSpec spec{2048, false, {""}, 12, 0};
    spec.labels.insert(spec.labels.end(), kSweepPolicies.begin(),
                       kSweepPolicies.end());
    return runClosedLoop(spec, opts);
}

} // namespace perfbench
