#include "workloads.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <map>
#include <thread>

#include "apps/benchmarks.hh"
#include "common/metrics_registry.hh"
#include "core/session.hh"
#include "harness.hh"

namespace perfbench {

namespace {

namespace sc = shmt::core;
using shmt::Tensor;

constexpr size_t kServeEdge = 512;
constexpr size_t kServeWorkers = 2;
/** Client streams per benchmark of the mix, half hot and half writing. */
constexpr size_t kStreamsPerBench = 4;
/**
 * Three image kernels, one iterative stencil, one VOp chain. Five
 * benchmarks with equal shares and well-separated latencies put p50
 * and p90 inside the third and fifth latency groups instead of on the
 * boundary between two (where four would put p50).
 */
const std::vector<std::string> kServeMix = {"blackscholes", "dct8x8", "dwt",
                                            "sobel", "srad"};
/**
 * Offered load in programs per second: 30% of the capacity measured on
 * a 4-CPU x86-64 host (offered 200/s, it completes ~150/s). Queue waits
 * amplify any slowdown of the host: at 50% the median latency spread
 * 15-26% across runs, at 40% up to 25%, at 30% 3%. Fixed rather than
 * probed per run, so programs_per_s does not inherit a probe's noise
 * and a faster runtime shows as lower latency at the same load.
 */
constexpr double kServeRate = 45.0;
/**
 * Programs of the untimed steady-state warm-up: enough, at 512^2 on
 * this mix, for the residency cache to reach its byte cap and start
 * evicting, after which the memory pool serves ~96% of leases from its
 * free lists (without it the first half of a 10 s run allocates fresh
 * memory and the pool reuses ~3%).
 */
constexpr size_t kSteadyPrograms = 600;
/** Arrivals per latency block: p90 has 16 samples beyond it. */
constexpr size_t kServeBlock = 160;
/** How often the generator looks for completed futures. */
constexpr double kPollSec = 200e-6;

struct ServeRef
{
    Tensor output;
    double makespanSec = 0.0;
};

/**
 * One client stream: a program over its own tensors, at most one
 * submission in flight (a stream never writes a tensor that a
 * submission still reads). Hot streams resubmit the same inputs; write
 * streams overwrite them in place before every submission, alternating
 * between two input versions, which bumps the tensor generation and
 * invalidates every id/generation-keyed cache entry.
 */
struct Stream
{
    Stream(size_t b, bool w, const sc::VopProgram &program)
        : bench(b), writes(w), copy(program), inputs(copy.inputs())
    {}

    size_t bench = 0;
    bool writes = false;
    ProgramCopy copy;
    std::vector<Tensor *> inputs;
    size_t sends = 0;
    int version = 0;  //!< input version of the in-flight submission
    bool inflight = false;
    size_t arrival = 0;
    std::future<sc::RunResult> future;
    std::deque<size_t> waiting;  //!< arrivals due while in flight
};

struct Arrival
{
    double dueSec = 0.0;  //!< offset from the start of the pass
    size_t stream = 0;
};

struct ServeState
{
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<sc::Runtime> rt;
    std::unique_ptr<sc::Session> session;  //!< destroyed before rt
    /** [bench][version] input tensors, in ProgramCopy::inputs order. */
    std::vector<std::array<std::vector<Tensor>, 2>> versions;
    std::vector<std::array<ServeRef, 2>> refs;
    std::vector<Stream> streams;
};

/** Whether @p s has a submission whose result is ready. */
bool
finished(const Stream &s)
{
    return s.inflight && s.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready;
}

void
writeVersion(const ServeState &st, Stream &s, int version)
{
    const std::vector<Tensor> &src = st.versions[s.bench][version];
    for (size_t k = 0; k < s.inputs.size(); ++k)
        std::memcpy(s.inputs[k]->data(), src[k].data(), src[k].bytes());
}

void
send(ServeState &st, Stream &s, size_t arrival)
{
    s.version = 0;
    if (s.writes) {
        s.version = s.sends % 2 == 0 ? 1 : 0;
        writeVersion(st, s, s.version);
    }
    sc::Session::Submission sub;
    sub.program = s.copy.program();
    sub.policy = sc::makePolicy(kPolicy);
    s.future = st.session->submit(std::move(sub));
    s.inflight = true;
    s.arrival = arrival;
    ++s.sends;
}

/** Collect @p s's result and check it against the set-up reference. */
sc::RunResult
complete(ServeState &st, Stream &s, Outcome &o)
{
    sc::RunResult r = s.future.get();
    s.inflight = false;
    const ServeRef &ref = st.refs[s.bench][s.version];
    const Tensor &out = s.copy.output();
    std::string why;
    if (!r.status.ok())
        why = r.status.toString();
    else if (r.makespanSec != ref.makespanSec)
        why = "simulated makespan " + num(r.makespanSec) + " != " +
              num(ref.makespanSec);
    else if (out.bytes() != ref.output.bytes() ||
             std::memcmp(out.data(), ref.output.data(), out.bytes()) != 0)
        why = "output differs from the standalone Runtime::run";
    o.program(why.empty(), kServeMix[s.bench] +
                               (s.writes ? "/write: " : "/hot: ") + why);
    return r;
}

ServeState
setupServe(const Options &opts, size_t host_threads, Outcome &o)
{
    ServeState st;
    if (opts.trace)
        st.tracer = std::make_unique<Tracer>();
    st.rt = makeRuntime(host_threads, st.tracer.get());
    sc::SessionOptions so;
    so.workers = kServeWorkers;
    st.session = std::make_unique<sc::Session>(*st.rt, so);

    SplitMix roles(opts.seed ^ 0x5e55105ull);
    st.streams.reserve(kStreamsPerBench * kServeMix.size());
    for (size_t b = 0; b < kServeMix.size(); ++b) {
        const std::string &name = kServeMix[b];
        auto bench = shmt::apps::makeBenchmark(name, kServeEdge, kServeEdge,
                                               opts.seed);
        auto other = shmt::apps::makeBenchmark(name, kServeEdge, kServeEdge,
                                               ~opts.seed);
        ProgramCopy a(bench->program());
        ProgramCopy alt(other->program());
        std::array<std::vector<Tensor>, 2> v;
        for (Tensor *t : a.inputs())
            v[0].push_back(*t);
        for (Tensor *t : alt.inputs())
            v[1].push_back(*t);
        o.require(v[0].size() == v[1].size(),
                  name + ": input versions differ in arity");
        st.versions.push_back(std::move(v));

        // The references: a standalone Runtime::run of each version of
        // exactly the program the streams submit, same seed.
        std::array<ServeRef, 2> refs;
        for (int version = 0; version < 2; ++version) {
            Stream probe(b, false, bench->program());
            writeVersion(st, probe, version);
            const sc::RunResult r =
                runJob(*st.rt, probe.copy.program(), kPolicy, true);
            o.require(r.status.ok(), "reference " + name + ": " +
                                         r.status.toString());
            refs[version] = {probe.copy.output(), r.makespanSec};
        }
        st.refs.push_back(std::move(refs));

        // Half of each benchmark's streams write, in a seeded order.
        bool writes[kStreamsPerBench];
        for (size_t k = 0; k < kStreamsPerBench; ++k)
            writes[k] = k % 2 == 1;
        for (size_t k = kStreamsPerBench; k > 1; --k)
            std::swap(writes[k - 1], writes[roles.next() % k]);
        for (size_t k = 0; k < kStreamsPerBench; ++k)
            st.streams.emplace_back(b, writes[k], bench->program());
    }

    // Warm-up, closed loop with one submission per worker in flight:
    // touches every stream's tensors and fills the pool and the caches.
    Outcome warm;
    for (int round = 0; round < 2; ++round)
        for (size_t i = 0; i < st.streams.size(); i += kServeWorkers) {
            const size_t end = std::min(i + kServeWorkers, st.streams.size());
            for (size_t k = i; k < end; ++k)
                send(st, st.streams[k], 0);
            for (size_t k = i; k < end; ++k)
                complete(st, st.streams[k], warm);
        }
    o.require(warm.correct, "serve-mixed warm-up failed its output checks");
    return st;
}

/**
 * Closed loop with every stream in flight until @p programs complete:
 * drives the residency cache to its byte cap and the memory pool's
 * free lists to their steady state, which the open-loop rate alone
 * would take most of a run to reach.
 */
void
saturate(ServeState &st, size_t programs, Outcome &o)
{
    size_t sent = 0;
    size_t done = 0;
    for (Stream &s : st.streams)
        if (sent < programs) {
            send(st, s, 0);
            ++sent;
        }
    while (done < sent) {
        for (Stream &s : st.streams) {
            if (!finished(s))
                continue;
            complete(st, s, o);
            ++done;
            if (sent < programs) {
                send(st, s, 0);
                ++sent;
            }
        }
        std::this_thread::sleep_for(std::chrono::duration<double>(kPollSec));
    }
}

/**
 * The seeded arrival schedule: rate x seconds arrivals (at least
 * kMinBlocks latency blocks' worth, the run lengthened to match) at
 * independent uniform times over the run — a Poisson process
 * conditioned on its count, so the offered load is exactly the rate on
 * every seed.
 * Streams are drawn in shuffled blocks that visit every stream once,
 * so each benchmark and stream kind gets the same share of the load
 * and the latency mixture keeps its shape from seed to seed.
 */
std::vector<Arrival>
makeArrivals(uint64_t seed, double seconds, size_t streams)
{
    SplitMix rng(seed);
    const size_t n = std::max(static_cast<size_t>(kServeRate * seconds),
                              kMinBlocks * kServeBlock);
    const double span = static_cast<double>(n) / kServeRate;
    // Sorted uniforms as normalized sums of n + 1 exponential gaps.
    std::vector<double> at(n + 1);
    double t = 0.0;
    for (double &a : at) {
        t += -std::log(1.0 - rng.uniform());
        a = t;
    }
    std::vector<size_t> block(streams);
    std::vector<Arrival> out;
    for (size_t i = 0; i < n; ++i) {
        const size_t pos = i % streams;
        if (pos == 0) {
            for (size_t k = 0; k < streams; ++k)
                block[k] = k;
            for (size_t k = streams; k > 1; --k)
                std::swap(block[k - 1], block[rng.next() % k]);
        }
        out.push_back({at[i] / t * span, block[pos]});
    }
    return out;
}

struct ServeStats
{
    /** Per arrival: due time to observed completion. */
    std::vector<double> latencies;
    std::vector<double> lateness;   //!< due time to the generator's send
    std::map<std::string, std::vector<double>> groups;
    size_t deferred = 0;            //!< arrivals that found their stream busy
    size_t peakQueue = 0;           //!< Session::queuedCount() at each poll
    double durationSec = 0.0;       //!< pass start to last completion
    uint64_t hlops = 0;
    uint64_t steals = 0;
};

/**
 * One open-loop pass: the generator (this thread) sends every arrival
 * at its due time and polls the in-flight futures in between. Latency
 * runs from the due time, so a stall also charges the arrivals queued
 * behind it.
 */
ServeStats
servePass(ServeState &st, const std::vector<Arrival> &arrivals, Outcome &o)
{
    ServeStats stats;
    stats.latencies.resize(arrivals.size());
    const double t0 = now();
    size_t next = 0;
    size_t done = 0;
    while (done < arrivals.size()) {
        const double t = now() - t0;
        for (Stream &s : st.streams) {
            if (!finished(s))
                continue;
            const sc::RunResult r = complete(st, s, o);
            const double latency = t - arrivals[s.arrival].dueSec;
            stats.latencies[s.arrival] = latency;
            stats.groups[kServeMix[s.bench] + (s.writes ? "/write" : "/hot")]
                .push_back(latency);
            stats.durationSec = t;
            stats.hlops += r.hlopsTotal;
            for (const sc::DeviceStats &d : r.devices)
                stats.steals += d.stolen;
            ++done;
            if (!s.waiting.empty()) {
                send(st, s, s.waiting.front());
                s.waiting.pop_front();
            }
        }
        for (; next < arrivals.size() && arrivals[next].dueSec <= t; ++next) {
            Stream &s = st.streams[arrivals[next].stream];
            stats.lateness.push_back(t - arrivals[next].dueSec);
            if (s.inflight) {
                s.waiting.push_back(next);
                ++stats.deferred;
            } else {
                send(st, s, next);
            }
        }
        stats.peakQueue =
            std::max(stats.peakQueue, st.session->queuedCount());
        double wait = kPollSec;
        if (next < arrivals.size())
            wait = std::min(wait, arrivals[next].dueSec - (now() - t0));
        if (wait > 0.0)
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    return stats;
}

/** The session's queue-wait histograms, one per worker. */
std::vector<shmt::common::HistogramSnapshot>
queueWaitSnapshots()
{
    const auto &reg = shmt::common::MetricsRegistry::instance();
    std::vector<shmt::common::HistogramSnapshot> out;
    for (size_t w = 0; w < kServeWorkers; ++w)
        out.push_back(reg.histogramSnapshot(
            "shmt_session_queue_wait_seconds",
            {{"worker", std::to_string(w)}}));
    return out;
}

/** Merged p50 of the queue-wait histograms since @p since. */
double
queueWaitP50Ms(const std::vector<shmt::common::HistogramSnapshot> &since)
{
    const auto now_snap = queueWaitSnapshots();
    shmt::common::HistogramSnapshot merged;
    for (size_t w = 0; w < kServeWorkers; ++w) {
        const auto d = now_snap[w].delta(since[w]);
        merged.count += d.count;
        merged.sumNanos += d.sumNanos;
        for (size_t i = 0; i < merged.buckets.size(); ++i)
            merged.buckets[i] += d.buckets[i];
    }
    return merged.quantile(0.5) * 1e3;
}

} // namespace

Outcome
runServeMixed(const Options &opts)
{
    Outcome o;
    // One generator thread and two session workers; the pool's own
    // threads (its lanes minus the caller lane) get what is left, up to
    // kPoolLanes lanes. Each worker runs pool chunks itself too.
    const size_t cpus = availableCpus();
    const size_t spare = cpus > 1 + kServeWorkers ? cpus - 1 - kServeWorkers
                                                  : 0;
    const size_t host_threads = std::min(kPoolLanes, spare + 1);
    noteEnvironment(o, host_threads, kServeWorkers, 1);
    o.note("workload.edge", std::to_string(kServeEdge));
    o.note("serve.rate_per_s", kServeRate);

    std::vector<double> setup_sec;
    ServeState st;
    for (size_t k = 0; k < kSetups; ++k) {
        // Release the previous set-up before timing the next; its
        // session first, whose workers reference its runtime.
        st.session.reset();
        st = {};
        const double t0 = now();
        st = setupServe(opts, host_threads, o);
        setup_sec.push_back(now() - t0);
    }
    for (const Stream &s : st.streams)
        o.note("serve.stream", kServeMix[s.bench] +
                                   (s.writes ? " write" : " hot"));

    // Untimed, after the set-ups: bring the residency cache to its
    // byte cap and the pool's free lists to their steady state.
    const double steady_t0 = now();
    Outcome warm;
    saturate(st, kSteadyPrograms, warm);
    o.require(warm.correct, "steady-state warm-up failed its output checks");
    o.note("warmup.steady_s", now() - steady_t0);
    const std::vector<Arrival> arrivals =
        makeArrivals(opts.seed, opts.seconds, st.streams.size());
    const Counters c0 = readCounters();
    const auto wait0 = queueWaitSnapshots();
    if (st.tracer)
        st.tracer->arm(false);
    const ServeStats stats = servePass(st, arrivals, o);
    const size_t ok = o.attempted - o.failed;

    o.note("serve.arrivals", std::to_string(arrivals.size()));
    o.note("serve.deferred_busy_stream", std::to_string(stats.deferred));
    o.note("serve.duration_s", stats.durationSec);
    o.note("loadgen.lateness_p50_ms", percentile(stats.lateness, 0.5) * 1e3);
    o.note("loadgen.lateness_p99_ms", percentile(stats.lateness, 0.99) * 1e3);
    o.note("session.peak_queue", std::to_string(stats.peakQueue));

    if (!opts.trace) {
        o.add("setup_s", percentile(setup_sec, 0.5), "s");
        o.add("programs_per_s",
              ratio(static_cast<double>(ok), stats.durationSec), "1/s");
        o.add("hlops_per_s",
              ratio(static_cast<double>(stats.hlops), stats.durationSec),
              "1/s");
        addLatencyMetrics(o, stats.latencies, kServeBlock);
        noteGroupLatency(o, stats.groups);
        o.add("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        LayerInputs layers;
        accumulate(layers.counters, c0, readCounters());
        layers.queueWaitP50Ms = queueWaitP50Ms(wait0);
        layers.peakQueue = stats.peakQueue;
        layers.latenessP99Ms = percentile(stats.lateness, 0.99) * 1e3;
        layers.hlops = stats.hlops;
        layers.steals = stats.steals;
        for (double l : stats.latencies)
            layers.criticalSec += l;

        // Second pass on the same schedule with the backend
        // decorators recording: the backend split and, against the
        // first pass, the tracing overhead.
        st.tracer->arm(true);
        const ServeStats traced = servePass(st, arrivals, o);
        st.tracer->arm(false);
        for (double l : traced.latencies)
            layers.tracedSec += l;
        layers.spans = st.tracer->totals([](const Span &) { return true; });
        addLayerMetrics(o, layers);
        writeSpans(opts, *st.tracer, o);
    }

    if (!opts.trace)
        addSimMetrics(o, *st.rt, kServeMix, kServeEdge);
    for (size_t k = 0; k < setup_sec.size(); ++k)
        o.note("setup.run" + std::to_string(k) + "_s", setup_sec[k]);
    addErrorAccounting(o);
    return o;
}

} // namespace perfbench
