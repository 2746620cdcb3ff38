/**
 * @file
 * Outside-in tracing for the benchmark's traced run.
 *
 * Spans are recorded around calls into the SHMT layers from the
 * benchmark's own code — the stage replay (replay.hh) times the five
 * pipeline stages, and a timing decorator around every device backend
 * times each HLOP body — so the runtime itself is measured without a
 * single change to it. Spans stay in memory and are written out as a
 * Chrome trace when the run ends.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "devices/backend.hh"

namespace perfbench {

/** One timed interval of one layer call. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;   //!< 0 = a root span
    uint64_t program = 0;  //!< spans of one program share this
    const char *name = ""; //!< layer, e.g. "planner" (static storage)
    double start = 0.0;    //!< seconds since the tracer's epoch
    double end = 0.0;
    uint64_t elems = 0;    //!< elements processed (backend spans)
    uint32_t thread = 0;
};

/** Per-layer totals derived from the spans. */
struct LayerTotals
{
    size_t calls = 0;
    double busySec = 0.0;  //!< summed span durations
    double selfSec = 0.0;  //!< busy minus the part children cover
    uint64_t elems = 0;
};

/**
 * The in-memory span log. Recording is a mutex-guarded append: the
 * traced run is separate from the timed runs, and the cost it adds is
 * reported as the tracing overhead.
 */
class Tracer
{
  public:
    Tracer();

    /** Record nothing while disarmed (the untraced reference runs). */
    void arm(bool on) { armed_.store(on, std::memory_order_relaxed); }
    bool armed() const { return armed_.load(std::memory_order_relaxed); }

    /** Fresh span id (ids start at 1; 0 means "no parent"). */
    uint64_t newId() { return nextId_.fetch_add(1); }

    /** Seconds since this tracer was created. */
    double clock() const;

    void record(Span span);

    /**
     * The span that calls from pool threads (backend executions)
     * attach to: the executor stage in a replay, the program span in a
     * traced Runtime::run.
     */
    void
    setAmbient(uint64_t parent, uint64_t program)
    {
        ambientParent_.store(parent, std::memory_order_relaxed);
        ambientProgram_.store(program, std::memory_order_relaxed);
    }
    uint64_t ambientParent() const { return ambientParent_.load(); }
    uint64_t ambientProgram() const { return ambientProgram_.load(); }

    /**
     * Totals by span name over the spans @p keep accepts; self time
     * subtracts the union of each span's children.
     */
    std::map<std::string, LayerTotals>
    totals(const std::function<bool(const Span &)> &keep) const;

    /** Write the spans as Chrome trace JSON; false on I/O failure. */
    bool writeChromeTrace(const std::string &path) const;

    size_t size() const;

  private:
    double epoch_;
    std::atomic<bool> armed_{false};
    std::atomic<uint64_t> nextId_{1};
    std::atomic<uint64_t> ambientParent_{0};
    std::atomic<uint64_t> ambientProgram_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_; //!< guarded by mu_
};

/** RAII span: takes its id on entry (so children can name it). */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, uint64_t parent,
               uint64_t program);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return span_.id; }

  private:
    Tracer &tracer_;
    Span span_;
};

/**
 * Wrap @p inner so every execute() is recorded as a span named
 * "backend.<kind>" (same decorator pattern as
 * devices::FaultInjectingBackend). Forwarding only while disarmed.
 */
std::unique_ptr<shmt::devices::Backend>
makeTimedBackend(std::unique_ptr<shmt::devices::Backend> inner,
                 Tracer &tracer);

/**
 * A non-owning stand-in for @p target, for stage objects (DispatchSim,
 * HlopExecutor) that take a backend vector while the Runtime owns the
 * real one.
 */
std::unique_ptr<shmt::devices::Backend>
makeBackendRef(const shmt::devices::Backend &target);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
