/**
 * @file
 * Shared pieces of the end-to-end benchmark: command-line options,
 * the per-run outcome (checks, counts, metrics), private copies of
 * VOp programs, output hashing and latency percentiles.
 */

#ifndef PERFBENCH_BENCH_UTIL_HH
#define PERFBENCH_BENCH_UTIL_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/vop.hh"
#include "tensor/tensor.hh"

namespace perfbench {

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (Chrome trace JSON). */
    std::string spansOut;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one workload run produces: the correctness verdict, the
 * program counts behind error_rate, the metrics in report order and
 * free-form "key: value" notes (environment, sample counts, the
 * numerator and denominator of each ratio).
 */
struct Outcome
{
    bool correct = true;
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit);
    void note(const std::string &key, const std::string &value);
    void note(const std::string &key, double value);

    /**
     * Count one attempted program; a false @p ok counts it as failed,
     * makes the run incorrect and records @p what.
     */
    void program(bool ok, const std::string &what);

    /** A check that is not about one program (e.g. replay fidelity). */
    void require(bool ok, const std::string &what);
};

/**
 * A program over tensors this object owns. Copying or renewing gives
 * every tensor a fresh identity (tensor.hh: copies and moves mint new
 * ids), so the runtime's id/generation-keyed caches see tensors they
 * have never met, while the bytes stay the same.
 */
class ProgramCopy
{
  public:
    /** Copy every tensor @p src reads or writes. */
    explicit ProgramCopy(const shmt::core::VopProgram &src);

    ProgramCopy(ProgramCopy &&) = default;
    ProgramCopy &operator=(ProgramCopy &&) = default;
    ProgramCopy(const ProgramCopy &) = delete;
    ProgramCopy &operator=(const ProgramCopy &) = delete;

    /** Take @p prev's payloads without copying them, under fresh ids. */
    static ProgramCopy renew(ProgramCopy &&prev);

    const shmt::core::VopProgram &program() const { return program_; }

    /** The last VOp's output (every paper benchmark's result). */
    shmt::Tensor &output() { return tensors_[ops_.back().output]; }
    const shmt::Tensor &output() const
    {
        return tensors_[ops_.back().output];
    }

    /** Tensors the program reads and never writes, in first-use order. */
    std::vector<shmt::Tensor *> inputs();

  private:
    ProgramCopy() = default;

    struct OpTensors
    {
        std::vector<size_t> inputs;
        size_t output = 0;
    };

    /** Point program_'s VOps at tensors_. */
    void bind();

    std::deque<shmt::Tensor> tensors_; //!< deque: stable addresses
    std::vector<OpTensors> ops_;
    shmt::core::VopProgram program_;
};

/** FNV-1a over the tensor's bytes, folded 8 bytes at a time. */
uint64_t hashTensor(const shmt::Tensor &t);

/**
 * Median and tail of a latency sample (seconds in, ms out), as the
 * median over consecutive blocks of the per-block Harrell-Davis
 * percentiles: a burst of interference on the host shifts one or two
 * blocks, not the result.
 */
struct LatencySummary
{
    size_t samples = 0;
    size_t blocks = 0;
    double p50Ms = 0.0;
    double p90Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    /**
     * The highest of p90/p99/p99.9 with at least ten samples of a block
     * beyond it — a function of the block size only, so it is the same
     * percentile on every run of a workload.
     */
    double tailMs = 0.0;
    std::string tailLabel;
    /** Fewest samples above the tail in any block. */
    size_t tailBeyond = 0;
};

/** Summarize @p seconds in blocks of @p block samples (>= 100); a
 *  trailing partial block is left out. */
LatencySummary summarize(const std::vector<double> &seconds, size_t block);

/** One percentile of an unsorted sample by linear interpolation
 *  between order statistics (0 when empty). */
double percentile(std::vector<double> v, double q);

/** Process peak resident set size (ru_maxrss) in MiB. */
double peakRssMib();

/** CPUs this process may run on. */
size_t availableCpus();

/** Monotonic host seconds. */
double now();

/** Geometric mean (0 for an empty sample). */
double geomean(const std::vector<double> &v);

/** Deterministic 64-bit stream (splitmix64) for load generation. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, 1). */
    double uniform();

  private:
    uint64_t state_;
};

/** Render @p v with every significant digit. */
std::string num(double v);

} // namespace perfbench

#endif // PERFBENCH_BENCH_UTIL_HH
