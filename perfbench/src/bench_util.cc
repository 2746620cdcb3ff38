#include "bench_util.hh"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <thread>

namespace perfbench {

void
Outcome::add(std::string name, double value, std::string unit)
{
    metrics.push_back({std::move(name), value, std::move(unit)});
}

void
Outcome::note(const std::string &key, const std::string &value)
{
    notes.push_back(key + ": " + value);
}

void
Outcome::note(const std::string &key, double value)
{
    note(key, num(value));
}

void
Outcome::program(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        require(false, what);
    }
}

void
Outcome::require(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    // Keep the report readable when one defect fails every program.
    if (std::count_if(notes.begin(), notes.end(), [](const std::string &n) {
            return n.rfind("FAILED", 0) == 0;
        }) < 20)
        note("FAILED", what);
}

ProgramCopy::ProgramCopy(const shmt::core::VopProgram &src)
{
    std::map<const shmt::Tensor *, size_t> index;
    auto slot = [&](const shmt::Tensor *t) {
        auto [it, fresh] = index.emplace(t, tensors_.size());
        if (fresh)
            tensors_.push_back(*t);
        return it->second;
    };
    for (const shmt::core::VOp &op : src.ops) {
        OpTensors ot;
        for (const shmt::Tensor *t : op.inputs)
            ot.inputs.push_back(slot(t));
        ot.output = slot(op.output);
        ops_.push_back(std::move(ot));
    }
    program_ = src;
    bind();
}

ProgramCopy
ProgramCopy::renew(ProgramCopy &&prev)
{
    ProgramCopy next;
    for (shmt::Tensor &t : prev.tensors_)
        next.tensors_.push_back(std::move(t));
    next.ops_ = std::move(prev.ops_);
    next.program_ = std::move(prev.program_);
    next.bind();
    return next;
}

void
ProgramCopy::bind()
{
    for (size_t i = 0; i < ops_.size(); ++i) {
        shmt::core::VOp &op = program_.ops[i];
        for (size_t k = 0; k < ops_[i].inputs.size(); ++k)
            op.inputs[k] = &tensors_[ops_[i].inputs[k]];
        op.output = &tensors_[ops_[i].output];
    }
}

std::vector<shmt::Tensor *>
ProgramCopy::inputs()
{
    std::vector<char> written(tensors_.size(), 0);
    for (const OpTensors &ot : ops_)
        written[ot.output] = 1;
    std::vector<shmt::Tensor *> out;
    std::vector<char> seen(tensors_.size(), 0);
    for (const OpTensors &ot : ops_)
        for (size_t i : ot.inputs)
            if (!written[i] && !seen[i]) {
                seen[i] = 1;
                out.push_back(&tensors_[i]);
            }
    return out;
}

uint64_t
hashTensor(const shmt::Tensor &t)
{
    const auto *bytes = reinterpret_cast<const unsigned char *>(t.data());
    const size_t n = t.bytes();
    uint64_t h = 14695981039346656037ull;
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        uint64_t w;
        std::memcpy(&w, bytes + i, 8);
        h = (h ^ w) * 1099511628211ull;
    }
    for (; i < n; ++i)
        h = (h ^ bytes[i]) * 1099511628211ull;
    return h;
}

namespace {

double
sortedPercentile(const std::vector<double> &v, double q)
{
    const double rank = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/** Continued fraction of the incomplete beta (modified Lentz). */
double
betaFraction(double a, double b, double x)
{
    const auto nonzero = [](double v) {
        return std::fabs(v) < 1e-300 ? 1e-300 : v;
    };
    const double qab = a + b, qap = a + 1.0, qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 / nonzero(1.0 - qab * x / qap);
    double h = d;
    for (int m = 1; m <= 10000; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 / nonzero(1.0 + aa * d);
        c = nonzero(1.0 + aa / c);
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 / nonzero(1.0 + aa * d);
        c = nonzero(1.0 + aa / c);
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < 1e-15)
            break;
    }
    return h;
}

/** Regularized incomplete beta function I_x(a, b). */
double
incompleteBeta(double a, double b, double x)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    const double front =
        std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                 a * std::log(x) + b * std::log1p(-x));
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaFraction(a, b, x) / a;
    return 1.0 - front * betaFraction(b, a, 1.0 - x) / b;
}

/**
 * Harrell-Davis estimate of quantile @p q: every order statistic
 * weighted by the beta distribution of the q-th sample quantile. Where
 * the sample is a mixture of well-separated groups (one per benchmark)
 * and q falls between two of them, interpolating between two order
 * statistics reads the extreme of one group; this reads a band around
 * the position instead, so it does not jump with a single outlier.
 */
double
harrellDavis(const std::vector<double> &v, double q)
{
    const double n = static_cast<double>(v.size());
    const double a = (n + 1.0) * q;
    const double b = (n + 1.0) * (1.0 - q);
    double sum = 0.0;
    double prev = 0.0;
    for (size_t i = 0; i < v.size(); ++i) {
        const double cdf =
            incompleteBeta(a, b, static_cast<double>(i + 1) / n);
        sum += (cdf - prev) * v[i];
        prev = cdf;
    }
    return sum;
}

} // namespace

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    return sortedPercentile(v, q);
}

LatencySummary
summarize(const std::vector<double> &seconds, size_t block)
{
    LatencySummary s;
    s.samples = seconds.size();
    if (block == 0)
        return s;
    // Ten samples beyond p(q) needs (1 - q) * block >= 10.
    double tail_q = 1.0;
    s.tailLabel = "max";
    if (block >= 10000) {
        tail_q = 0.999;
        s.tailLabel = "p99.9";
    } else if (block >= 1000) {
        tail_q = 0.99;
        s.tailLabel = "p99";
    } else if (block >= 100) {
        tail_q = 0.9;
        s.tailLabel = "p90";
    }

    std::vector<double> p50, p90, p99, p999, tail;
    s.tailBeyond = block;
    for (size_t i = 0; i + block <= seconds.size(); i += block) {
        std::vector<double> v(seconds.begin() + i,
                              seconds.begin() + i + block);
        std::sort(v.begin(), v.end());
        p50.push_back(harrellDavis(v, 0.5) * 1e3);
        p90.push_back(harrellDavis(v, 0.9) * 1e3);
        p99.push_back(harrellDavis(v, 0.99) * 1e3);
        p999.push_back(harrellDavis(v, 0.999) * 1e3);
        const double t = tail_q < 1.0 ? harrellDavis(v, tail_q) : v.back();
        tail.push_back(t * 1e3);
        s.tailBeyond = std::min<size_t>(
            s.tailBeyond,
            static_cast<size_t>(v.end() -
                                std::upper_bound(v.begin(), v.end(), t)));
        ++s.blocks;
    }
    if (s.blocks == 0) {
        s.tailBeyond = 0;
        return s;
    }
    s.p50Ms = percentile(p50, 0.5);
    s.p90Ms = percentile(p90, 0.5);
    s.p99Ms = percentile(p99, 0.5);
    s.p999Ms = percentile(p999, 0.5);
    s.tailMs = percentile(tail, 0.5);
    return s;
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

size_t
availableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

uint64_t
SplitMix::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
SplitMix::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench
