#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench_util.hh"

namespace perfbench {

namespace {

uint32_t
threadIndex()
{
    static std::atomic<uint32_t> next{1};
    thread_local const uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

Tracer::Tracer() : epoch_(now()) {}

double
Tracer::clock() const
{
    return now() - epoch_;
}

void
Tracer::record(Span span)
{
    span.thread = threadIndex();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(span);
}

size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

std::map<std::string, LayerTotals>
Tracer::totals(const std::function<bool(const Span &)> &keep) const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::unordered_map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans_)
        if (s.parent != 0 && keep(s))
            children[s.parent].push_back(&s);

    std::map<std::string, LayerTotals> out;
    for (const Span &s : spans_) {
        if (!keep(s))
            continue;
        LayerTotals &t = out[s.name];
        const double dur = s.end - s.start;
        t.calls += 1;
        t.busySec += dur;
        t.elems += s.elems;

        // Children may run concurrently on pool lanes: subtract the
        // union of their intervals, clipped to this span, not the sum.
        std::vector<std::pair<double, double>> iv;
        if (auto it = children.find(s.id); it != children.end())
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->start, s.start),
                                std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double reach = s.start;
        for (const auto &[a, b] : iv) {
            const double lo = std::max(a, reach);
            if (b > lo) {
                covered += b - lo;
                reach = b;
            }
        }
        t.selfSec += dur - covered;
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"span\":%llu,\"parent\":%llu,\"program\":%llu,"
                     "\"elems\":%llu}}",
                     i == 0 ? "" : ",", s.name, s.thread, s.start * 1e6,
                     (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.program),
                     static_cast<unsigned long long>(s.elems));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer &tracer, const char *name, uint64_t parent,
                       uint64_t program)
    : tracer_(tracer)
{
    span_.id = tracer.newId();
    span_.parent = parent;
    span_.program = program;
    span_.name = name;
    span_.start = tracer.clock();
}

ScopedSpan::~ScopedSpan()
{
    if (!tracer_.armed())
        return;
    span_.end = tracer_.clock();
    tracer_.record(span_);
}

namespace {

using shmt::devices::Backend;

const char *
backendSpanName(shmt::sim::DeviceKind kind)
{
    switch (kind) {
    case shmt::sim::DeviceKind::Gpu:
        return "backend.gpu";
    case shmt::sim::DeviceKind::EdgeTpu:
        return "backend.edgetpu";
    case shmt::sim::DeviceKind::Cpu:
        return "backend.cpu";
    case shmt::sim::DeviceKind::Dsp:
        return "backend.dsp";
    }
    return "backend";
}

/** Forwards every call to a backend it may or may not own. */
class ForwardingBackend : public Backend
{
  public:
    explicit ForwardingBackend(const Backend &target) : target_(&target) {}

    shmt::sim::DeviceKind kind() const override { return target_->kind(); }
    std::string_view name() const override { return target_->name(); }
    shmt::DType nativeDtype() const override
    {
        return target_->nativeDtype();
    }
    bool
    supports(const shmt::kernels::KernelInfo &info) const override
    {
        return target_->supports(info);
    }
    shmt::common::Status
    execute(const shmt::kernels::KernelInfo &info,
            const shmt::kernels::KernelArgs &args, const shmt::Rect &region,
            shmt::TensorView out, uint64_t seed) const override
    {
        return target_->execute(info, args, region, out, seed);
    }
    size_t
    stagingBytesPerElement() const override
    {
        return target_->stagingBytesPerElement();
    }

  protected:
    const Backend *target_;
};

class TimedBackend final : public ForwardingBackend
{
  public:
    TimedBackend(std::unique_ptr<Backend> inner, Tracer &tracer)
        : ForwardingBackend(*inner), inner_(std::move(inner)),
          tracer_(&tracer), spanName_(backendSpanName(inner_->kind()))
    {}

    shmt::common::Status
    execute(const shmt::kernels::KernelInfo &info,
            const shmt::kernels::KernelArgs &args, const shmt::Rect &region,
            shmt::TensorView out, uint64_t seed) const override
    {
        if (!tracer_->armed())
            return inner_->execute(info, args, region, out, seed);
        Span span;
        span.id = tracer_->newId();
        span.parent = tracer_->ambientParent();
        span.program = tracer_->ambientProgram();
        span.name = spanName_;
        span.elems = region.size();
        span.start = tracer_->clock();
        shmt::common::Status st =
            inner_->execute(info, args, region, out, seed);
        span.end = tracer_->clock();
        tracer_->record(span);
        return st;
    }

  private:
    std::unique_ptr<Backend> inner_;
    Tracer *tracer_;
    const char *spanName_;
};

} // namespace

std::unique_ptr<Backend>
makeTimedBackend(std::unique_ptr<Backend> inner, Tracer &tracer)
{
    return std::make_unique<TimedBackend>(std::move(inner), tracer);
}

std::unique_ptr<Backend>
makeBackendRef(const Backend &target)
{
    return std::make_unique<ForwardingBackend>(target);
}

} // namespace perfbench
