#include "replay.hh"

#include <algorithm>

#include "common/thread_pool.hh"
#include "core/aggregator.hh"
#include "core/dispatch_sim.hh"
#include "core/hlop_executor.hh"
#include "core/sampling_engine.hh"

namespace perfbench {

namespace sc = shmt::core;

namespace {

/** Everything to queue slot 0, no sampling, no stealing: the policy
 *  behind runGpuBaseline's one-device plans. */
class PinnedPolicy final : public sc::Policy
{
  public:
    std::string_view name() const override { return "pinned"; }
    std::vector<size_t>
    assign(const std::vector<sc::PartitionInfo> &partitions,
           const std::vector<sc::DeviceInfo> &) const override
    {
        return std::vector<size_t>(partitions.size(), 0);
    }
    bool stealingEnabled() const override { return false; }
};

} // namespace

ReplayOutcome
replayProgram(sc::Runtime &runtime,
              const std::vector<std::unique_ptr<shmt::devices::Backend>>
                  &devices,
              const sc::VopProgram &program, std::string_view policy_label,
              bool functional, Tracer &tracer, uint64_t program_id)
{
    const bool baseline = policy_label.empty();
    const sc::RuntimeConfig &config = runtime.config();
    const shmt::sim::CostModel &cost = runtime.costModel();

    ReplayOutcome out;
    out.status = runtime.validate(program);
    if (!out.status.ok())
        return out;

    size_t gpu = devices.size();
    for (size_t d = 0; d < devices.size(); ++d)
        if (devices[d]->kind() == shmt::sim::DeviceKind::Gpu)
            gpu = d;
    if (baseline && gpu == devices.size()) {
        out.status = shmt::common::Status::invalidArgument("no GPU device");
        return out;
    }

    ScopedSpan program_span(tracer, "program", 0, program_id);
    shmt::common::ThreadPool::configureGlobal(config.hostThreads);

    const sc::Planner planner = runtime.makePlanner();
    const sc::SamplingEngine sampler(cost);
    const sc::DispatchSim dispatch(devices, cost,
                                   !baseline && config.stealSplitting);
    const sc::HlopExecutor executor(devices);
    // makePrototypeRuntime and the benchmark's runtimes are built on
    // the default calibration.
    const sc::Aggregator aggregator(shmt::sim::defaultCalibration(), cost);

    std::unique_ptr<sc::Policy> policy =
        baseline ? std::make_unique<PinnedPolicy>()
                 : sc::makePolicy(policy_label);
    std::vector<shmt::sim::DeviceTimeline> timelines;
    for (const auto &d : devices)
        timelines.emplace_back(d->kind(), config.doubleBuffering);
    sc::ProducerMap producers;
    sc::CriticalityCache *memo =
        config.planCache ? &runtime.dataCache() : nullptr;
    shmt::sim::HostPhaseStats wall;

    double clock = 0.0;
    const uint64_t root = program_span.id();
    for (size_t i = 0; i < program.ops.size(); ++i) {
        const sc::VOp &vop = program.ops[i];
        sc::VopPlan plan = [&] {
            ScopedSpan s(tracer, "planner", root, program_id);
            return baseline ? planner.planSingleDevice(vop, i, gpu)
                            : planner.plan(vop, i, config.seed);
        }();

        std::vector<sc::PartitionInfo> pinfos;
        double release = 0.0;
        if (baseline) {
            pinfos.resize(plan.partitions.size());
            for (size_t k = 0; k < plan.partitions.size(); ++k)
                pinfos[k].region = plan.partitions[k];
        } else {
            ScopedSpan s(tracer, "sampling", root, program_id);
            policy->beginVop(
                sc::VopContext{plan.costKey(), &cost, plan.costWeight()});
            release = sampler.charge(plan, *policy, clock, pinfos, &wall,
                                     memo);
        }

        sc::DispatchOutcome outcome = [&] {
            ScopedSpan s(tracer, "dispatch", root, program_id);
            return dispatch.run(
                plan, pinfos, *policy, release, timelines,
                baseline ? nullptr : &producers,
                baseline ? sc::DispatchSim::Costing::Baseline
                         : sc::DispatchSim::Costing::Hlop);
        }();
        for (const sc::DispatchRecord &rec : outcome.records) {
            if (rec.kind == sc::DispatchRecord::Kind::Steal)
                out.steals += rec.count;
            else
                out.hlops += 1;
        }

        if (!baseline) {
            ScopedSpan s(tracer, "aggregator", root, program_id);
            double completion = release;
            for (const shmt::sim::DeviceTimeline &tl : timelines)
                completion = std::max(completion, tl.now());
            clock = completion + aggregator.cost(plan);
        }

        if (!functional)
            continue;
        const shmt::kernels::KernelInfo &info = *plan.info();
        std::vector<shmt::Tensor> accumulators;
        if (info.reduce != shmt::kernels::ReduceKind::None)
            for (size_t k = 0; k < plan.partitions.size(); ++k)
                accumulators.emplace_back(info.reduceRows, info.reduceCols);
        {
            ScopedSpan s(tracer, "executor", root, program_id);
            tracer.setAmbient(s.id(), program_id);
            sc::ExecOutcome eo =
                executor.execute(plan, outcome.records, accumulators, &wall);
            tracer.setAmbient(0, 0);
            if (!eo.status.ok()) {
                out.status = eo.status;
                break;
            }
            // A recovered fault is charged on the simulated clock after
            // the dispatch loop; the benchmark injects no faults, so a
            // recovery here would be a replay divergence.
            if (!eo.recoveries.empty()) {
                out.status = shmt::common::Status::internal(
                    "unexpected HLOP recovery during replay");
                break;
            }
        }
        ScopedSpan s(tracer, "aggregator", root, program_id);
        aggregator.combine(plan, accumulators, &wall);
    }
    out.makespanSec = baseline ? timelines[gpu].now() : clock;
    return out;
}

} // namespace perfbench
