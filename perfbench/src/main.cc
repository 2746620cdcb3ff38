/**
 * @file
 * shmt_perfbench: the repository's end-to-end and per-layer benchmark.
 *
 *   shmt_perfbench --workload <suite-cold|sweep-timing|serve-mixed>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *                  [--spans-out <file.json>]
 *
 * Prints a human-readable report ("name: value unit" lines, the
 * environment and the counts behind every number) and, as the last
 * line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
 * With --trace 0 the metrics are the end-to-end ones; with --trace 1
 * the per-layer ones from the traced run. Exits non-zero when any
 * output check fails. See perfbench/README.md.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench_util.hh"
#include "workloads.hh"

namespace {

using perfbench::Options;
using perfbench::Outcome;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "shmt_perfbench: %s\nusage: shmt_perfbench --workload "
                 "<suite-cold|sweep-timing|serve-mixed> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans-out <file>]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
            } else if (flag == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                opts.trace = value == "1";
            } else if (flag == "--spans-out") {
                opts.spansOut = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::exception &) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (!(opts.seconds > 0.0) || opts.seconds > 3600.0)
        usage("--seconds must be in (0, 3600]");
    return opts;
}

/** The JSON result line; a non-finite value makes the run incorrect. */
void
printResult(Outcome &o)
{
    std::string metrics;
    for (const perfbench::Metric &m : o.metrics) {
        double v = m.value;
        if (!std::isfinite(v)) {
            o.require(false, m.name + " is not finite");
            v = 0.0;
        }
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + m.name + "\": {\"value\": " + perfbench::num(v) +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    for (const std::string &n : o.notes)
        std::printf("%s\n", n.c_str());
    for (const perfbench::Metric &m : o.metrics)
        std::printf("%s: %s %s\n", m.name.c_str(),
                    perfbench::num(m.value).c_str(), m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                o.correct ? "true" : "false", o.attempted, o.failed,
                metrics.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    Outcome outcome;
    if (opts.workload == "suite-cold")
        outcome = perfbench::runSuiteCold(opts);
    else if (opts.workload == "sweep-timing")
        outcome = perfbench::runSweepTiming(opts);
    else if (opts.workload == "serve-mixed")
        outcome = perfbench::runServeMixed(opts);
    else
        usage(("unknown workload " + opts.workload).c_str());

    outcome.note("workload", opts.workload);
    outcome.note("seed", std::to_string(opts.seed));
    outcome.note("trace", opts.trace ? "1" : "0");
    if (outcome.attempted == 0)
        outcome.require(false, "no program was attempted");
    printResult(outcome);
    return outcome.correct ? 0 : 1;
}
