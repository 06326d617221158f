/**
 * @file
 * perfbench: one entry point for the repository's three benchmark workloads.
 *
 *   perfbench --workload <train_resnet|engine_burst|serve_zoo>
 *             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
 *
 * Prints one JSON object as its last stdout line:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 * --trace 0 reports end-to-end metrics, --trace 1 per-layer metrics.
 * Every flag is checked: an unknown flag, a missing or malformed value,
 * or an unknown workload prints usage and exits 2. A failed correctness
 * gate prints the result with "correct": false and exits 1.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "workload.h"

namespace perfbench {

double
rssPeakMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

namespace {

constexpr const char *kUsage =
    "usage: perfbench --workload <train_resnet|engine_burst|serve_zoo> "
    "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";

[[noreturn]] void
usageError(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n" << kUsage;
    std::exit(2);
}

std::optional<uint64_t>
parseUnsigned(const std::string &s)
{
    if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
        s.size() > 19)
        return std::nullopt;
    return std::stoull(s);
}

struct Cli
{
    std::string workload;
    RunOptions opt;
};

Cli
parseCli(int argc, char **argv)
{
    std::map<std::string, std::string> flags;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
            flag != "--trace" && flag != "--trace-out")
            usageError("unknown argument '" + flag + "'");
        if (i + 1 >= argc)
            usageError("flag " + flag + " needs a value");
        if (!flags.emplace(flag, argv[i + 1]).second)
            usageError("flag " + flag + " given twice");
    }
    for (const char *required : {"--workload", "--seed", "--seconds", "--trace"})
        if (!flags.count(required))
            usageError(std::string("missing ") + required);

    Cli cli;
    cli.workload = flags["--workload"];
    const auto seed = parseUnsigned(flags["--seed"]);
    if (!seed)
        usageError("--seed must be a non-negative integer");
    cli.opt.seed = *seed;
    const auto seconds = parseUnsigned(flags["--seconds"]);
    if (!seconds || *seconds < 1 || *seconds > 600)
        usageError("--seconds must be an integer in [1, 600]");
    cli.opt.seconds = static_cast<double>(*seconds);
    const std::string trace = flags["--trace"];
    if (trace != "0" && trace != "1")
        usageError("--trace must be 0 or 1");
    cli.opt.trace = trace == "1";
    cli.opt.trace_out = flags.count("--trace-out") ? flags["--trace-out"] : "";
    return cli;
}

void
printJson(const WorkloadResult &r)
{
    std::cout << "{\"correct\": " << (r.gate_failures.empty() ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const Metric &m : r.metrics) {
        // JSON has no NaN or infinity; such a value already failed a gate.
        if (std::isfinite(m.value))
            std::snprintf(buf, sizeof(buf), "%.17g", m.value);
        else
            std::snprintf(buf, sizeof(buf), "null");
        std::cout << (first ? "" : ", ") << "\"" << m.name
                  << "\": {\"value\": " << buf << ", \"unit\": \"" << m.unit
                  << "\"}";
        first = false;
    }
    std::cout << "}}" << std::endl;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Cli cli = parseCli(argc, argv);
    WorkloadResult result;
    try {
        if (cli.workload == "train_resnet")
            result = runTrainResnet(cli.opt);
        else if (cli.workload == "engine_burst")
            result = runEngineBurst(cli.opt);
        else if (cli.workload == "serve_zoo")
            result = runServeZoo(cli.opt);
        else
            usageError("unknown workload '" + cli.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << cli.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
    for (const Metric &m : result.metrics)
        result.check(std::isfinite(m.value), m.name + " is not finite");
    for (const std::string &why : result.gate_failures)
        std::cerr << "perfbench: correctness gate failed: " << why << "\n";
    printJson(result);
    return result.gate_failures.empty() ? 0 : 1;
}
