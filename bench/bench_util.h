#ifndef MIRAGE_BENCH_BENCH_UTIL_H
#define MIRAGE_BENCH_BENCH_UTIL_H

/**
 * @file
 * Shared helpers for the table/figure reproduction harnesses: flag parsing
 * (--full for paper-scale sweeps, --csv for machine-readable output,
 * --json <path> for perf-trajectory files, --trace/--metrics for
 * observability exports; unknown flags exit 2 with the usage), a banner
 * that states which paper artifact a binary regenerates, and a JSON report
 * writer so BENCH_* results can accumulate across commits.
 */

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "obs/exporter.h"
#include "obs/fidelity.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mirage {
namespace bench {

/** Command-line options shared by every harness. */
struct BenchOptions
{
    bool full = false;     ///< Paper-scale sweep instead of the quick default.
    bool csv = false;      ///< CSV instead of aligned tables.
    std::string json_path; ///< --json <path>: machine-readable result file.
    /// --trace <path>: enable span recording and export a Chrome trace
    /// (Perfetto-loadable) at the end of the run (see writeObsOutputs).
    std::string trace_path;
    /// --metrics <path>: dump the MetricsRegistry as JSON at the end.
    std::string metrics_path;
    /// --fidelity-report <path>: dump the per-layer numerical-fidelity
    /// report (obs::fidelity::writeReportFile) at the end.
    std::string fidelity_report_path;

    /**
     * A bench-specific flag. parse() accepts it (and skips its value) so
     * that the bench's own pass over argv can read it; every other
     * unknown flag is an error.
     */
    struct ExtraFlag
    {
        const char *name; ///< e.g. "--request-log"
        const char *arg;  ///< value placeholder, or nullptr for a switch
        const char *help; ///< one line for --help
    };

    static void
    usage(std::ostream &os, const char *argv0,
          std::initializer_list<ExtraFlag> extra)
    {
        os << "usage: " << argv0
           << " [--full] [--csv] [--json <path>] [--trace <path>]"
              " [--metrics <path>] [--fidelity-report <path>]";
        for (const ExtraFlag &f : extra)
            os << " [" << f.name << (f.arg ? " " : "") << (f.arg ? f.arg : "")
               << "]";
        os << "\n"
              "  --full           paper-scale sweep (slower)\n"
              "  --csv            machine-readable output\n"
              "  --json <path>    write results as JSON\n"
              "  --trace <path>   record spans, export a Chrome trace JSON\n"
              "  --metrics <path> dump the metrics registry as JSON\n"
              "  --fidelity-report <path> dump the numerical-fidelity "
              "report as JSON\n";
        for (const ExtraFlag &f : extra)
            os << "  " << f.name << (f.arg ? " " : "") << (f.arg ? f.arg : "")
               << "  " << f.help << "\n";
    }

    /**
     * Parses the shared flags plus the bench's `extra` ones. --help prints
     * the usage and exits 0; an unknown flag or a missing value prints it
     * to stderr and exits 2, so a typo never runs a default sweep.
     */
    static BenchOptions
    parse(int argc, char **argv, std::initializer_list<ExtraFlag> extra = {})
    {
        BenchOptions opts;
        const std::pair<const char *, std::string *> path_flags[] = {
            {"--json", &opts.json_path},
            {"--trace", &opts.trace_path},
            {"--metrics", &opts.metrics_path},
            {"--fidelity-report", &opts.fidelity_report_path}};
        const auto fail = [&](const std::string &why) {
            std::cerr << argv[0] << ": " << why << "\n";
            usage(std::cerr, argv[0], extra);
            std::exit(2);
        };
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--full") {
                opts.full = true;
                continue;
            }
            if (flag == "--csv") {
                opts.csv = true;
                continue;
            }
            if (flag == "--help") {
                usage(std::cout, argv[0], extra);
                std::exit(0);
            }
            bool known = false;
            for (const auto &[name, path] : path_flags) {
                if (flag != name)
                    continue;
                if (i + 1 >= argc)
                    fail(flag + " needs a file path");
                *path = argv[++i];
                known = true;
            }
            for (const ExtraFlag &f : extra) {
                if (known || flag != f.name)
                    continue;
                if (f.arg != nullptr && ++i >= argc)
                    fail(flag + " needs " + f.arg);
                known = true;
            }
            if (!known)
                fail("unknown flag '" + flag + "'");
        }
        // Arm tracing up front so the whole run is captured, and bring up
        // the live scrape endpoint when MIRAGE_METRICS_PORT is set (no-op
        // otherwise).
        if (!opts.trace_path.empty())
            obs::setTraceEnabled(true);
        obs::startExporterFromEnv();
        return opts;
    }
};

/**
 * Writes the observability artifacts requested via --trace/--metrics.
 * Call once at the end of main, after the workload drained. Returns
 * false when a requested file could not be written.
 */
inline bool
writeObsOutputs(const BenchOptions &opts)
{
    bool ok = true;
    if (!opts.trace_path.empty()) {
        ok = obs::writeChromeTraceFile(opts.trace_path) && ok;
        std::cout << "Chrome trace written to " << opts.trace_path << "\n";
    }
    if (!opts.metrics_path.empty()) {
        ok = obs::MetricsRegistry::global().writeJsonFile(opts.metrics_path) &&
             ok;
        std::cout << "metrics dump written to " << opts.metrics_path << "\n";
    }
    if (!opts.fidelity_report_path.empty()) {
        ok = obs::fidelity::writeReportFile(opts.fidelity_report_path) && ok;
        std::cout << "fidelity report written to "
                  << opts.fidelity_report_path << "\n";
    }
    return ok;
}

/** Prints the artifact banner. */
inline void
banner(const std::string &artifact, const std::string &description,
       const BenchOptions &opts)
{
    std::cout << "==============================================================\n"
              << "Reproducing " << artifact << ": " << description << "\n"
              << "mode: " << (opts.full ? "--full (paper-scale)" : "quick")
              << "\n"
              << "==============================================================\n";
}

/** Emits a table in the selected format. */
inline void
emit(const TablePrinter &table, const BenchOptions &opts)
{
    if (opts.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

namespace detail {

/**
 * True when `s` matches the JSON number grammar exactly:
 * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. Stricter than strtod,
 * which also accepts "+5", ".5", "5.", "inf" — none of which are valid
 * JSON literals and would corrupt the --json document if left unquoted.
 */
inline bool
looksNumeric(const std::string &s)
{
    size_t i = 0;
    const size_t n = s.size();
    const auto digits = [&] {
        const size_t start = i;
        while (i < n && std::isdigit(static_cast<unsigned char>(s[i])))
            ++i;
        return i > start;
    };
    if (i < n && s[i] == '-')
        ++i;
    if (i < n && s[i] == '0')
        ++i; // a leading zero must stand alone ("0", "0.5")
    else if (!digits())
        return false;
    if (i < n && s[i] == '.') {
        ++i;
        if (!digits())
            return false;
    }
    if (i < n && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < n && (s[i] == '+' || s[i] == '-'))
            ++i;
        if (!digits())
            return false;
    }
    return i == n && n > 0;
}

inline void
jsonEscape(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default: os << c;
        }
    }
    os << '"';
}

} // namespace detail

/**
 * Accumulates named tables and writes one JSON document:
 *
 *   {"bench": "<name>", "mode": "quick"|"full",
 *    "results": {"<table name>": [{"<col>": <cell>, ...}, ...], ...}}
 *
 * Cells that parse as numbers are emitted unquoted, so downstream
 * tooling can chart perf trajectories without re-parsing strings.
 */
class JsonReport
{
  public:
    /** Registers a table under `name` (copied). */
    void
    add(std::string name, const TablePrinter &table)
    {
        sections_.emplace_back(std::move(name), table);
    }

    /** Writes the document; returns false (with a warning) on I/O error. */
    bool
    write(const std::string &path, const std::string &bench_name,
          const BenchOptions &opts) const
    {
        std::ofstream os(path);
        if (!os) {
            std::cerr << "warning: cannot write JSON report to '" << path
                      << "'\n";
            return false;
        }
        os << "{\n  \"bench\": ";
        detail::jsonEscape(os, bench_name);
        os << ",\n  \"mode\": \"" << (opts.full ? "full" : "quick")
           << "\",\n  \"results\": {";
        for (size_t s = 0; s < sections_.size(); ++s) {
            const auto &[name, table] = sections_[s];
            os << (s ? ",\n    " : "\n    ");
            detail::jsonEscape(os, name);
            os << ": [";
            const auto &headers = table.headers();
            for (size_t r = 0; r < table.rows().size(); ++r) {
                const auto &row = table.rows()[r];
                os << (r ? ",\n      {" : "\n      {");
                for (size_t c = 0; c < headers.size() && c < row.size();
                     ++c) {
                    if (c)
                        os << ", ";
                    detail::jsonEscape(os, headers[c]);
                    os << ": ";
                    if (detail::looksNumeric(row[c]))
                        os << row[c];
                    else
                        detail::jsonEscape(os, row[c]);
                }
                os << "}";
            }
            os << "\n    ]";
        }
        os << "\n  }\n}\n";
        return os.good();
    }

    /** write() to opts.json_path when --json was given; else a no-op. */
    bool
    writeIfRequested(const std::string &bench_name,
                     const BenchOptions &opts) const
    {
        if (opts.json_path.empty())
            return true;
        const bool ok = write(opts.json_path, bench_name, opts);
        if (ok)
            std::cout << "JSON results written to " << opts.json_path
                      << "\n";
        return ok;
    }

  private:
    std::vector<std::pair<std::string, TablePrinter>> sections_;
};

} // namespace bench
} // namespace mirage

#endif // MIRAGE_BENCH_BENCH_UTIL_H
