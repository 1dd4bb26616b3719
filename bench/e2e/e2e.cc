/**
 * @file
 * sieve_e2e — the end-to-end benchmark.
 *
 *   sieve_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out F] [--smoke] [--expected DIR]
 *             [--revision R] [--write-expected]
 *
 * Workloads: offline-paper, repsim, serve-unique, serve-repeat
 * (README.md says why each exists). One run measures one workload
 * for about --seconds seconds, checks every output, prints each
 * metric with its unit and sample count, and ends with one JSON
 * line: {"correct", "attempted", "failed", "metrics"}. An untraced
 * run reports the end-to-end metrics; a traced run (--trace 1)
 * reports the per-layer breakdown and writes every span as Chrome
 * trace JSON.
 *
 * Exit status: 0 when every op succeeded and every check passed,
 * 1 when an op failed or the run was invalid (the JSON line is still
 * printed), 2 on a usage or environment error (nothing measured).
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "e2e.hh"
#include "tracer.hh"

namespace fs = std::filesystem;

namespace e2e {

namespace {

std::string
readFile(const std::string &path, bool &ok)
{
    std::ifstream is(path, std::ios::binary);
    ok = static_cast<bool>(is);
    std::ostringstream os;
    if (ok)
        os << is.rdbuf();
    return os.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    fs::create_directories(fs::path(path).parent_path());
    std::ofstream os(path, std::ios::binary);
    os << bytes;
}

} // namespace

void
RunResult::failOp(const std::string &why)
{
    ++failed;
    correct = false;
    if (problems.size() < 8)
        problems.push_back(why);
}

void
RunResult::invalidate(const std::string &why)
{
    correct = false;
    if (problems.size() < 8)
        problems.push_back(why);
}

bool
checkExpected(const Options &opts, const std::string &name,
              const std::string &actual)
{
    std::string path = opts.expectedDir + "/" + name;
    if (opts.writeExpected) {
        writeFile(path, actual);
        return true;
    }
    bool ok = false;
    std::string expected = readFile(path, ok);
    return ok && expected == actual;
}

double
peakRssMb(int pid)
{
    std::string path = pid == 0 ? std::string("/proc/self/status")
                                : "/proc/" + std::to_string(pid) +
                                      "/status";
    std::ifstream is(path);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

double
cpuSeconds(int pid)
{
    if (pid == 0) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec +
                                   ru.ru_stime.tv_usec) /
                   1e6;
    }
    bool ok = false;
    std::string stat =
        readFile("/proc/" + std::to_string(pid) + "/stat", ok);
    size_t close = stat.rfind(')');
    if (!ok || close == std::string::npos)
        return 0.0;
    // Fields after "pid (comm)": state is field 3; utime and stime
    // are fields 14 and 15, i.e. the 12th and 13th after comm.
    std::istringstream is(stat.substr(close + 1));
    std::string field;
    double utime = 0.0, stime = 0.0;
    for (int i = 3; i <= 15 && is >> field; ++i) {
        if (i == 14)
            utime = std::strtod(field.c_str(), nullptr);
        if (i == 15)
            stime = std::strtod(field.c_str(), nullptr);
    }
    return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void
printMetric(const Metric &m, const std::string &note)
{
    std::printf("metric %-26s %14.6g %-7s (%s)\n", m.name.c_str(),
                m.value, m.unit.c_str(), note.c_str());
}

} // namespace e2e

namespace {

using namespace e2e;

/** The end-to-end metrics every untraced run reports. */
const std::vector<std::pair<const char *, const char *>> kEndToEnd = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p90_ms", "ms"},
    {"cpu_ms_per_op", "ms"},
    {"peak_rss_mb", "MiB"},
};

/**
 * The per-layer metrics every traced run reports. A layer a workload
 * does not exercise reads 0 there (the "bypassed" prediction).
 */
const std::vector<std::pair<const char *, const char *>> kPerLayer = {
    {"trace.load_pct", "%"},
    {"gpu.golden_pct", "%"},
    {"sampling.sample_pct", "%"},
    {"sampling.predict_pct", "%"},
    {"sampling.evaluate_pct", "%"},
    {"eval.render_pct", "%"},
    {"gpusim.synth_pct", "%"},
    {"trace.to_aos_pct", "%"},
    {"trace.write_pct", "%"},
    {"trace.parse_pct", "%"},
    {"gpusim.simulate_pct", "%"},
    {"bench.check_pct", "%"},
    {"unattributed_pct", "%"},
    {"pool.idle_pct", "%"},
    {"wall_s", "s"},
    {"trace.overhead_pct", "%"},
    {"invocations", "count"},
    {"strata", "count"},
    {"swl_mb", "MB"},
    {"trace.mb_written", "MB"},
    {"gpusim.warp_insts", "count"},
    {"gpusim.waves", "count"},
    {"gpusim.minst_per_s", "Minst/s"},
    {"serve.wait_pct.ping", "%"},
    {"serve.wait_pct.sample", "%"},
    {"serve.wait_pct.evaluate", "%"},
    {"serve.wait_pct.simulate", "%"},
    {"serve.wait_pct.trace-stats", "%"},
    {"serve.sim_hit_ratio", "ratio"},
    {"serve.sim_lookups", "count"},
    {"serve.requests", "count"},
};

/** Behaviour-changing variables the product reads from the
 *  environment; the benchmark pins all of them itself. */
const char *const kRefusedEnv[] = {
    "SIEVE_JOBS",        "SIEVE_SIM_ENGINE", "SIEVE_TRACE_BUDGET_MB",
    "SIEVE_INGEST_BUDGET_MB", "SIEVE_TRACE",  "SIEVE_METRICS",
    "SIEVE_LEDGER",      "SIEVE_TELEMETRY",
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "sieve_e2e: %s\n"
                 "usage: sieve_e2e --workload "
                 "offline-paper|repsim|serve-unique|serve-repeat\n"
                 "                 [--seed N] [--seconds S] "
                 "[--trace 0|1] [--trace-out F] [--smoke]\n"
                 "                 [--expected DIR] [--revision R] "
                 "[--write-expected]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload")
                opts.workload = value();
            else if (arg == "--seed")
                opts.seed = std::stoull(value());
            else if (arg == "--seconds")
                opts.seconds = std::stod(value());
            else if (arg == "--trace")
                opts.trace = value() == "1";
            else if (arg == "--trace-out")
                opts.traceOut = value();
            else if (arg == "--smoke")
                opts.smoke = true;
            else if (arg == "--expected")
                opts.expectedDir = value();
            else if (arg == "--revision")
                opts.revision = value();
            else if (arg == "--write-expected")
                opts.writeExpected = true;
            else
                usage("unknown argument '" + arg + "'");
        } catch (const std::exception &) {
            usage("bad value for " + arg);
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    if (!(opts.seconds > 0.0))
        usage("--seconds must be positive");
    return opts;
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** The final JSON line, metrics in the declared order. */
void
printJson(const RunResult &r,
          const std::vector<std::pair<const char *, const char *>> &names)
{
    std::string out = "{\"correct\": ";
    out += r.correct && r.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(r.attempted);
    out += ", \"failed\": " + std::to_string(r.failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < names.size(); ++i) {
        double value = 0.0;
        for (const Metric &m : r.metrics)
            if (m.name == names[i].first)
                value = m.value;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", names[i].first,
                      std::isfinite(value) ? value : 0.0, names[i].second);
        out += buf;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseArgs(argc, argv);

    for (const char *name : kRefusedEnv) {
        if (std::getenv(name)) {
            std::fprintf(stderr,
                         "sieve_e2e: refusing to run with %s set: it "
                         "changes what the product does; unset it\n",
                         name);
            return 2;
        }
    }
    if (!opts.writeExpected && !fs::is_directory(opts.expectedDir)) {
        std::fprintf(stderr, "sieve_e2e: no expected outputs at %s\n",
                     opts.expectedDir.c_str());
        return 2;
    }

    std::printf("env revision=%s build=%s compiler=\"%s\" cpu=\"%s\" "
                "nproc=%u\n",
                opts.revision.c_str(), E2E_BUILD_TYPE, E2E_COMPILER,
                cpuModel().c_str(), std::thread::hardware_concurrency());
    std::printf("run workload=%s seed=%llu seconds=%g trace=%d "
                "smoke=%d jobs=%zu sim_engine=event tier_budget_mib=%zu\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, opts.smoke ? 1 : 0, kJobs,
                kTierBudgetBytes >> 20);
    std::fflush(stdout);

    RunResult result;
    if (opts.workload == "offline-paper")
        result = runOfflinePaper(opts);
    else if (opts.workload == "repsim")
        result = runRepsim(opts);
    else if (opts.workload == "serve-unique")
        result = runServe(opts, false);
    else if (opts.workload == "serve-repeat")
        result = runServe(opts, true);
    else
        usage("unknown workload '" + opts.workload + "'");

    if (opts.trace) {
        std::string path = opts.traceOut.empty()
                               ? "build-e2e/trace-" + opts.workload +
                                     ".json"
                               : opts.traceOut;
        bool written = tracer().writeChrome(
            path, {{"workload", opts.workload},
                   {"seed", std::to_string(opts.seed)},
                   {"revision", opts.revision},
                   {"build", E2E_BUILD_TYPE},
                   {"compiler", E2E_COMPILER},
                   {"cpu", cpuModel()},
                   {"jobs", std::to_string(kJobs)}});
        std::printf("trace: %zu spans %s %s\n", tracer().size(),
                    written ? "written to" : "NOT written to",
                    path.c_str());
    }
    for (const std::string &p : result.problems)
        std::fprintf(stderr, "sieve_e2e: %s\n", p.c_str());
    std::printf("ops=%llu failed=%llu\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    printJson(result, opts.trace ? kPerLayer : kEndToEnd);
    return result.correct && result.failed == 0 ? 0 : 1;
}
