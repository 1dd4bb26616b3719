/**
 * @file
 * Shared types of sieve_e2e, the end-to-end benchmark.
 *
 * sieve_e2e measures Sieve from the outside: it calls each module's
 * public functions (or talks to a `sieve serve` daemon over its
 * socket) and times those calls. Nothing in the product is modified
 * or instrumented for the benchmark.
 */

#ifndef SIEVE_BENCH_E2E_E2E_HH
#define SIEVE_BENCH_E2E_E2E_HH

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** Worker count of every workload (nproc = 4 leaves room for the
 *  benchmark's own thread and the daemon's event loop). */
inline constexpr size_t kJobs = 2;

/** Tier budget passed explicitly wherever a TierConfig is built. */
inline constexpr size_t kTierBudgetBytes = size_t{64} << 20;

/** Scratch files of a run (ignored by git, like every build-* dir). */
inline constexpr const char *kWorkDir = "build-e2e/run";

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string traceOut;  //!< Chrome trace path (traced runs)
    bool smoke = false;
    std::string expectedDir = "bench/e2e/expected";
    std::string revision = "unknown";
    bool writeExpected = false; //!< regenerate bench/e2e/expected/
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run: checks plus the numbers. */
struct RunResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False when an output mismatched or the run was invalid. */
    bool correct = true;
    std::vector<std::string> problems; //!< first few, for stderr

    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;

    /** Count one failed operation and keep its description. */
    void failOp(const std::string &why);

    /** Mark the whole run incorrect or invalid. */
    void invalidate(const std::string &why);

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

RunResult runOfflinePaper(const Options &opts);
RunResult runRepsim(const Options &opts);
RunResult runServe(const Options &opts, bool repeat);

/**
 * Compare `actual` with the pinned file `name` under the expected
 * directory (or write it when regenerating). Returns true on a
 * byte-for-byte match.
 */
bool checkExpected(const Options &opts, const std::string &name,
                   const std::string &actual);

/** Peak resident set (VmHWM) in MiB of a process (0 = this one). */
double peakRssMb(int pid);

/** CPU seconds (user + system) of a process (0 = this one) so far. */
double cpuSeconds(int pid);

/** Print one metric line: name, value, unit and a note. */
void printMetric(const Metric &m, const std::string &note);

} // namespace e2e

#endif // SIEVE_BENCH_E2E_E2E_HH
