/**
 * @file
 * Exact order statistics over raw samples.
 *
 * Every timing the benchmark reports comes from the raw nanosecond
 * samples, never from bucketed histograms: a percentile is the
 * nearest-rank value (rank = ceil(q * n)) of the sorted samples, so
 * its resolution is the clock's, and the count of samples above it
 * says whether the tail it names is supported at all.
 */

#ifndef SIEVE_BENCH_E2E_STATS_HH
#define SIEVE_BENCH_E2E_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

/** Minimum samples beyond a tail percentile for it to be reported. */
inline constexpr size_t kMinBeyond = 10;

/** One nearest-rank percentile with its support. */
struct Quantile
{
    double q = 0.5;
    double value = 0.0; //!< in the samples' unit
    size_t n = 0;       //!< sample count
    size_t beyond = 0;  //!< samples strictly ranked above it

    /** A median always stands; a tail needs kMinBeyond beyond it. */
    bool supported() const { return n > 0 && (q <= 0.5 || beyond >= kMinBeyond); }

    /** "n=160, 16 beyond" */
    std::string note() const;
};

/** Nearest-rank percentile of `samples` (copied and sorted). */
Quantile nearestRank(std::vector<double> samples, double q);

/** Quartiles and median of a small set (rounds, set-ups). */
struct Spread
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::vector<double> values; //!< in the order they were taken
    std::string note() const;   //!< counts, quartiles, small sets whole
};

Spread spreadOf(const std::vector<double> &samples);

/** Nanoseconds on the steady clock. */
uint64_t nowNs();

} // namespace e2e

#endif // SIEVE_BENCH_E2E_STATS_HH
