#include "stats.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace e2e {

std::string
Quantile::note() const
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "n=%zu, %zu beyond", n, beyond);
    return buf;
}

Quantile
nearestRank(std::vector<double> samples, double q)
{
    Quantile out;
    out.q = q;
    out.n = samples.size();
    if (samples.empty())
        return out;
    std::sort(samples.begin(), samples.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    rank = std::clamp<size_t>(rank, 1, samples.size());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

std::string
Spread::note() const
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "median of n=%zu, q1=%.4g q3=%.4g",
                  values.size(), q1, q3);
    std::string out = buf;
    if (values.size() <= 8) {
        out += "; in order:";
        for (double v : values) {
            std::snprintf(buf, sizeof(buf), " %.4g", v);
            out += buf;
        }
    }
    return out;
}

Spread
spreadOf(const std::vector<double> &samples)
{
    Spread s;
    s.values = samples;
    if (samples.empty())
        return s;
    std::vector<double> v = samples;
    std::sort(v.begin(), v.end());
    // Median interpolated between the middle pair; quartiles by
    // nearest rank (the set-up and round counts are small).
    size_t mid = v.size() / 2;
    s.median = v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
    s.q1 = nearestRank(v, 0.25).value;
    s.q3 = nearestRank(v, 0.75).value;
    return s;
}

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace e2e
