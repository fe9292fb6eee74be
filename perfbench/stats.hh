/**
 * @file
 * The benchmark's own arithmetic: order statistics over samples and
 * useful/attempted ratios. Header-only so the self-test checks the
 * exact code the runner runs.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench
{

/** A percentile together with the number of samples it came from. */
struct Percentile
{
    double value = 0;
    std::size_t samples = 0;
};

/**
 * The @p p-th percentile (0..100) of @p v by linear interpolation
 * between closest ranks (the "inclusive" method of Python's
 * statistics.quantiles and numpy's default). One sample is its own
 * percentile at every p.
 *
 * @throws std::invalid_argument on an empty sample or p outside
 *         [0, 100].
 */
inline Percentile
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        throw std::invalid_argument("percentile of an empty sample");
    if (!(p >= 0 && p <= 100))
        throw std::invalid_argument("percentile outside [0, 100]");
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return {v[lo] + (v[hi] - v[lo]) * frac, v.size()};
}

inline double
median(const std::vector<double> &v)
{
    return percentile(v, 50).value;
}

/** A ratio of useful outcomes to attempts, with its base. */
struct HitRate
{
    double rate = 0;
    std::uint64_t base = 0; //!< attempts
};

/**
 * useful / attempts. A zero base yields rate 0 (nothing was
 * attempted, so nothing was useful) rather than NaN, which JSON
 * cannot carry; the base travels with the rate so a reader can tell
 * "0 of 0" from "0 of many".
 *
 * @throws std::invalid_argument when useful exceeds attempts.
 */
inline HitRate
hitRate(std::uint64_t useful, std::uint64_t attempts)
{
    if (useful > attempts)
        throw std::invalid_argument("more useful outcomes than attempts");
    if (attempts == 0)
        return {0.0, 0};
    return {static_cast<double>(useful) / static_cast<double>(attempts),
            attempts};
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
