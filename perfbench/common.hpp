/**
 * @file
 * Shared types of the service benchmark: the generated session inputs,
 * the workload plan, and small statistics and timing helpers.
 */

#ifndef BFLY_PERFBENCH_COMMON_HPP
#define BFLY_PERFBENCH_COMMON_HPP

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/analyzer.hpp"
#include "service/wire.hpp"
#include "trace/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One distinct (trace, lifeguard) pair the generator streams. */
struct SessionInput
{
    /** Benchmark-side label ("ocean/ADDRCHECK"); never sent. */
    std::string label;
    bfly::service::SessionSpec spec;
    /** Heartbeat-marked trace: the only thing the server receives. */
    bfly::Trace marked;
    /** analyzeReference over the byGlobalSeq layout, computed in setup. */
    bfly::service::RemoteReport reference;
    std::uint64_t events = 0; ///< non-heartbeat instructions
};

/** A workload: its distinct sessions and how the generator drives them. */
struct Plan
{
    std::string name;
    std::vector<SessionInput> sessions;
    /** Closed-loop connections, each running sessions back to back. */
    unsigned connections = 1;
    /** Session order per connection, as indices into sessions. */
    std::vector<std::vector<std::size_t>> rotation;

    // Set-up costs, ms (summed over the distinct sessions).
    double genMs = 0;
    double interleaveMs = 0;
    double referenceMs = 0;
};

/** Named metric values, printed in the final JSON line. */
struct Metric
{
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Nearest-rank percentile of @p v (0 < q <= 1); sorts @p v. */
inline double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t rank = static_cast<std::size_t>(q * v.size() + 0.999999);
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

/** Median of @p v; the mean of the middle two for an even count. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t mid = v.size() / 2;
    return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/** One timed session: when it started, ms from the start of the window;
 *  its latency (infinite if it failed); its events (0 if it failed). */
struct SessionSample
{
    double startMs = 0;
    double latencyMs = 0;
    std::uint64_t events = 0;
};

} // namespace perfbench

#endif // BFLY_PERFBENCH_COMMON_HPP
