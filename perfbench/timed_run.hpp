/**
 * @file
 * The generator side of the benchmark: warm-up and timed sessions
 * against an out-of-process bfly_serve through the public MonitorClient,
 * every report checked bit for bit against its reference.
 */

#ifndef BFLY_PERFBENCH_TIMED_RUN_HPP
#define BFLY_PERFBENCH_TIMED_RUN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "server_process.hpp"

namespace perfbench {

/** Session counts as the generator saw them. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t conformant = 0; ///< Summary received and identical()
    std::uint64_t summaries = 0;  ///< Summary received (server completed)
    std::uint64_t busyRetries = 0;
    std::uint64_t partial = 0;
    std::uint64_t shed = 0;
    std::uint64_t logBytes = 0;
    std::uint64_t events = 0; ///< events of conformant sessions
    std::vector<std::string> errors; ///< first few failure descriptions

    std::uint64_t failed() const { return attempted - conformant; }
    void merge(const Tally &other);
};

/** Untimed warm-up: every connection runs each distinct session once. */
Tally warmUp(const Plan &plan, const std::string &socket);

/** Host CPU steal (all CPUs, seconds since boot) at a time in the
 *  window, ms from its start. */
struct StealSample
{
    double atMs = 0;
    double seconds = 0;
};

/** What the timed window measured. */
struct TimedResult
{
    Tally tally;
    double wallSeconds = 0;
    std::vector<SessionSample> sessions;
    std::vector<StealSample> steal;
    double serverCpuSeconds = 0;
    double genCpuSeconds = 0;
    std::vector<ProcSample> samples; ///< server /proc during the window
};

/** Drive @p plan for @p seconds against the server on @p socket, whose
 *  /proc counters @p server samples. */
TimedResult timedRun(const Plan &plan, const std::string &socket,
                     const ServerProcess &server, double seconds);

/** Sessions per group: a group's p90 has ten samples beyond it. */
inline constexpr std::size_t kGroupSessions = 100;

/**
 * Throughput and latency of a window, robust to CPU taken by other
 * tenants of the host. The sessions, in start order, are cut into
 * consecutive groups of kGroupSessions (the remainder joins the last
 * group); the groups tile the window by start time. Each group gets its
 * events/s, p50 and p90, and the share of CPU the host stole while it
 * ran (/proc/stat). Each figure is the median over the quiet groups:
 * those whose steal share is at most the median group's.
 */
struct WindowSummary
{
    double eventsPerS = 0;
    double p50Ms = 0;
    double p90Ms = 0;
    std::size_t groups = 0;
    std::size_t quietGroups = 0;
    double stealFrac = 0; ///< host steal share over the whole window
};

WindowSummary summarize(const TimedResult &timed);

} // namespace perfbench

#endif // BFLY_PERFBENCH_TIMED_RUN_HPP
