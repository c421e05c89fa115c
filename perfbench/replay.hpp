/**
 * @file
 * Traced in-process replay of a workload's sessions: times calls into
 * each layer's public functions along the server's path (client encode,
 * framing, frame parse, log decode, epoch slicing, the window schedule
 * with every lifeguard hook, report encode) and derives the per-layer
 * metrics. Spans are kept in memory and written out at the end.
 */

#ifndef BFLY_PERFBENCH_REPLAY_HPP
#define BFLY_PERFBENCH_REPLAY_HPP

#include <string>

#include "common.hpp"

namespace perfbench {

/** Bound on the replay wall time its stages leave unaccounted. */
inline constexpr double kMaxUnaccountedFrac = 0.05;

struct ReplayResult
{
    bool ok = false;
    std::string error;
    Metrics metrics;
};

/**
 * Replay every distinct session of @p plan, at least three times and for
 * at least three seconds, and write the spans to @p spans_path (Chrome
 * trace-event JSON). @p session_ms_p50 is the timed run's median
 * session latency (for analyzer.share_of_session). Fails if a decorated
 * or untraced report differs from the reference, or if the stages leave
 * more than kMaxUnaccountedFrac of the replay wall time unaccounted.
 */
ReplayResult replay(const Plan &plan, double session_ms_p50,
                    const std::string &spans_path);

} // namespace perfbench

#endif // BFLY_PERFBENCH_REPLAY_HPP
