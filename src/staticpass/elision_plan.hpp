/**
 * @file
 * ElisionPlan: the artifact the static classification pass hands to log
 * generation, plus its application to event streams.
 *
 * A plan maps every SiteId to a SiteClass. Only AlwaysPrivate sites are
 * elided: their Read/Write/Nop events are dropped from the log and each
 * maximal run of consecutive elided events is replaced by one
 * SiteSummary event per distinct site in the run, carrying the exact
 * count of events it stands for — so event accounting stays exact
 * (sum of summary counts == events elided) while the wire carries a
 * fraction of the bytes.
 *
 * Runs are flushed at every retained event, heartbeat and barrier, so a
 * summary always lands in the same epoch as the events it replaces, and
 * its gseq is the largest gseq of the covered run, so
 * EpochLayout::byGlobalSeq buckets it with the run's tail.
 *
 * The plan fingerprint is a stable FNV-1a hash of the classification
 * vector; client and server exchange it (wire v4) so both ends can
 * assert they agree on what was elided.
 */

#ifndef BUTTERFLY_STATICPASS_ELISION_PLAN_HPP
#define BUTTERFLY_STATICPASS_ELISION_PLAN_HPP

#include <cstdint>
#include <vector>

#include "staticpass/site_table.hpp"

namespace bfly::staticpass {

/**
 * Classification lattice, ascending: MustMonitor is the conservative
 * bottom (any doubt lands here), AlwaysPrivate the only class strong
 * enough to elide. The middle rungs are provable facts short of full
 * privacy — they bound what a *site's* events can ever do, and are
 * reported (monitor_cli --elide, bfly_serve) even though v1 elides only
 * the top class.
 */
enum class SiteClass : std::uint8_t {
    MustMonitor = 0,       ///< no provable fact; monitor every event
    NeverFreed = 1,        ///< no byte the site touches is ever freed
    ProvablyUntainted = 2, ///< NeverFreed + untouched by the taint closure
    AlwaysPrivate = 3,     ///< single-thread, alloc- and def-covered:
                           ///< provably invisible to every lifeguard
};

const char *siteClassName(SiteClass c);

/** Per-site classification artifact consulted at log-generation time. */
struct ElisionPlan
{
    /** classes[id] for 1 <= id <= siteCount; index 0 is kNoSite and is
     *  always MustMonitor. */
    std::vector<SiteClass> classes;

    SiteClass
    classOf(SiteId id) const
    {
        return id < classes.size() ? classes[id] : SiteClass::MustMonitor;
    }

    /** Only the top of the lattice is elided. */
    bool
    elides(SiteId id) const
    {
        return classOf(id) == SiteClass::AlwaysPrivate;
    }

    std::size_t
    countOf(SiteClass c) const
    {
        std::size_t n = 0;
        for (std::size_t id = 1; id < classes.size(); ++id)
            if (classes[id] == c)
                ++n;
        return n;
    }

    /** Stable FNV-1a hash of the classification (0 = empty plan). */
    std::uint64_t fingerprint() const;
};

/** Exact accounting of one plan application. */
struct ElisionStats
{
    std::uint64_t inputEvents = 0;   ///< non-heartbeat events seen
    std::uint64_t retainedEvents = 0; ///< non-heartbeat events kept as-is
    std::uint64_t elidedEvents = 0;  ///< events replaced by summaries
    std::uint64_t summaryEvents = 0; ///< SiteSummary events emitted

    double
    elidedFraction() const
    {
        return inputEvents
                   ? static_cast<double>(elidedEvents) / inputEvents
                   : 0.0;
    }
};

/**
 * Apply @p plan to one thread's event stream (program order, heartbeats
 * allowed). Elided runs become SiteSummary events; everything else is
 * copied verbatim. @p stats accumulates across calls when non-null.
 *
 * Elision shifts the per-thread index (heartbeats excluded) of every
 * later event, so a lifeguard's records on the elided stream cannot be
 * matched with an oracle's on the full one directly. @p original_index,
 * when non-null, receives for each output index the index of the input
 * event it stands for (a summary stands for the first event of its
 * run) — the map ErrorLog::remapped applies.
 */
std::vector<Event>
applyElisionPlan(const std::vector<Event> &events, const ElisionPlan &plan,
                 ElisionStats *stats = nullptr,
                 std::vector<std::uint64_t> *original_index = nullptr);

/** Apply @p plan to every thread of @p trace; @p original_index, when
 *  non-null, receives one index map per thread. */
Trace applyElisionPlan(
    const Trace &trace, const ElisionPlan &plan,
    ElisionStats *stats = nullptr,
    std::vector<std::vector<std::uint64_t>> *original_index = nullptr);

} // namespace bfly::staticpass

#endif // BUTTERFLY_STATICPASS_ELISION_PLAN_HPP
