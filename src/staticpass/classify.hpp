/**
 * @file
 * Flow-insensitive region/pointer classification of emitting sites.
 *
 * The analysis sees the per-thread event programs (program order — for
 * workloads these are the generated kernels themselves; for traces the
 * per-thread streams, which preserve program order) and computes, per
 * site, the strongest SiteClass it can prove. Everything is widened to
 * fixed cells of max(8, granularity) bytes — the coarsest metadata key
 * any lifeguard uses — so a fact about a cell is a fact about every
 * lifeguard's key covering it.
 *
 * A Read/Write event is an *elision candidate* when every cell it
 * touches is clean (touched by exactly one thread, and only by
 * Read/Write/Alloc/Free events — no taint ops, assigns, uses, outputs
 * or lock ops anywhere in the program; allocs and frees on
 * single-owner cells are same-thread and therefore ordered by program
 * order, which the per-thread masks below account for exactly), its
 * bytes are covered by a same-thread Alloc with no intervening Free
 * (so ADDRCHECK can never flag it; the TSO interleaver drains
 * overlapping buffered stores before a dependent access executes, so
 * program-order coverage implies visibility-order coverage), and —
 * for Reads — its bytes are covered by earlier same-thread Writes
 * with no intervening Alloc/Free (which kill definedness: fresh
 * memory holds garbage), so DEFINEDCHECK can never flag it either.
 * Nops are invisible to every lifeguard and trivially candidates. A
 * site is AlwaysPrivate when all of its Read/Write events are
 * candidates (its allocs and frees are retained either way), minus a
 * demotion fixpoint that keeps any Write whose
 * cell is also read by a *retained* event: eliding such a write would
 * turn the surviving read into a spurious uninitialized-read report.
 * After the fixpoint, elided and retained events never disagree about a
 * cell's fate in a way any lifeguard can observe — see DESIGN.md
 * "Static elision" for the per-lifeguard soundness argument.
 *
 * Everything here is conservative on any doubt: unattributed events,
 * out-of-range sizes, unknown kinds and aliasing all land in
 * MustMonitor.
 */

#ifndef BUTTERFLY_STATICPASS_CLASSIFY_HPP
#define BUTTERFLY_STATICPASS_CLASSIFY_HPP

#include <cstddef>

#include "staticpass/elision_plan.hpp"
#include "staticpass/site_table.hpp"

namespace bfly::staticpass {

/** Analysis knobs. */
struct ClassifyOptions
{
    /** Largest metadata granularity any consuming lifeguard uses; cells
     *  are widened to at least 8 bytes (the repo-wide default key). */
    unsigned granularity = 8;
    /** Window the address-filtered lifeguards monitor (ADDRCHECK's and
     *  DEFINEDCHECK's heapBase/heapLimit). They ignore an event whose
     *  base lies outside it, even where its range reaches inside, so
     *  such an Alloc or Write covers no access. */
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;
};

/** What the classifier proved (reporting; the plan holds the verdicts). */
struct ClassifyStats
{
    std::size_t sites = 0;
    std::size_t byClass[4] = {0, 0, 0, 0}; ///< indexed by SiteClass
    std::size_t candidateEvents = 0; ///< events at AlwaysPrivate sites
    std::size_t analyzedEvents = 0;  ///< non-marker events examined
    std::size_t fixpointRounds = 0;  ///< demotion iterations to converge
};

/**
 * Classify every site of @p table over @p programs (per-thread event
 * vectors in program order; thread index = ThreadId).
 */
ElisionPlan classifySites(const std::vector<std::vector<Event>> &programs,
                          const SiteTable &table,
                          const ClassifyOptions &options = {},
                          ClassifyStats *stats = nullptr);

/** Trace overload: per-thread streams preserve program order. */
ElisionPlan classifySites(const Trace &trace, const SiteTable &table,
                          const ClassifyOptions &options = {},
                          ClassifyStats *stats = nullptr);

/**
 * Convenience for unattributed traces (fuzz cases, loaded logs): stamp
 * pseudo-sites in place, classify, and return the plan. Deterministic
 * in the trace content, so both ends of a connection derive the same
 * plan and fingerprint.
 */
ElisionPlan buildElisionPlan(Trace &trace, SiteTable &table,
                             const ClassifyOptions &options = {},
                             ClassifyStats *stats = nullptr);

} // namespace bfly::staticpass

#endif // BUTTERFLY_STATICPASS_CLASSIFY_HPP
