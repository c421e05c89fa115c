#include "staticpass/elision_plan.hpp"

#include <algorithm>

namespace bfly::staticpass {

const char *
siteClassName(SiteClass c)
{
    switch (c) {
      case SiteClass::MustMonitor:       return "must-monitor";
      case SiteClass::NeverFreed:        return "never-freed";
      case SiteClass::ProvablyUntainted: return "provably-untainted";
      case SiteClass::AlwaysPrivate:     return "always-private";
    }
    return "?";
}

std::uint64_t
ElisionPlan::fingerprint() const
{
    if (classes.size() <= 1)
        return 0;
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    mix(0xe115'0000 + classes.size()); // format tag + site count
    for (std::size_t id = 1; id < classes.size(); ++id)
        mix(static_cast<std::uint64_t>(classes[id]));
    return h;
}

namespace {

/** Accumulates one maximal run of consecutive elided events. */
struct Run
{
    /** (site, count) pairs in first-seen order; runs rarely span more
     *  than a handful of distinct sites, so linear scan beats a map. */
    std::vector<std::pair<SiteId, std::uint64_t>> counts;
    std::uint64_t maxGseq = 0;
    std::uint64_t first = 0; ///< input index of the run's first event

    void
    add(const Event &e, std::uint64_t index)
    {
        if (counts.empty())
            first = index;
        maxGseq = std::max(maxGseq, e.gseq);
        for (auto &[site, count] : counts) {
            if (site == e.site) {
                ++count;
                return;
            }
        }
        counts.emplace_back(e.site, 1);
    }

    void
    flush(std::vector<Event> &out, ElisionStats &stats,
          std::vector<std::uint64_t> *original_index)
    {
        for (const auto &[site, count] : counts) {
            Event s = Event::siteSummary(site, count);
            s.gseq = maxGseq;
            out.push_back(s);
            ++stats.summaryEvents;
            if (original_index)
                original_index->push_back(first);
        }
        counts.clear();
        maxGseq = 0;
    }
};

} // namespace

std::vector<Event>
applyElisionPlan(const std::vector<Event> &events, const ElisionPlan &plan,
                 ElisionStats *stats,
                 std::vector<std::uint64_t> *original_index)
{
    ElisionStats local;
    ElisionStats &st = stats ? *stats : local;
    if (original_index)
        original_index->clear();

    std::vector<Event> out;
    out.reserve(events.size());
    Run run;
    std::uint64_t index = 0; // input index, heartbeats excluded
    for (const Event &e : events) {
        const bool marker = e.kind == EventKind::Heartbeat;
        const bool elide =
            (e.kind == EventKind::Read || e.kind == EventKind::Write ||
             e.kind == EventKind::Nop) &&
            plan.elides(e.site);
        if (elide) {
            ++st.elidedEvents;
            run.add(e, index++);
            continue;
        }
        // Retained events (and epoch markers) end the run: summaries
        // must precede whatever comes next so they stay in their epoch.
        run.flush(out, st, original_index);
        out.push_back(e);
        if (!marker) {
            ++st.retainedEvents;
            if (original_index)
                original_index->push_back(index);
            ++index;
        }
    }
    run.flush(out, st, original_index);
    st.inputEvents += index;
    return out;
}

Trace
applyElisionPlan(const Trace &trace, const ElisionPlan &plan,
                 ElisionStats *stats,
                 std::vector<std::vector<std::uint64_t>> *original_index)
{
    Trace out;
    out.threads.resize(trace.threads.size());
    if (original_index)
        original_index->assign(trace.threads.size(), {});
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        out.threads[t].tid = trace.threads[t].tid;
        out.threads[t].events = applyElisionPlan(
            trace.threads[t].events, plan, stats,
            original_index ? &(*original_index)[t] : nullptr);
    }
    return out;
}

} // namespace bfly::staticpass
