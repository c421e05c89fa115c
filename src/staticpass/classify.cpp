#include "staticpass/classify.hpp"

#include <algorithm>
#include <bit>
#include <unordered_map>
#include <unordered_set>

#include "common/logging.hpp"

namespace bfly::staticpass {

namespace {

/** Widened-cell id (byte / widen). */
using Cell = std::uint64_t;

/** Global, flow-insensitive facts about one widened cell. */
struct CellInfo
{
    ThreadId owner = 0;
    bool seen = false;
    bool multi = false;   ///< touched by two or more threads
    bool dirty = false;   ///< touched by a non-{Read,Write,Alloc} op
    bool freed = false;   ///< covered by some Free (block extent included)
    bool tainted = false; ///< reached by the taint closure
};

/** One byte range [lo, lo+len) touched by an event. */
struct ByteRange
{
    Addr lo = 0;
    std::uint64_t len = 0;
};

/** Inclusive upper byte of a range, saturating at the address space. */
Addr
rangeHi(const ByteRange &r)
{
    const std::uint64_t len = r.len ? r.len : 1;
    return (r.lo > ~0ull - (len - 1)) ? ~0ull : r.lo + (len - 1);
}

/**
 * Enumerate the byte ranges @p e touches: the primary [addr, addr+size)
 * plus Assign sources (reads of @c size bytes each). Addressless events
 * yield nothing.
 */
template <typename Fn>
void
forEachRange(const Event &e, Fn &&fn)
{
    if (e.addr == kNoAddr || e.kind == EventKind::Heartbeat ||
        e.kind == EventKind::Barrier || e.kind == EventKind::Nop ||
        e.kind == EventKind::SiteSummary)
        return;
    fn(ByteRange{e.addr, e.size ? e.size : 1u});
    if (e.kind == EventKind::Assign) {
        if (e.nsrc >= 1 && e.src0 != kNoAddr)
            fn(ByteRange{e.src0, e.size ? e.size : 1u});
        if (e.nsrc >= 2 && e.src1 != kNoAddr)
            fn(ByteRange{e.src1, e.size ? e.size : 1u});
    }
}

/** Iterate the widened cells covering @p r. */
template <typename Fn>
void
forEachCell(const ByteRange &r, Addr widen, Fn &&fn)
{
    const Cell last = rangeHi(r) / widen;
    for (Cell c = r.lo / widen;; ++c) {
        fn(c);
        if (c >= last)
            break;
    }
}

/** Byte-exact coverage mask over 8-byte subcells. */
class ByteMask
{
  public:
    void
    set(const ByteRange &r)
    {
        apply(r, [](std::uint8_t &m, std::uint8_t bits) { m |= bits; });
    }

    void
    clear(const ByteRange &r)
    {
        apply(r, [](std::uint8_t &m, std::uint8_t bits) {
            m &= static_cast<std::uint8_t>(~bits);
        });
    }

    /** True when every byte of @p r is set. */
    bool
    covers(const ByteRange &r) const
    {
        bool ok = true;
        visit(r, [&](Cell c, std::uint8_t bits) {
            const auto it = mask_.find(c);
            if (it == mask_.end() || (it->second & bits) != bits)
                ok = false;
        });
        return ok;
    }

  private:
    template <typename Fn>
    void
    visit(const ByteRange &r, Fn &&fn) const
    {
        const Addr hi = rangeHi(r);
        for (Cell c = r.lo >> 3;; ++c) {
            const Addr cellLo = c << 3;
            std::uint8_t bits = 0;
            for (unsigned b = 0; b < 8; ++b) {
                const Addr byte = cellLo + b;
                if (byte >= r.lo && byte <= hi)
                    bits |= static_cast<std::uint8_t>(1u << b);
            }
            fn(c, bits);
            if (c >= (hi >> 3))
                break;
        }
    }

    template <typename Op>
    void
    apply(const ByteRange &r, Op &&op)
    {
        visit(r, [&](Cell c, std::uint8_t bits) {
            op(const_cast<ByteMask *>(this)->mask_[c], bits);
        });
    }

    std::unordered_map<Cell, std::uint8_t> mask_;
};

/** Per-site aggregation toward the final class. */
struct SiteFacts
{
    std::size_t events = 0;       ///< analyzed (non-marker) events
    std::size_t rwEvents = 0;     ///< Read/Write events
    std::size_t nopEvents = 0;    ///< Nops (trivially elidable)
    bool allRwCandidates = true;  ///< every R/W event passed candidacy
    bool touchesFreed = false;    ///< some cell it touches is ever freed
    bool touchesTainted = false;  ///< some cell is in the taint closure
    std::unordered_set<Cell> writeCells; ///< cells its Writes touch
    std::unordered_set<Cell> readCells;  ///< cells its Reads touch
};

struct Analysis
{
    const std::vector<const std::vector<Event> *> threads;
    const SiteTable &table;
    const Addr widen;
    const ClassifyOptions options;

    std::unordered_map<Cell, CellInfo> cells;
    std::unordered_map<Addr, std::uint64_t> allocExtent; ///< base -> max size
    std::vector<SiteFacts> facts; ///< [site]; index 0 = kNoSite

    Analysis(std::vector<const std::vector<Event> *> ts,
             const SiteTable &tbl, const ClassifyOptions &opts)
        : threads(std::move(ts)), table(tbl),
          widen(std::max<Addr>(8, std::bit_ceil<Addr>(opts.granularity))),
          options(opts), facts(tbl.size() + 1)
    {}

    /** @p r grown to whole widened cells. A lifeguard keeps one state
     *  per key, so an Alloc or Free touching any byte of a cell resets
     *  the whole cell's definedness or allocation. */
    ByteRange
    wholeCells(const ByteRange &r) const
    {
        const Addr lo = r.lo / widen * widen;
        const Addr last = rangeHi(r) / widen * widen;
        const Addr hi = last > ~0ull - (widen - 1) ? ~0ull : last + widen - 1;
        return {lo, hi - lo + 1};
    }

    /** True if the window-filtered lifeguards see an event at @p base. */
    bool
    monitored(Addr base) const
    {
        return base >= options.heapBase && base < options.heapLimit;
    }

    /** The Free footprint: its own size widened to the largest block any
     *  Alloc ever placed at that base (flow-insensitive block extent). */
    ByteRange
    freeRange(const Event &e) const
    {
        std::uint64_t len = e.size ? e.size : 1;
        const auto it = allocExtent.find(e.addr);
        if (it != allocExtent.end())
            len = std::max(len, it->second);
        return {e.addr, len};
    }

    void
    globalPass()
    {
        // Block extents first: Free events dirty their whole block.
        for (const auto *program : threads)
            for (const Event &e : *program)
                if (e.kind == EventKind::Alloc && e.addr != kNoAddr) {
                    auto &ext = allocExtent[e.addr];
                    ext = std::max<std::uint64_t>(ext,
                                                  e.size ? e.size : 1);
                }

        for (ThreadId t = 0; t < threads.size(); ++t) {
            for (const Event &e : *threads[t]) {
                // Alloc/Free are benign for candidacy: on single-owner
                // cells they are same-thread, so program order (which
                // TSO preserves per thread) orders them against every
                // candidate access, and the per-thread alloc/def masks
                // below account for them exactly. They still feed the
                // freed flag for the NeverFreed class rung.
                const bool benign = e.kind == EventKind::Read ||
                                    e.kind == EventKind::Write ||
                                    e.kind == EventKind::Alloc ||
                                    e.kind == EventKind::Free;
                auto touch = [&](const ByteRange &r, bool freed) {
                    forEachCell(r, widen, [&](Cell c) {
                        CellInfo &info = cells[c];
                        if (!info.seen) {
                            info.seen = true;
                            info.owner = t;
                        } else if (info.owner != t) {
                            info.multi = true;
                        }
                        if (!benign)
                            info.dirty = true;
                        if (freed)
                            info.freed = true;
                    });
                };
                forEachRange(e, [&](const ByteRange &r) {
                    touch(r, false);
                });
                if (e.kind == EventKind::Free && e.addr != kNoAddr)
                    touch(freeRange(e), true);
            }
        }
    }

    /** Flow-insensitive taint closure: TaintSrc seeds, Assign edges. */
    void
    taintClosure()
    {
        for (const auto *program : threads)
            for (const Event &e : *program)
                if (e.kind == EventKind::TaintSrc)
                    forEachRange(e, [&](const ByteRange &r) {
                        forEachCell(r, widen, [&](Cell c) {
                            cells[c].tainted = true;
                        });
                    });

        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto *program : threads) {
                for (const Event &e : *program) {
                    if (e.kind != EventKind::Assign || e.addr == kNoAddr)
                        continue;
                    bool srcTainted = false;
                    auto probe = [&](Addr a) {
                        const ByteRange r{a, e.size ? e.size : 1u};
                        forEachCell(r, widen, [&](Cell c) {
                            const auto it = cells.find(c);
                            if (it != cells.end() && it->second.tainted)
                                srcTainted = true;
                        });
                    };
                    if (e.nsrc >= 1 && e.src0 != kNoAddr)
                        probe(e.src0);
                    if (e.nsrc >= 2 && e.src1 != kNoAddr)
                        probe(e.src1);
                    if (!srcTainted)
                        continue;
                    const ByteRange dst{e.addr, e.size ? e.size : 1u};
                    forEachCell(dst, widen, [&](Cell c) {
                        CellInfo &info = cells[c];
                        if (!info.tainted) {
                            info.tainted = true;
                            changed = true;
                        }
                    });
                }
            }
        }
    }

    /** Per-thread program-order scan: alloc/def coverage + candidacy. */
    void
    orderPass(ClassifyStats &stats)
    {
        for (ThreadId t = 0; t < threads.size(); ++t) {
            ByteMask allocMask; // bytes alloc-covered by this thread
            ByteMask defMask;   // bytes written by this thread
            for (const Event &e : *threads[t]) {
                if (e.kind == EventKind::Heartbeat ||
                    e.kind == EventKind::Barrier ||
                    e.kind == EventKind::SiteSummary)
                    continue;
                ++stats.analyzedEvents;
                SiteFacts &f = facts[e.site <= table.size() ? e.site : 0];
                ++f.events;
                if (e.kind == EventKind::Nop) {
                    // Nops are invisible to every lifeguard: trivially
                    // elidable wherever the site's accesses are.
                    ++f.nopEvents;
                    continue;
                }
                forEachRange(e, [&](const ByteRange &r) {
                    forEachCell(r, widen, [&](Cell c) {
                        const CellInfo &info = cells[c];
                        if (info.freed)
                            f.touchesFreed = true;
                        if (info.tainted)
                            f.touchesTainted = true;
                    });
                });

                switch (e.kind) {
                  case EventKind::Alloc: {
                    const ByteRange r{e.addr, e.size ? e.size : 1u};
                    if (monitored(e.addr))
                        allocMask.set(r);
                    defMask.clear(wholeCells(r)); // fresh memory: garbage
                    break;
                  }
                  case EventKind::Free: {
                    const ByteRange r = wholeCells(freeRange(e));
                    allocMask.clear(r);
                    defMask.clear(r);
                    break;
                  }
                  case EventKind::Read:
                  case EventKind::Write: {
                    ++f.rwEvents;
                    const ByteRange r{e.addr, e.size ? e.size : 1u};
                    bool clean = e.site != kNoSite &&
                                 e.addr != kNoAddr;
                    forEachCell(r, widen, [&](Cell c) {
                        const CellInfo &info = cells[c];
                        if (!info.seen || info.multi ||
                            info.owner != t || info.dirty)
                            clean = false;
                        if (e.kind == EventKind::Write)
                            f.writeCells.insert(c);
                        else
                            f.readCells.insert(c);
                    });
                    if (clean && !allocMask.covers(r))
                        clean = false;
                    if (clean && e.kind == EventKind::Read &&
                        !defMask.covers(r))
                        clean = false;
                    if (!clean)
                        f.allRwCandidates = false;
                    if (e.kind == EventKind::Write && monitored(e.addr))
                        defMask.set(r);
                    break;
                  }
                  default:
                    // TaintSrc/Untaint gen definedness in DEFINEDCHECK,
                    // but their cells are dirty, so no candidate read
                    // can ever depend on them; nothing to track.
                    break;
                }
            }
        }
    }

    /**
     * Demotion fixpoint: a site whose Writes share a cell with a
     * *retained* Read loses elision, so surviving reads never lose
     * their defining writes (DEFINEDCHECK would otherwise gain
     * spurious uninitialized-read reports — a precision, not
     * soundness, concern; see DESIGN.md).
     */
    std::vector<bool>
    demotionFixpoint(ClassifyStats &stats)
    {
        std::vector<bool> elidable(facts.size(), false);
        for (std::size_t id = 1; id < facts.size(); ++id)
            elidable[id] = facts[id].rwEvents + facts[id].nopEvents > 0 &&
                           facts[id].allRwCandidates;

        bool changed = true;
        while (changed) {
            ++stats.fixpointRounds;
            changed = false;
            std::unordered_set<Cell> retainedReads(
                facts[0].readCells.begin(), facts[0].readCells.end());
            for (std::size_t id = 1; id < facts.size(); ++id)
                if (!elidable[id])
                    retainedReads.insert(facts[id].readCells.begin(),
                                         facts[id].readCells.end());
            for (std::size_t id = 1; id < facts.size(); ++id) {
                if (!elidable[id])
                    continue;
                for (Cell c : facts[id].writeCells) {
                    if (retainedReads.count(c)) {
                        elidable[id] = false;
                        changed = true;
                        break;
                    }
                }
            }
        }
        return elidable;
    }
};

ElisionPlan
classifyImpl(std::vector<const std::vector<Event> *> threads,
             const SiteTable &table, const ClassifyOptions &options,
             ClassifyStats *stats_out)
{
    ClassifyStats stats;
    stats.sites = table.size();

    Analysis a(std::move(threads), table, options);
    a.globalPass();
    a.taintClosure();
    a.orderPass(stats);
    const std::vector<bool> elidable = a.demotionFixpoint(stats);

    ElisionPlan plan;
    plan.classes.assign(table.size() + 1, SiteClass::MustMonitor);
    for (std::size_t id = 1; id < plan.classes.size(); ++id) {
        const SiteFacts &f = a.facts[id];
        SiteClass c = SiteClass::MustMonitor;
        if (elidable[id])
            c = SiteClass::AlwaysPrivate;
        else if (f.events > 0 && !f.touchesFreed)
            c = f.touchesTainted ? SiteClass::NeverFreed
                                 : SiteClass::ProvablyUntainted;
        plan.classes[id] = c;
        ++stats.byClass[static_cast<unsigned>(c)];
        if (c == SiteClass::AlwaysPrivate)
            stats.candidateEvents += f.rwEvents + f.nopEvents;
    }
    if (stats_out)
        *stats_out = stats;
    return plan;
}

} // namespace

ElisionPlan
classifySites(const std::vector<std::vector<Event>> &programs,
              const SiteTable &table, const ClassifyOptions &options,
              ClassifyStats *stats)
{
    std::vector<const std::vector<Event> *> threads;
    threads.reserve(programs.size());
    for (const auto &p : programs)
        threads.push_back(&p);
    return classifyImpl(std::move(threads), table, options, stats);
}

ElisionPlan
classifySites(const Trace &trace, const SiteTable &table,
              const ClassifyOptions &options, ClassifyStats *stats)
{
    // Thread index must equal the tid the interleaver used, or the
    // ownership facts would mix threads.
    std::size_t maxTid = 0;
    for (const ThreadTrace &tt : trace.threads)
        maxTid = std::max<std::size_t>(maxTid, tt.tid);
    static const std::vector<Event> kEmpty;
    std::vector<const std::vector<Event> *> threads(maxTid + 1, &kEmpty);
    for (const ThreadTrace &tt : trace.threads)
        threads[tt.tid] = &tt.events;
    return classifyImpl(std::move(threads), table, options, stats);
}

ElisionPlan
buildElisionPlan(Trace &trace, SiteTable &table,
                 const ClassifyOptions &options, ClassifyStats *stats)
{
    assignPseudoSites(trace, table);
    return classifySites(trace, table, options, stats);
}

} // namespace bfly::staticpass
