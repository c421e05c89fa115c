#include "lifeguards/addrcheck.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "telemetry/metrics.hpp"

namespace bfly {

namespace {

/** Pre-interned ADDRCHECK metric ids (one-time registration). */
struct AddrCheckTelemetry
{
    telemetry::MetricId eventsChecked;
    telemetry::MetricId isolationViolations;
    telemetry::MetricId errorsFlagged;
    telemetry::MetricId blocksCommitted;
    telemetry::MetricId pass2BlocksSkipped; ///< pass-2 blocks that
                                            ///< could flag nothing
    telemetry::MetricId summarySize; ///< histogram, per pass-1 block
    telemetry::MetricId sosSize;     ///< gauge, keys in the SOS

    static const AddrCheckTelemetry &
    get()
    {
        static const AddrCheckTelemetry m = [] {
            auto &r = telemetry::registry();
            AddrCheckTelemetry s;
            s.eventsChecked = r.counter("bfly.addrcheck.events_checked");
            s.isolationViolations =
                r.counter("bfly.addrcheck.isolation_violations");
            s.errorsFlagged = r.counter("bfly.addrcheck.errors_flagged");
            s.blocksCommitted =
                r.counter("bfly.addrcheck.blocks_committed");
            s.pass2BlocksSkipped =
                r.counter("bfly.addrcheck.pass2_blocks_skipped");
            s.summarySize = r.histogram("bfly.addrcheck.summary_size");
            s.sosSize = r.gauge("bfly.addrcheck.sos_size");
            return s;
        }();
        return m;
    }
};

/** The block's access ranges, reused across pass-1 calls per worker. */
std::vector<KeyRun> &
accessScratch()
{
    thread_local std::vector<KeyRun> runs;
    return runs;
}

/** Call @p fn(base) for each address access event @p e reads or writes
 *  (none for other kinds). */
template <typename Fn>
void
forEachAccess(const Event &e, Fn &&fn)
{
    switch (e.kind) {
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Use:
        fn(e.addr);
        break;
      case EventKind::Assign:
        fn(e.addr);
        if (e.nsrc >= 1)
            fn(e.src0);
        if (e.nsrc >= 2)
            fn(e.src1);
        break;
      default:
        break;
    }
}

} // namespace

/**
 * Allocation state of block (l, t) during its pass 1: the block's own
 * net changes so far (genEnd allocated, killEnd freed) over
 *
 *   LSOS_{l,t} = (GEN_{l-1,t} - U_{u!=t} KILL_{l-2,u})
 *                U (SOS_l - KILL_{l-1,t})           [Section 5.2 / 6.1]
 *
 * queried by key range. The state is constant between the run
 * boundaries of its input sets; the run around the last key looked up
 * is remembered, so further queries inside it cost a compare. The LSOS
 * inputs (older summaries and the SOS) are frozen while pass 1 of epoch
 * l runs; only this block's own sets change, and each change forgets
 * the remembered run.
 */
class ButterflyAddrCheck::LocalState
{
  public:
    LocalState(const ButterflyAddrCheck &check, EpochId l, ThreadId t,
               BlockSummary &own)
        : own_(own), sos_(check.sos_),
          head_(l >= 1 ? check.slotIfValid(l - 1, t) : nullptr)
    {
        if (l < 2)
            return;
        for (ThreadId u = 0; u < check.summaries_.size(); ++u) {
            if (u == t)
                continue;
            const BlockSummary *w = check.slotIfValid(l - 2, u);
            if (w && !w->killEnd.empty())
                kill2_.push_back(&w->killEnd);
        }
    }

    /** True if some key of @p r is unallocated. */
    bool unallocated(const KeyRun &r) { return any(r, false); }

    /**
     * Apply an Alloc or Free (@p kind) of @p r. Returns the error it
     * raises, if any: an Alloc of a key already allocated, or a Free of
     * one that is not.
     */
    std::optional<ErrorKind>
    change(EventKind kind, const KeyRun &r)
    {
        const bool alloc = kind == EventKind::Alloc;
        const bool bad = any(r, alloc);
        (alloc ? own_.allocAny : own_.freeAny).insert(r.lo, r.hi);
        (alloc ? own_.genEnd : own_.killEnd).insert(r.lo, r.hi);
        (alloc ? own_.killEnd : own_.genEnd).erase(r.lo, r.hi);
        cached_ = false;
        if (!bad)
            return std::nullopt;
        return alloc ? ErrorKind::DoubleAlloc : ErrorKind::UnallocatedFree;
    }

  private:
    /** True if some key of @p r is allocated (@p allocated) or not. */
    bool
    any(const KeyRun &r, bool allocated)
    {
        for (Addr p = r.lo;;) {
            if (!cached_ || p < runLo_ || p > runHi_)
                locate(p);
            if (runState_ == allocated)
                return true;
            if (runHi_ >= r.hi)
                return false;
            p = runHi_ + 1;
        }
    }

    /** Compute the state at @p p and the run of keys around it that
     *  shares it. Every set is consulted: each bounds the run. */
    void
    locate(Addr p)
    {
        Addr lo = 0;
        Addr hi = ~Addr{0};
        const bool gen = own_.genEnd.runAt(p, lo, hi);
        const bool kill = own_.killEnd.runAt(p, lo, hi);
        bool head_gen = false;
        bool head_kill = false;
        if (head_) {
            head_gen = head_->genEnd.runAt(p, lo, hi);
            head_kill = head_->killEnd.runAt(p, lo, hi);
        }
        bool killed_l2 = false;
        for (const IntervalSet *k : kill2_)
            killed_l2 = k->runAt(p, lo, hi) || killed_l2;
        const bool in_sos = sos_.runAt(p, lo, hi);
        runState_ = gen || (!kill && ((head_gen && !killed_l2) ||
                                      (in_sos && !head_kill)));
        runLo_ = lo;
        runHi_ = hi;
        cached_ = true;
    }

    BlockSummary &own_;
    const IntervalSet &sos_;
    const BlockSummary *head_;               ///< s_{l-1,t}, if valid
    std::vector<const IntervalSet *> kill2_; ///< KILL_{l-2,u}, u != t
    bool cached_ = false;
    bool runState_ = false;
    Addr runLo_ = 0;
    Addr runHi_ = 0;
};

ButterflyAddrCheck::ButterflyAddrCheck(std::size_t num_threads,
                                       const AddrCheckConfig &config)
    : config_(config), summaries_(num_threads)
{
    ensure(config_.granularity > 0, "granularity must be positive");
}

ButterflyAddrCheck::BlockSummary &
ButterflyAddrCheck::resetSlot(EpochId l, ThreadId t)
{
    // Clear rather than replace: the run vectors keep their capacity.
    BlockSummary &s = summaries_[t][l % kWindow];
    s.genEnd.clear();
    s.killEnd.clear();
    s.allocAny.clear();
    s.freeAny.clear();
    s.access.clear();
    s.epoch = l;
    return s;
}

const ButterflyAddrCheck::BlockSummary *
ButterflyAddrCheck::slotIfValid(EpochId l, ThreadId t) const
{
    const BlockSummary &s = summaries_[t][l % kWindow];
    return s.epoch == l ? &s : nullptr;
}

void
ButterflyAddrCheck::commitBlock(EpochId l, ThreadId t,
                                const std::vector<ErrorRecord> &local,
                                std::uint64_t checks,
                                std::uint64_t isolation,
                                bool pass2_skipped)
{
    if (telemetry::enabled()) {
        // Per-block flush of the hot-path tallies (never per event).
        const AddrCheckTelemetry &m = AddrCheckTelemetry::get();
        auto &reg = telemetry::registry();
        reg.add(m.eventsChecked, checks);
        reg.add(m.isolationViolations, isolation);
        reg.add(m.errorsFlagged, local.size());
        reg.add(m.blocksCommitted);
        if (pass2_skipped)
            reg.add(m.pass2BlocksSkipped);
    }
    for (const ErrorRecord &rec : local) {
        if (errors_.report(rec))
            ++errorsPerBlock_[blockKey(l, t)];
    }
    eventsChecked_ += checks;
    isolationViol_ += isolation;
}

void
ButterflyAddrCheck::pass1(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockSummary &s = resetSlot(l, t);
    LocalState state(*this, l, t, s);

    std::vector<KeyRun> &access = accessScratch();
    access.clear();
    std::vector<ErrorRecord> local_errors;
    std::uint64_t checks = 0;

    // Every operation is one key range: a check counts each of its keys,
    // and flags the event once if any key is in the wrong state (the
    // record names the operation, not the key).
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        const std::uint64_t index = block.first + i;
        if (e.kind == EventKind::Alloc || e.kind == EventKind::Free) {
            if (const auto keys = config_.keysOf(e.addr, e.size)) {
                checks += keys->keys();
                if (const auto kind = state.change(e.kind, *keys))
                    local_errors.push_back(
                        ErrorRecord{t, index, e.addr, *kind, e.size});
            }
            continue;
        }
        forEachAccess(e, [&](Addr base) {
            const auto keys = config_.keysOf(base, e.size);
            if (!keys)
                return;
            checks += keys->keys();
            if (state.unallocated(*keys))
                local_errors.push_back(ErrorRecord{
                    t, index, base, ErrorKind::UnallocatedAccess, e.size});
            access.push_back(*keys);
        });
    }

    s.access.assignUnion(access);

    const std::uint64_t size =
        s.genEnd.size() + s.killEnd.size() + s.access.size();
    summarySizes_[blockKey(l, t)] = size;
    if (telemetry::enabled()) {
        telemetry::registry().observe(AddrCheckTelemetry::get().summarySize,
                                      size);
    }
    commitBlock(l, t, local_errors, checks, 0, false);
}

void
ButterflyAddrCheck::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;

    // Collect the wing summaries S_{l,t} (epochs l-1..l+1, threads != t).
    // They are probed in place; no per-block union is built.
    std::vector<const IntervalSet *> wing_changes; // allocAny / freeAny
    std::vector<const IntervalSet *> wing_access;
    const EpochId lo = l >= 1 ? l - 1 : 0;
    for (EpochId w = lo; w <= l + 1; ++w) {
        for (ThreadId u = 0; u < summaries_.size(); ++u) {
            if (u == t)
                continue;
            const BlockSummary *s = slotIfValid(w, u);
            if (!s)
                continue;
            for (const IntervalSet *set : {&s->allocAny, &s->freeAny})
                if (!set->empty())
                    wing_changes.push_back(set);
            if (!s->access.empty())
                wing_access.push_back(&s->access);
        }
    }
    auto in_any = [](const std::vector<const IntervalSet *> &sets,
                     const KeyRun &r) {
        return std::any_of(sets.begin(), sets.end(),
                           [&r](const IntervalSet *s) {
                               return s->overlaps(r.lo, r.hi);
                           });
    };

    // Skip what cannot flag, decided from the body's own pass-1 summary
    // (every schedule keeps it alive until R(l)): alloc/free events only
    // matter if the body has any, and access events only if some wing
    // alloc/free set meets the body's ACCESS set.
    const BlockSummary *own = slotIfValid(l, t);
    ensure(own != nullptr, "pass 2 of a block without its pass-1 summary");
    const bool check_changes =
        !own->allocAny.empty() || !own->freeAny.empty();
    const bool check_accesses =
        std::any_of(wing_changes.begin(), wing_changes.end(),
                    [own](const IntervalSet *s) {
                        return s->overlaps(own->access);
                    });
    if (!check_changes && !check_accesses) {
        commitBlock(l, t, {}, 0, 0, true);
        return;
    }

    std::vector<ErrorRecord> local_errors;
    std::uint64_t isolation = 0;

    // Isolation check (Section 6.1): a body alloc/free conflicts with any
    // concurrent alloc/free/access of the same key; a body access
    // conflicts with any concurrent alloc/free of its key. One range
    // query per checked operation and wing set; one record per flagged
    // operation.
    auto check = [&](std::uint64_t index, Addr base, std::uint16_t size,
                     bool state_change) {
        const auto keys = config_.keysOf(base, size);
        if (!keys)
            return;
        if (in_any(wing_changes, *keys) ||
            (state_change && in_any(wing_access, *keys))) {
            local_errors.push_back(ErrorRecord{
                t, index, base, ErrorKind::NonIsolatedOp, size});
            ++isolation;
        }
    };

    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        const std::uint64_t index = block.first + i;
        if (e.kind == EventKind::Alloc || e.kind == EventKind::Free) {
            if (check_changes)
                check(index, e.addr, e.size, true);
        } else if (check_accesses) {
            forEachAccess(e, [&](Addr base) {
                check(index, base, e.size, false);
            });
        }
    }

    commitBlock(l, t, local_errors, 0, isolation, false);
}

void
ButterflyAddrCheck::finalizeEpoch(EpochId l)
{
    const std::size_t nthreads = summaries_.size();

    // KILL_l = U_t KILL_{l,t}
    IntervalSet kill_epoch;
    for (ThreadId t = 0; t < nthreads; ++t) {
        if (const BlockSummary *s = slotIfValid(l, t))
            kill_epoch.unionWith(s->killEnd);
    }

    // GEN_l: allocated at the end of some block (l, t), and every other
    // thread u allocates-or-never-frees it across epochs l-1..l
    // (Section 5.2). Per key, u rules it out exactly when u frees it in
    // epoch l, or frees it in epoch l-1 without re-allocating it in
    // epoch l (a block's genEnd and killEnd are disjoint):
    //   BLOCKED_u = KILL_{l,u} U (KILL_{l-1,u} - GEN_{l,u})
    //   GEN_l     = U_t (GEN_{l,t} - U_{u!=t} BLOCKED_u)
    std::vector<IntervalSet> blocked(nthreads);
    for (ThreadId u = 0; u < nthreads; ++u) {
        const BlockSummary *cur = slotIfValid(l, u);
        const BlockSummary *prev = l >= 1 ? slotIfValid(l - 1, u) : nullptr;
        if (prev && !prev->killEnd.empty()) {
            blocked[u] = prev->killEnd;
            if (cur)
                blocked[u].subtract(cur->genEnd);
        }
        if (cur)
            blocked[u].unionWith(cur->killEnd);
    }
    IntervalSet gen_epoch;
    for (ThreadId t = 0; t < nthreads; ++t) {
        const BlockSummary *s = slotIfValid(l, t);
        if (!s || s->genEnd.empty())
            continue;
        IntervalSet gen = s->genEnd;
        for (ThreadId u = 0; u < nthreads && !gen.empty(); ++u) {
            if (u != t)
                gen.subtract(blocked[u]);
        }
        gen_epoch.unionWith(gen);
    }

    sosWork_[l] = gen_epoch.size() + kill_epoch.size();

    // Single-writer SOS advance: SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l).
    sos_.subtract(kill_epoch);
    sos_.unionWith(gen_epoch);

    if (telemetry::enabled()) {
        telemetry::registry().set(AddrCheckTelemetry::get().sosSize,
                                  sos_.size());
    }
}

std::uint64_t
ButterflyAddrCheck::errorsInBlock(EpochId l, ThreadId t) const
{
    auto it = errorsPerBlock_.find(blockKey(l, t));
    return it == errorsPerBlock_.end() ? 0 : it->second;
}

std::uint64_t
ButterflyAddrCheck::summarySize(EpochId l, ThreadId t) const
{
    auto it = summarySizes_.find(blockKey(l, t));
    return it == summarySizes_.end() ? 0 : it->second;
}

std::uint64_t
ButterflyAddrCheck::sosUpdateWork(EpochId l) const
{
    auto it = sosWork_.find(l);
    return it == sosWork_.end() ? 0 : it->second;
}

} // namespace bfly
