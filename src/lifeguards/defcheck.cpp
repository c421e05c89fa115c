#include "lifeguards/defcheck.hpp"

#include <algorithm>

#include "common/interval_set.hpp"

namespace bfly {

namespace {

/** Keys of [base, base+size) (keyRunOf: saturating at the top of the
 *  address space), or none if @p base is outside the monitored window. */
std::optional<KeyRun>
keysOf(const DefCheckConfig &cfg, Addr base, std::uint16_t size)
{
    if (base == kNoAddr || !cfg.monitored(base))
        return std::nullopt;
    return keyRunOf(base, size, [&cfg](Addr a) { return cfg.keyOf(a); });
}

/** The reaching-expressions instantiation: "key holds defined data". */
ExprExtractor
definedness(const DefCheckConfig &cfg)
{
    return [cfg](const Event &e) -> std::optional<ExprEffect> {
        bool gen = false;
        switch (e.kind) {
          case EventKind::Write:
          case EventKind::Assign:
          case EventKind::TaintSrc:
          case EventKind::Untaint:
            gen = true;
            break;
          case EventKind::Alloc: // fresh memory holds garbage
          case EventKind::Free:
            break;
          default:
            return std::nullopt;
        }
        const auto keys = keysOf(cfg, e.addr, e.size);
        if (!keys)
            return std::nullopt;
        return ExprEffect{gen, *keys};
    };
}

/** Call @p fn(base) for each address event @p e reads (none for kinds
 *  that read nothing). */
template <typename Fn>
void
forEachRead(const Event &e, Fn &&fn)
{
    switch (e.kind) {
      case EventKind::Read:
      case EventKind::Use:
        fn(e.addr);
        break;
      case EventKind::Assign:
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

ButterflyDefCheck::ButterflyDefCheck(std::size_t num_threads,
                                     const DefCheckConfig &config)
    : config_(config), exprs_(num_threads, definedness(config))
{}

void
ButterflyDefCheck::pass1(const BlockView &block)
{
    exprs_.pass1(block);
}

void
ButterflyDefCheck::beginPass(EpochId l, bool second)
{
    exprs_.beginPass(l, second);
}

void
ButterflyDefCheck::pass2(const BlockView &block)
{
    exprs_.pass2(block);

    // The check layer: every read must find its keys defined along all
    // paths — membership in the generic analysis's IN_{l,t,i}, checked
    // in one forward walk over the block.
    const ThreadId t = block.thread;
    ReachingExpressions::InWalk walk(exprs_, block.epoch, t);
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const Event &e = block.events[i];
        forEachRead(e, [&](Addr base) {
            const auto keys = keysOf(config_, base, e.size);
            if (keys && !walk.allIn(i, *keys))
                errors_.report(t, block.first + i, base,
                               ErrorKind::UninitializedRead, e.size);
        });
    }
}

void
ButterflyDefCheck::finalizeEpoch(EpochId l)
{
    exprs_.finalizeEpoch(l);
}

DefCheckOracle::DefCheckOracle(const DefCheckConfig &config)
    : config_(config)
{}

void
DefCheckOracle::processOne(ThreadId tid, std::uint64_t index,
                           const Event &e)
{
    auto set_range = [&](Addr base, std::uint16_t size,
                         std::uint8_t v) {
        if (const auto keys = keysOf(config_, base, size))
            defined_.setRange(keys->lo, keys->keys(), v);
    };
    auto check_range = [&](Addr base, std::uint16_t size) {
        const auto keys = keysOf(config_, base, size);
        if (keys && !defined_.rangeEquals(keys->lo, keys->keys(), 1))
            errors_.report(tid, index, base, ErrorKind::UninitializedRead,
                           size);
    };

    switch (e.kind) {
      case EventKind::Write:
      case EventKind::TaintSrc:
      case EventKind::Untaint:
        set_range(e.addr, e.size, 1);
        break;
      case EventKind::Assign: {
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n)
            check_range(srcs[n], e.size);
        set_range(e.addr, e.size, 1);
        break;
      }
      case EventKind::Alloc:
      case EventKind::Free:
        set_range(e.addr, e.size, 0);
        break;
      case EventKind::Read:
      case EventKind::Use:
        check_range(e.addr, e.size);
        break;
      default:
        break;
    }
}

void
DefCheckOracle::runOnTrace(const Trace &trace)
{
    struct IndexedEvent
    {
        std::uint64_t gseq;
        ThreadId tid;
        std::uint64_t index;
        const Event *e;
    };
    std::vector<IndexedEvent> merged;
    merged.reserve(trace.instructionCount());
    for (const ThreadTrace &tt : trace.threads) {
        std::uint64_t index = 0;
        for (const Event &e : tt.events) {
            if (e.kind == EventKind::Heartbeat)
                continue;
            merged.push_back(IndexedEvent{e.gseq, tt.tid, index, &e});
            ++index;
        }
    }
    std::stable_sort(merged.begin(), merged.end(),
                     [](const IndexedEvent &a, const IndexedEvent &b) {
                         return a.gseq < b.gseq;
                     });
    for (const IndexedEvent &ie : merged)
        processOne(ie.tid, ie.index, *ie.e);
}

} // namespace bfly
