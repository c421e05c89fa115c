/**
 * @file
 * Shared test utilities: tiny trace construction, sequential reference
 * evaluators for reaching definitions / reaching expressions over a given
 * total ordering, and random small-trace generators for property tests.
 */

#ifndef BUTTERFLY_TESTS_HELPERS_HPP
#define BUTTERFLY_TESTS_HELPERS_HPP

#include <map>
#include <optional>
#include <vector>

#include "butterfly/ids.hpp"
#include "butterfly/reaching_defs.hpp"
#include "butterfly/reaching_exprs.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "memmodel/valid_orderings.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly::test {

/**
 * Build a trace from per-thread event programs with explicit heartbeat
 * markers already embedded (kind Heartbeat separates epochs).
 */
inline Trace
traceOf(std::vector<std::vector<Event>> programs)
{
    Trace trace;
    trace.threads.resize(programs.size());
    for (std::size_t t = 0; t < programs.size(); ++t) {
        trace.threads[t].tid = static_cast<ThreadId>(t);
        trace.threads[t].events = std::move(programs[t]);
    }
    return trace;
}

/** Sequential reaching definitions over one total ordering: the set of
 *  definitions live at the end (last definition per location wins). */
inline DefSet
genOfOrdering(const std::vector<OrderedInstr> &order,
              const DefineExtractor &defines)
{
    std::map<Addr, DefId> last;
    for (const OrderedInstr &oi : order) {
        if (auto loc = defines(oi.e))
            last[*loc] = InstrId{oi.l, oi.t, oi.i}.pack();
    }
    DefSet out;
    for (const auto &[addr, d] : last)
        out.insert(d);
    return out;
}

/** Apply one event's effect, if any, to @p avail. */
inline void
applyEffect(ExprSet &avail, const std::optional<ExprEffect> &eff)
{
    if (!eff)
        return;
    if (eff->gen)
        avail.insert(eff->run.lo, eff->run.hi);
    else
        avail.erase(eff->run.lo, eff->run.hi);
}

/** Sequential reaching expressions over one total ordering: expressions
 *  available at the end (last effect per expression is a gen). */
inline ExprSet
availOfOrdering(const std::vector<OrderedInstr> &order,
                const ExprExtractor &effects)
{
    ExprSet avail;
    for (const OrderedInstr &oi : order)
        applyEffect(avail, effects(oi.e));
    return avail;
}

/**
 * IN_{l,t,i} by its definition, for checking the forward walk:
 * LSOS_{l,t} with the block's own effects before instruction @p i
 * replayed over it, minus KILL-SIDE-IN_{l,t}. Rebuilt from scratch on
 * every call.
 */
inline ExprSet
inAt(const ReachingExpressions &exprs, const EpochLayout &layout,
     const ExprExtractor &effects, EpochId l, ThreadId t, InstrOffset i)
{
    const auto &res = exprs.blockResults(l, t);
    const BlockView block = layout.block(l, t);
    ExprSet in = res.lsos;
    for (InstrOffset j = 0; j < i; ++j)
        applyEffect(in, effects(block.events[j]));
    in.subtract(res.killSideIn);
    return in;
}

/**
 * Random small trace for exhaustive property tests: @p threads threads,
 * @p epochs epochs, 0..max_per_block write events per block over a tiny
 * variable pool. Heartbeats embedded.
 */
inline Trace
randomSmallTrace(Rng &rng, unsigned threads, unsigned epochs,
                 unsigned max_per_block, unsigned vars)
{
    std::vector<std::vector<Event>> programs(threads);
    for (unsigned t = 0; t < threads; ++t) {
        for (unsigned l = 0; l < epochs; ++l) {
            const unsigned n =
                static_cast<unsigned>(rng.below(max_per_block + 1));
            for (unsigned i = 0; i < n; ++i)
                programs[t].push_back(
                    Event::write(0x100 + 8 * rng.below(vars), 8));
            if (l + 1 < epochs)
                programs[t].push_back(Event::heartbeat());
        }
    }
    return traceOf(std::move(programs));
}

/**
 * Random small trace of Alloc/Free events over a tiny key pool, for
 * reaching-expressions property tests (alloc generates the expression
 * "key available", free kills it). With @p accesses, Writes and Reads
 * of one to three 8-byte words are mixed in and the Alloc/Free events
 * cover as many words, for definedness tests (definednessEffects).
 */
inline Trace
randomAllocTrace(Rng &rng, unsigned threads, unsigned epochs,
                 unsigned max_per_block, unsigned vars,
                 bool accesses = false)
{
    std::vector<std::vector<Event>> programs(threads);
    for (unsigned t = 0; t < threads; ++t) {
        for (unsigned l = 0; l < epochs; ++l) {
            const unsigned n =
                static_cast<unsigned>(rng.below(max_per_block + 1));
            for (unsigned i = 0; i < n; ++i) {
                const Addr a = 0x100 + 8 * rng.below(vars);
                if (accesses) {
                    const auto size =
                        static_cast<std::uint16_t>(8 * (1 + rng.below(3)));
                    switch (rng.below(4)) {
                      case 0:
                        programs[t].push_back(Event::alloc(a, size));
                        break;
                      case 1:
                        programs[t].push_back(Event::freeOf(a, size));
                        break;
                      case 2:
                        programs[t].push_back(Event::write(a, size));
                        break;
                      default:
                        programs[t].push_back(Event::read(a, size));
                        break;
                    }
                } else if (rng.chance(0.5)) {
                    programs[t].push_back(Event::alloc(a, 8));
                } else {
                    programs[t].push_back(Event::freeOf(a, 8));
                }
            }
            if (l + 1 < epochs)
                programs[t].push_back(Event::heartbeat());
        }
    }
    return traceOf(std::move(programs));
}

/** Alloc gens "addr available"; free kills it. */
inline std::optional<ExprEffect>
allocEffects(const Event &e)
{
    switch (e.kind) {
      case EventKind::Alloc:
        return ExprEffect{true, {e.addr, e.addr}};
      case EventKind::Free:
        return ExprEffect{false, {e.addr, e.addr}};
      default:
        return std::nullopt;
    }
}

/** The 8-byte words of [addr, addr+size), as expression ids. */
inline KeyRun
wordsOf(const Event &e)
{
    return keyRunOf(e.addr, e.size, [](Addr a) { return a / 8; });
}

/** Definedness over 8-byte words: a write generates "word defined",
 *  an alloc or free kills it. */
inline std::optional<ExprEffect>
definednessEffects(const Event &e)
{
    switch (e.kind) {
      case EventKind::Write:
        return ExprEffect{true, wordsOf(e)};
      case EventKind::Alloc:
      case EventKind::Free:
        return ExprEffect{false, wordsOf(e)};
      default:
        return std::nullopt;
    }
}

} // namespace bfly::test

#endif // BUTTERFLY_TESTS_HELPERS_HPP
