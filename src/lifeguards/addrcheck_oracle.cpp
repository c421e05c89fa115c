#include "lifeguards/addrcheck_oracle.hpp"

#include <algorithm>

namespace bfly {

namespace {

/** An event with its per-thread program index and visibility order. */
struct IndexedEvent
{
    std::uint64_t gseq;
    ThreadId tid;
    std::uint64_t index;
    const Event *e;
};

} // namespace

AddrCheckOracle::AddrCheckOracle(const AddrCheckConfig &config)
    : config_(config)
{}

void
AddrCheckOracle::checkKeys(ThreadId tid, std::uint64_t index, Addr base,
                           std::uint16_t size, bool want_allocated,
                           ErrorKind kind_if_bad)
{
    const auto keys = config_.keysOf(base, size);
    if (!keys)
        return;
    const std::size_t count = static_cast<std::size_t>(keys->keys());
    eventsChecked_ += count;
    // One span walk instead of one shadow lookup per key. The log
    // coalesces repeated reports of the same event, so flagging the
    // event once is equivalent to the old per-key reporting.
    bool any_bad = false;
    allocated_.forEachInRange(keys->lo, count, [&](std::uint8_t v) {
        any_bad |= (v != 0) != want_allocated;
    });
    if (any_bad)
        errors_.report(tid, index, base, kind_if_bad, size);
}

void
AddrCheckOracle::processOne(ThreadId tid, std::uint64_t index,
                            const Event &e)
{
    switch (e.kind) {
      case EventKind::Alloc:
      case EventKind::Free: {
        const bool alloc = e.kind == EventKind::Alloc;
        checkKeys(tid, index, e.addr, e.size, !alloc,
                  alloc ? ErrorKind::DoubleAlloc
                        : ErrorKind::UnallocatedFree);
        if (const auto keys = config_.keysOf(e.addr, e.size))
            allocated_.setRange(keys->lo,
                                static_cast<std::size_t>(keys->keys()),
                                alloc ? 1 : 0);
        break;
      }
      case EventKind::Read:
      case EventKind::Write:
      case EventKind::Use:
        checkKeys(tid, index, e.addr, e.size, true,
                  ErrorKind::UnallocatedAccess);
        break;
      case EventKind::Assign: {
        checkKeys(tid, index, e.addr, e.size, true,
                  ErrorKind::UnallocatedAccess);
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n) {
            checkKeys(tid, index, srcs[n], e.size, true,
                      ErrorKind::UnallocatedAccess);
        }
        break;
      }
      default:
        break;
    }
}

void
AddrCheckOracle::runOnTrace(const Trace &trace)
{
    // Build (gseq, tid, program index) triples, then replay in true
    // visibility order. Program indices stay program-ordered even when
    // a relaxed model made visibility order differ (TSO store delay).
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
