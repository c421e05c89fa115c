#include "lifeguards/taintcheck_oracle.hpp"

#include <algorithm>
#include <vector>

namespace bfly {

TaintCheckOracle::TaintCheckOracle(const TaintCheckConfig &config)
    : config_(config)
{}

bool
TaintCheckOracle::tainted(Addr addr) const
{
    return taint_.get(config_.keyOf(addr)) != 0;
}

void
TaintCheckOracle::processOne(ThreadId tid, std::uint64_t index,
                             const Event &e)
{
    auto set_range = [&](Addr base, std::uint16_t size, std::uint8_t v) {
        config_.forEachKeyOf(base, size, [&](Addr k) { taint_.set(k, v); });
    };

    switch (e.kind) {
      case EventKind::TaintSrc:
        set_range(e.addr, e.size, 1);
        break;
      case EventKind::Untaint:
      case EventKind::Write:
        set_range(e.addr, e.size, 0);
        break;
      case EventKind::Assign: {
        bool src_tainted = false;
        const Addr srcs[2] = {e.src0, e.src1};
        for (unsigned n = 0; n < e.nsrc; ++n)
            src_tainted |= taint_.get(config_.keyOf(srcs[n])) != 0;
        set_range(e.addr, e.size, src_tainted ? 1 : 0);
        break;
      }
      case EventKind::Use:
        if (tainted(e.addr))
            errors_.report(tid, index, e.addr, ErrorKind::TaintedUse);
        break;
      default:
        break;
    }
}

void
TaintCheckOracle::runOnTrace(const Trace &trace)
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
