#include "lifeguards/report.hpp"

#include <sstream>

#include "common/interval_set.hpp"

namespace bfly {

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::UnallocatedAccess: return "unallocated-access";
      case ErrorKind::UnallocatedFree:   return "unallocated-free";
      case ErrorKind::DoubleAlloc:       return "double-alloc";
      case ErrorKind::NonIsolatedOp:     return "non-isolated-op";
      case ErrorKind::TaintedUse:        return "tainted-use";
      case ErrorKind::UninitializedRead: return "uninitialized-read";
      case ErrorKind::DataRace:          return "data-race";
      case ErrorKind::AddrLeak:          return "addr-leak";
    }
    return "?";
}

std::string
ErrorRecord::toString() const
{
    std::ostringstream os;
    os << errorKindName(kind) << " thread " << tid << " instr #" << index
       << " addr 0x" << std::hex << addr << std::dec;
    return os.str();
}

ErrorLog
ErrorLog::remapped(
    const std::vector<std::vector<std::uint64_t>> &index_map) const
{
    ErrorLog out;
    for (ErrorRecord rec : records_) {
        if (rec.tid < index_map.size() &&
            rec.index < index_map[rec.tid].size())
            rec.index = index_map[rec.tid][rec.index];
        out.report(rec);
    }
    return out;
}

AccuracyReport
compareToOracle(const ErrorLog &monitored, const ErrorLog &oracle,
                unsigned granularity)
{
    AccuracyReport report;
    for (const ErrorRecord &rec : monitored.records()) {
        if (oracle.flagged(rec.tid, rec.index))
            ++report.truePositives;
        else
            ++report.falsePositives;
    }

    auto key_range = [&](const ErrorRecord &rec) {
        return keyRunOf(rec.addr, rec.size,
                        [granularity](Addr a) { return a / granularity; });
    };
    auto overlaps = [&](const ErrorRecord &a, const ErrorRecord &b) {
        const KeyRun ka = key_range(a);
        const KeyRun kb = key_range(b);
        return ka.lo <= kb.hi && kb.lo <= ka.hi;
    };

    for (const ErrorRecord &rec : oracle.records()) {
        if (monitored.flagged(rec.tid, rec.index))
            continue;
        // Theorem 6.1/6.2 guarantee an error is flagged for the same
        // race, possibly attributed to a different instruction: accept
        // any monitored record on an overlapping metadata key.
        bool covered = false;
        for (const ErrorRecord &m : monitored.records()) {
            if (overlaps(rec, m)) {
                covered = true;
                break;
            }
        }
        if (!covered)
            ++report.falseNegatives;
    }
    return report;
}

} // namespace bfly
