/**
 * @file
 * Error reporting shared by every lifeguard, plus the false-positive /
 * false-negative accounting used throughout the evaluation.
 *
 * An error is attributed to the *event* that triggered it, identified by
 * (thread id, per-thread instruction index). The same identity is produced
 * by the butterfly lifeguards (via EpochLayout::globalIndex) and by the
 * oracles (by counting events while replaying), so reports from the two
 * sides can be diffed exactly:
 *
 *   false positive = flagged by the monitored lifeguard, not by the oracle
 *   false negative = flagged by the oracle, missed by the lifeguard
 *                    (provably empty for butterfly analysis)
 */

#ifndef BUTTERFLY_LIFEGUARDS_REPORT_HPP
#define BUTTERFLY_LIFEGUARDS_REPORT_HPP

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace bfly {

/** What went wrong. */
enum class ErrorKind : std::uint8_t {
    UnallocatedAccess, ///< load/store to memory not known to be allocated
    UnallocatedFree,   ///< free of memory not known to be allocated
    DoubleAlloc,       ///< allocation of memory that appears allocated
    NonIsolatedOp,     ///< alloc/free/access racing with a concurrent
                       ///< alloc/free in the wings (metadata race)
    TaintedUse,        ///< tainted value used in a critical way
    UninitializedRead, ///< read of memory never written (DEFINEDCHECK)
    DataRace,          ///< access with an empty candidate lockset (LOCKSET)
    AddrLeak,          ///< heap pointer value reaches an output sink
};

const char *errorKindName(ErrorKind kind);

/** One flagged event. */
struct ErrorRecord
{
    ThreadId tid = 0;
    std::uint64_t index = 0; ///< per-thread instruction index
    Addr addr = kNoAddr;
    ErrorKind kind = ErrorKind::UnallocatedAccess;
    std::uint16_t size = 1; ///< bytes covered by the flagged operation

    /** Identity key: which *event* was flagged (kind-insensitive). */
    std::uint64_t
    key() const
    {
        return (static_cast<std::uint64_t>(tid) << 48) ^ index;
    }

    std::string toString() const;
};

/** Collects error reports; at most one per event identity. */
class ErrorLog
{
  public:
    /**
     * Report an error; duplicates of the same event are coalesced.
     * @return true if this event was not already flagged
     */
    bool
    report(ThreadId tid, std::uint64_t index, Addr addr, ErrorKind kind,
           std::uint16_t size = 1)
    {
        return report(ErrorRecord{tid, index, addr, kind, size});
    }

    bool
    report(const ErrorRecord &rec)
    {
        auto [it, inserted] = byKey_.emplace(rec.key(), records_.size());
        if (inserted)
            records_.push_back(rec);
        return inserted;
    }

    bool
    flagged(ThreadId tid, std::uint64_t index) const
    {
        return byKey_.count(ErrorRecord{tid, index, 0,
                                        ErrorKind::UnallocatedAccess}
                                .key()) != 0;
    }

    /**
     * This log with each record's per-thread index translated through
     * @p index_map[tid] — e.g. from an elided trace's indices to the
     * full trace's (staticpass::applyElisionPlan), so the records can be
     * compared with an oracle's. Records outside the map keep theirs.
     */
    ErrorLog
    remapped(const std::vector<std::vector<std::uint64_t>> &index_map) const;

    const std::vector<ErrorRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }
    void clear() { records_.clear(); byKey_.clear(); }

  private:
    std::vector<ErrorRecord> records_;
    std::unordered_map<std::uint64_t, std::size_t> byKey_;
};

/**
 * Diff of a monitored lifeguard's log against the oracle's.
 *
 * False positives are event-exact (the Fig. 13 metric counts flagged
 * events). False negatives honour the actual guarantee of Theorems
 * 6.1/6.2: the butterfly lifeguard flags *an* error for every true error,
 * but may attribute it to a different instruction of the same race (e.g.
 * the concurrent alloc rather than the access). An oracle error therefore
 * only counts as missed if no monitored record touches an overlapping
 * metadata key either.
 */
struct AccuracyReport
{
    std::size_t truePositives = 0;
    std::size_t falsePositives = 0;
    std::size_t falseNegatives = 0;

    /** Fig. 13 metric: false positives as a fraction of memory accesses. */
    double
    falsePositiveRate(std::size_t memory_accesses) const
    {
        if (memory_accesses == 0)
            return 0.0;
        return static_cast<double>(falsePositives) /
               static_cast<double>(memory_accesses);
    }
};

/**
 * Compare a lifeguard's error log against the oracle's.
 * @param granularity  metadata granularity used for key-overlap matching
 */
AccuracyReport compareToOracle(const ErrorLog &monitored,
                               const ErrorLog &oracle,
                               unsigned granularity = 8);

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_REPORT_HPP
