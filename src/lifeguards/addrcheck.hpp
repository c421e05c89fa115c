/**
 * @file
 * ADDRCHECK: the memory-allocation-checking lifeguard (paper Section 6.1).
 *
 * ADDRCHECK verifies that every access touches allocated memory, frees only
 * allocated memory, and allocations target unallocated memory. The
 * butterfly adaptation instantiates reaching *expressions* with the fact
 * "address x is allocated": allocation generates, deallocation kills. The
 * checking algorithm has two parts:
 *
 *   pass 1 (local): every access/free must find its address allocated in
 *   the LSOS at that instruction; every alloc must find it unallocated;
 *
 *   pass 2 (isolation): every alloc/free must be isolated from concurrent
 *   (wings) allocs/frees *and* accesses of the same address, and every
 *   access isolated from concurrent allocs/frees — a metadata state change
 *   racing with any operation on the address is flagged.
 *
 * The oracle in addrcheck_oracle.hpp replays the true interleaving and
 * provides ground truth; Theorem 6.1 (zero false negatives) is checked in
 * the test suite against both SC and TSO executions.
 *
 * Thread safety: pass1/pass2 may be invoked concurrently for different
 * blocks (the paper's parallel lifeguard cores). Per-block state is disjoint;
 * shared state (error log, counters) is committed once per block under a
 * mutex. finalizeEpoch is single-writer by design.
 */

#ifndef BUTTERFLY_LIFEGUARDS_ADDRCHECK_HPP
#define BUTTERFLY_LIFEGUARDS_ADDRCHECK_HPP

#include <array>
#include <bit>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/interval_set.hpp"
#include "butterfly/window.hpp"
#include "lifeguards/report.hpp"

namespace bfly {

/** Configuration shared by the butterfly lifeguard and the oracle. */
struct AddrCheckConfig
{
    /** Metadata granularity in bytes (1 = per-byte, 8 = per-word). */
    unsigned granularity = 8;
    /** Monitored address window (heap-only monitoring, as in Section 7.1:
     *  "we filter out stack accesses"). Events outside are ignored. */
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;

    Addr
    keyOf(Addr addr) const
    {
        // Granularities are powers of two in practice: shift rather than
        // pay a 64-bit divide on every operand of the hot loops.
        if ((granularity & (granularity - 1)) == 0)
            return addr >> std::countr_zero(granularity);
        return addr / granularity;
    }

    bool
    monitored(Addr addr) const
    {
        return addr >= heapBase && addr < heapLimit;
    }

    /**
     * The metadata keys an operation of @p size bytes at @p base
     * touches (keyRunOf: saturating at the top of the address space),
     * or nothing if it has no address or starts outside the monitored
     * window. Shared by the butterfly lifeguard and the oracle.
     */
    std::optional<KeyRun>
    keysOf(Addr base, std::uint16_t size) const
    {
        if (base == kNoAddr || !monitored(base))
            return std::nullopt;
        return keyRunOf(base, size, [this](Addr a) { return keyOf(a); });
    }
};

/** Butterfly-analysis ADDRCHECK. Drive with WindowSchedule. */
class ButterflyAddrCheck : public AnalysisDriver
{
  public:
    /** Streaming-friendly: the driver only needs the thread count (block
     *  identities come from BlockView::first), so it can run over an
     *  EpochStream without ever materializing a layout. */
    ButterflyAddrCheck(std::size_t num_threads,
                       const AddrCheckConfig &config);
    ButterflyAddrCheck(const EpochLayout &layout,
                       const AddrCheckConfig &config)
        : ButterflyAddrCheck(layout.numThreads(), config)
    {}

    // AnalysisDriver hooks.
    void pass1(const BlockView &block) override;
    void pass2(const BlockView &block) override;
    void finalizeEpoch(EpochId l) override;

    /**
     * ADDRCHECK's pass 2 and finalize consume only pass-1 summaries —
     * never the SOS that finalize advances, nor pass-2 results — so a
     * parallel schedule may run them relaxed: finalizeEpoch(l) does not
     * gate pass 2 of epoch l (the cycle model prices this).
     */
    bool finalizeAfterPass2() const override { return false; }

    /** All flagged events (one record per event). */
    const ErrorLog &errors() const { return errors_; }

    /** Current SOS: keys believed allocated 2+ epochs ago. */
    const IntervalSet &sosNow() const { return sos_; }

    /** Metadata checks performed (cost-model feed). */
    std::uint64_t eventsChecked() const { return eventsChecked_; }
    std::uint64_t isolationViolations() const { return isolationViol_; }

    /** Newly-flagged events attributed to block (l, t). */
    std::uint64_t errorsInBlock(EpochId l, ThreadId t) const;

    /** |GEN| + |KILL| + |ACCESS| of block (l, t)'s pass-1 summary, in
     *  keys — the meet cost the performance model (harness/perf_model)
     *  charges per wing block. The summaries are held as key runs and
     *  pass 2 probes them in place, one range query per event and wing
     *  set, so neither its cost nor the memory held is this number. */
    std::uint64_t summarySize(EpochId l, ThreadId t) const;

    /** |GEN_l| + |KILL_l|: elements folded into the SOS for epoch l. */
    std::uint64_t sosUpdateWork(EpochId l) const;

  private:
    static constexpr std::size_t kWindow = 4; ///< ring depth (epochs)

    /** Per-block pass-1 summary s_{l,t}, as key-run sets. */
    struct BlockSummary
    {
        IntervalSet genEnd;   ///< allocated at block end (net)
        IntervalSet killEnd;  ///< freed at block end (net)
        IntervalSet allocAny; ///< allocated anywhere in the block
        IntervalSet freeAny;  ///< freed anywhere in the block
        IntervalSet access;   ///< ACCESS_{l,t}: keys read or written
        EpochId epoch = kNoEpoch;
    };

    static std::uint64_t
    blockKey(EpochId l, ThreadId t)
    {
        return (l << 32) | t; // ThreadId is 32-bit: no (l, t) collides
    }

    /** Empty the ring slot of block (l, t) for its pass 1. */
    BlockSummary &resetSlot(EpochId l, ThreadId t);
    const BlockSummary *slotIfValid(EpochId l, ThreadId t) const;

    /** Commit a block's locally-collected reports under the mutex;
     *  @p pass2_skipped marks a pass-2 block that could flag nothing. */
    void commitBlock(EpochId l, ThreadId t,
                     const std::vector<ErrorRecord> &local_errors,
                     std::uint64_t checks, std::uint64_t isolation,
                     bool pass2_skipped);

    /** Allocation state of one block during its pass 1 (see .cpp). */
    class LocalState;

    AddrCheckConfig config_;

    /** Ring of per-epoch, per-thread summaries. */
    std::vector<std::array<BlockSummary, kWindow>> summaries_; ///< [t]

    IntervalSet sos_; ///< single-writer SOS, advanced in finalizeEpoch

    std::mutex mutex_; ///< guards the shared members below
    ErrorLog errors_;
    std::unordered_map<std::uint64_t, std::uint64_t> errorsPerBlock_;
    std::unordered_map<std::uint64_t, std::uint64_t> summarySizes_;
    std::unordered_map<EpochId, std::uint64_t> sosWork_;
    std::uint64_t eventsChecked_ = 0;
    std::uint64_t isolationViol_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_LIFEGUARDS_ADDRCHECK_HPP
