/**
 * @file
 * Slicing per-thread traces into heartbeat-delimited epochs.
 *
 * An epoch l contains one block per thread (paper Section 4.1, Figure 6).
 * Blocks within an epoch need not contain the same number of instructions —
 * the heartbeat only bounds them in time — and a thread may contribute an
 * empty block to an epoch. The slicer supports:
 *
 *  - heartbeat mode: cut wherever the logging platform inserted Heartbeat
 *    markers (the LBA prototype's mechanism), and
 *  - uniform mode: cut every h instructions, used when a trace was produced
 *    without embedded markers.
 *
 * Two consumers exist for the epoch structure: EpochLayout holds the
 * whole trace (oracles, the perf model, the reference loop and the
 * monitoring service, which decodes a session's log straight into the
 * layout's storage through HeartbeatBlocks), while EpochStream slices
 * the same boundaries incrementally into a bounded ring so a streamed
 * run keeps only O(window) epochs of events resident no matter how long
 * the trace is.
 */

#ifndef BUTTERFLY_TRACE_EPOCH_SLICER_HPP
#define BUTTERFLY_TRACE_EPOCH_SLICER_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "trace/log_buffer.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** A block (l, t): a read-only view of one thread's events in one epoch. */
struct BlockView
{
    EpochId epoch = 0;
    ThreadId thread = 0;
    std::span<const Event> events;
    /**
     * Per-thread index (heartbeats excluded) of events[0] in the
     * thread's full filtered stream: instruction i of this block has the
     * stable identity first + i, matching EpochLayout::globalIndex.
     * Carried in the view so lifeguards work identically over
     * materialized layouts and streamed (ring-resident) blocks.
     */
    std::size_t first = 0;

    std::size_t size() const { return events.size(); }
    bool empty() const { return events.empty(); }
};

/**
 * Decides, for the analyzed epoch whose first source epoch is @p leader,
 * how many consecutive source epochs to merge into it (adaptive epoch
 * sizing). @p epoch_events holds the per-source-epoch event counts
 * (summed over threads) so size-targeting policies can look ahead.
 * Return values are clamped to [1, epoch_events.size() - leader]; the
 * policy is consulted once per group, in leader order (EpochLayout::
 * adopt) — each call may sample live telemetry, so the realized slicing
 * can vary group by group within one session.
 */
using ReslicePolicy = std::function<std::size_t(
    EpochId leader, std::span<const std::size_t> epoch_events)>;

/**
 * One thread's log cut at its Heartbeat markers as the events arrive:
 * each marker closes a block, every other event is kept. This is the one
 * heartbeat slicer. EpochLayout::fromHeartbeats feeds whole traces
 * through it, and the monitoring service's decoder feeds it straight
 * from the wire (ChunkedLogDecoder::decodeChunk), after which
 * EpochLayout::adopt takes the storage over without a copy.
 */
struct HeartbeatBlocks
{
    /** The thread's events, heartbeats excluded. */
    std::vector<Event> events;
    /** starts[l] = index in events of block l's first event; the last
     *  block stays open until the layout adopts the thread. */
    std::vector<std::size_t> starts{0};
    /** SiteSummary events among events (the service echoes the count). */
    std::uint64_t summaries = 0;

    void
    push(const Event &e)
    {
        if (e.kind == EventKind::Heartbeat) {
            starts.push_back(events.size());
            return;
        }
        summaries += e.kind == EventKind::SiteSummary;
        if (events.size() == events.capacity())
            grow();
        events.push_back(e);
    }

  private:
    /**
     * Grow by half rather than the library's doubling. The service hands
     * a finished session's vectors to the next session (SessionMux), so
     * a vector's capacity settles at the first step above the largest
     * thread log it has held, and recycled capacity beyond the events
     * counts against the mux's cap: at most half the events here (past
     * the first 1,024 slots), as much again with doubling.
     */
    void
    grow()
    {
        events.reserve(std::max<std::size_t>(
            1024, events.capacity() + events.capacity() / 2));
    }
};

/**
 * The epoch structure of a trace: for each thread, where each epoch's block
 * begins and ends. All threads are padded to the same epoch count.
 */
class EpochLayout
{
  public:
    /** Slice at embedded Heartbeat markers. */
    static EpochLayout fromHeartbeats(const Trace &trace);

    /** Slice every @p h non-heartbeat instructions per thread. */
    static EpochLayout uniform(const Trace &trace, std::size_t h);

    /**
     * Slice by *global* execution progress: an event whose gseq falls in
     * [k*H, (k+1)*H) lands in epoch k (clamped to be non-decreasing along
     * each thread so blocks stay contiguous under relaxed visibility).
     *
     * This models time-based heartbeats delivered to all cores: a thread
     * stalled at a barrier contributes empty blocks while others advance,
     * and the butterfly premise — everything in epoch l is globally
     * visible before anything in epoch l+2 executes — holds by
     * construction for any interleaving, provided per-thread visibility
     * reordering (store-buffer drift) is smaller than @p global_h.
     *
     * @param global_h  events per epoch across all threads (the paper
     *                  issues heartbeats after h*n instructions total)
     */
    static EpochLayout byGlobalSeq(const Trace &trace,
                                   std::size_t global_h);

    /**
     * Like byGlobalSeq, but each thread receives each heartbeat with an
     * independent random delay of up to @p max_skew global events —
     * the paper's delivery model (Section 4.1): heartbeats need not
     * arrive simultaneously, and an instruction an instantaneous
     * heartbeat would place in epoch l may land in l-1, l or l+1. The
     * butterfly guarantees must survive any skew below one epoch minus
     * the visibility-reordering window; the test suite checks zero
     * false negatives under this slicing.
     *
     * @pre max_skew < global_h (the paper sizes epochs to cover skew)
     */
    static EpochLayout byGlobalSeqSkewed(const Trace &trace,
                                         std::size_t global_h,
                                         std::size_t max_skew,
                                         std::uint64_t seed);

    /**
     * The heartbeat slicing of @p trace coarsened by @p spans: analyzed
     * epoch i merges spans[i] consecutive source (marker-delimited)
     * epochs, so sum(spans) must equal the marker epoch count. This is
     * the reference layout for an adaptive session: rebuilding it from
     * the spans adopt() realized yields the exact boundary table the
     * server analyzed, making remote and reference reports
     * bit-identical by construction. Merging markers only coarsens the
     * epoch structure (equivalent to the platform skipping heartbeats),
     * which is the butterfly's conservative direction — a merged
     * slicing can never introduce false negatives.
     */
    static EpochLayout
    coalescedFromHeartbeats(const Trace &trace,
                            std::span<const std::uint32_t> spans);

    /**
     * The layout of per-thread blocks sliced as they were decoded
     * (thread t gets tid t), taking their storage over without a copy.
     * With @p reslice, source epochs are merged group by group and
     * @p realized_spans (if non-null) receives the merge widths, so
     * coalescedFromHeartbeats of the marked trace rebuilds the same
     * layout.
     */
    static EpochLayout
    adopt(std::vector<HeartbeatBlocks> threads,
          const ReslicePolicy &reslice = {},
          std::vector<std::uint32_t> *realized_spans = nullptr);

    std::size_t numEpochs() const { return numEpochs_; }
    std::size_t numThreads() const { return starts_.size(); }

    /** Events over all threads, heartbeats excluded. */
    std::size_t instructionCount() const;

    /** The block (l, t). Heartbeat markers are excluded from the view. */
    BlockView block(EpochId l, ThreadId t) const;

    /**
     * Per-thread instruction index (heartbeats excluded) of instruction
     * (l, t, i) — the stable identity used to match butterfly-flagged
     * events against oracle-flagged events.
     */
    std::size_t
    globalIndex(EpochId l, ThreadId t, InstrOffset i) const
    {
        return starts_[t][l] + i;
    }

    /**
     * The per-thread event vectors, handed back out so their capacity
     * can take the next session's events (BlockIngest); the layout is
     * spent afterwards.
     */
    std::vector<std::vector<Event>>
    releaseEvents() &&
    {
        return std::move(filtered_);
    }

  private:
    /** Copies @p trace's events, heartbeats excluded, under @p starts. */
    EpochLayout(const Trace &trace, std::size_t num_epochs,
                std::vector<std::vector<std::size_t>> starts);
    EpochLayout(std::vector<ThreadId> tids,
                std::vector<HeartbeatBlocks> threads);

    /** Merge consecutive source epochs: epoch i becomes spans[i] of them. */
    void coalesce(std::span<const std::uint32_t> spans);

    std::size_t numEpochs_ = 0;
    /** starts_[t][l] = index of block (l,t)'s first event in filtered_[t]. */
    std::vector<std::vector<std::size_t>> starts_;
    /** Per-thread events with heartbeats stripped. */
    std::vector<std::vector<Event>> filtered_;
    std::vector<ThreadId> tids_;
};

/**
 * Streaming counterpart of EpochLayout::byGlobalSeq: identical epoch
 * boundaries (one cheap boundary pre-pass over the trace, O(epochs)
 * index memory), but event payloads are copied into a bounded ring only
 * when an epoch is acquired and freed when it is retired — resident
 * event memory is O(windowEpochs), independent of trace length.
 *
 * WindowSchedule::runPipelined acquires epoch l, runs its pass 1, settles
 * epoch l-1 and retires it, so at most two epochs are resident at once.
 * An optional LogBuffer models the back-pressure the bounded window
 * exerts on the logging platform: each event of an epoch is produced
 * into the buffer before admission and consumed at admission, so epochs
 * larger than the buffer surface producer stalls exactly where the LBA
 * hardware would stall the application core.
 *
 * acquire() and retire() calls must each be in epoch order.
 */
class EpochStream
{
  public:
    struct Config
    {
        /** Events per epoch across all threads (byGlobalSeq's H).
         *  Ignored when fromHeartbeats is set. */
        std::size_t globalH = 0;
        /** Ring capacity in epochs; >= 4 (the butterfly needs the body
         *  epoch, both wings, and the epoch being admitted). */
        std::size_t windowEpochs = 4;
        /** Optional occupancy model for admission back-pressure. */
        LogBuffer *backPressure = nullptr;
        /**
         * Cut at embedded Heartbeat markers instead of gseq buckets —
         * the same boundaries as EpochLayout::fromHeartbeats. This is
         * the only mode available to the monitoring service: logs that
         * crossed the wire carry no gseq (the codec drops execution
         * metadata), so the epoch structure must come from the markers
         * the logging platform embedded.
         */
        bool fromHeartbeats = false;
    };

    EpochStream(const Trace &trace, Config config);

    std::size_t numEpochs() const { return numEpochs_; }
    std::size_t numThreads() const { return starts_.size(); }
    std::size_t windowEpochs() const { return cells_.size(); }

    /** Slice epoch l's events into the ring. @pre l is the next
     *  unacquired epoch and fewer than windowEpochs epochs are resident. */
    void acquire(EpochId l);

    /** The block (l, t) of a currently resident epoch. */
    BlockView block(EpochId l, ThreadId t) const;

    /** Release epoch l's ring cell. @pre l is the oldest resident epoch. */
    void retire(EpochId l);

    std::size_t residentEpochs() const { return resident_; }

    /** High-water mark of simultaneously resident epochs. */
    std::size_t peakResidentEpochs() const { return peakResident_; }

    /** Producer stalls recorded in the back-pressure buffer (0 if none). */
    std::uint64_t producerStalls() const;

  private:
    /** Ring cell holding one resident epoch's per-thread events. */
    struct Cell
    {
        EpochId epoch = kNoEpoch;
        std::vector<std::vector<Event>> events; ///< [t]
        std::vector<std::size_t> first;         ///< [t] filtered offset
    };

    Cell &cellOf(EpochId l) { return cells_[l % cells_.size()]; }
    const Cell &cellOf(EpochId l) const { return cells_[l % cells_.size()]; }

    const Trace &trace_;
    std::size_t numEpochs_ = 0;
    /** Same boundary table as EpochLayout::byGlobalSeq. */
    std::vector<std::vector<std::size_t>> starts_;
    std::vector<ThreadId> tids_;
    std::vector<Cell> cells_;

    // Per-thread streaming cursors (advanced only by in-order acquire).
    std::vector<std::size_t> rawPos_;     ///< index into raw events
    std::vector<std::size_t> filteredPos_; ///< non-heartbeat events passed
    EpochId nextAcquire_ = 0;
    EpochId nextRetire_ = 0;

    std::size_t resident_ = 0;
    std::size_t peakResident_ = 0;
    LogBuffer *backPressure_ = nullptr;
};

} // namespace bfly

#endif // BUTTERFLY_TRACE_EPOCH_SLICER_HPP
