/**
 * @file
 * The sliding-window schedule of butterfly analysis (paper Sections 4.2-4.3).
 *
 * Butterfly analysis processes a trace as a pipeline of 3-epoch windows.
 * When the events of epoch l have been fully received:
 *
 *   step 1  pass 1 runs on every block (l, t): local dataflow using the
 *           LSOS, producing the block's side-out summaries;
 *   step 2  summaries from the wings of each body block in epoch l-1 are
 *           met (all pass-1 summaries for epochs l-2..l now exist);
 *   step 3  pass 2 runs on every block (l-1, t), repeating the analysis
 *           with wing state and performing the lifeguard's checks;
 *   step 4  epoch l-1's summary (GEN_l-1 / KILL_l-1) updates the SOS.
 *
 * The WindowSchedule drives an AnalysisDriver through exactly this order
 * with one step loop on the calling thread, over either of two block
 * sources: run() reads a materialized EpochLayout (the reference loop,
 * and the monitoring service, whose sessions are decoded straight into
 * one), runPipelined() admits epochs from a streaming EpochStream and
 * retires each once it is settled, keeping O(window) epochs resident.
 * Parallelism lives above the schedule: the service runs many sessions'
 * loops on its workers at once. The paper's observation that blocks
 * within a pass touch disjoint state still holds for every driver; the
 * cycle model in sim/lba prices what a per-block parallel schedule would
 * gain on the paper's hardware.
 */

#ifndef BUTTERFLY_BUTTERFLY_WINDOW_HPP
#define BUTTERFLY_BUTTERFLY_WINDOW_HPP

#include <cstddef>

#include "trace/epoch_slicer.hpp"

namespace bfly {

class WorkerPool;

/**
 * Hooks a butterfly analysis implements; called by WindowSchedule.
 *
 * Threading contract: a schedule calls every hook of one driver on one
 * thread, one call after another, so a driver needs no locks of its
 * own. Separate drivers (the service's concurrent sessions) run on
 * different threads at once and must share no mutable state.
 */
class AnalysisDriver
{
  public:
    virtual ~AnalysisDriver() = default;

    /**
     * Step 1: local analysis of block (l, t). The driver computes GEN/KILL
     * and its side-out summaries and may perform LSOS-based local checks.
     */
    virtual void pass1(const BlockView &block) = 0;

    /**
     * Steps 2+3: wing summaries for body block (l, t) are complete; meet
     * them and re-run the analysis with wing state, performing checks.
     */
    virtual void pass2(const BlockView &block) = 0;

    /**
     * Step 4: all blocks of epoch l have finished pass 2; fold the epoch
     * summary into the SOS (single-writer).
     */
    virtual void finalizeEpoch(EpochId l) = 0;

    /**
     * Called immediately before the blocks of a pass over epoch @p l
     * run (@p second selects pass 2). Drivers that grow per-epoch
     * containers lazily (e.g. the block vectors in reaching_defs)
     * override this to size them once per pass instead of per block.
     */
    virtual void beginPass(EpochId l, bool second)
    {
        (void)l;
        (void)second;
    }

    /**
     * No-op. Every driver has exactly one pass-1 kernel; this hook stays
     * only because the service benchmark's traced driver
     * (perfbench/replay.cpp) overrides it. Remove it together with that
     * override in the next change to the benchmark.
     */
    virtual void setBatchMode(bool enabled) { (void)enabled; }

    /**
     * Whether finalizeEpoch(l) must wait for pass 2 of epoch l. True
     * (the default) whenever pass 2 reads SOS state that finalizeEpoch
     * advances, or finalizeEpoch reads pass-2 results (TAINTCHECK does
     * both). Drivers whose pass 2 and finalizeEpoch consume only pass-1
     * summaries (ADDRCHECK) return false. The step loop honors both
     * orders by construction; the flag sets which dependency graph the
     * cycle model of the paper's hardware prices (sim/lba,
     * harness/perf_model).
     */
    virtual bool finalizeAfterPass2() const { return true; }

    /**
     * No longer consulted: the step loop always runs pass 1 of epoch
     * l+1 before pass 2 of epoch l. It stays only because the service
     * benchmark's traced driver (perfbench/replay.cpp) overrides it.
     * Remove it together with that override in the next change to the
     * benchmark.
     */
    virtual bool pass2ReadsOwnNextPass1() const { return false; }
};

/** Observability counters from one streamed run. */
struct PipelineStats
{
    std::size_t tasksRun = 0;         ///< block passes and finalizes run
    std::size_t epochsFinalized = 0;  ///< finalizeEpoch calls
    /** High-water mark of simultaneously resident epochs. */
    std::size_t peakResidentEpochs = 0;
    /** Producer stalls recorded by the stream's back-pressure buffer. */
    std::uint64_t producerStalls = 0;
};

/** Drives an AnalysisDriver over a trace in butterfly window order. */
class WindowSchedule
{
  public:
    WindowSchedule() = default;

    /**
     * The same, with both arguments ignored. It stays only because the
     * service benchmark (perfbench/replay.cpp) constructs
     * WindowSchedule(true, &pool); remove it together with that call in
     * the next change to the benchmark.
     */
    WindowSchedule(bool ignored, WorkerPool *pool)
    {
        (void)ignored;
        (void)pool;
    }

    /**
     * Process the whole layout on the calling thread, one block after
     * another, in exactly the paper's window order.
     */
    void run(const EpochLayout &layout, AnalysisDriver &driver) const;

    /**
     * The same step loop over a streaming source: step l acquires epoch
     * l, runs its pass 1, then pass 2 and finalize of epoch l-1, and
     * retires l-1 — so at most two epochs are resident, however long
     * the trace. Bit-identical to run() over the same epochs for any
     * driver (DESIGN.md "Step loop").
     */
    PipelineStats runPipelined(EpochStream &stream,
                               AnalysisDriver &driver) const;
};

} // namespace bfly

#endif // BUTTERFLY_BUTTERFLY_WINDOW_HPP
