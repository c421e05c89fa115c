/**
 * @file
 * The streamed window schedule (the step loop over an EpochStream):
 * determinism against the reference loop for every lifeguard, the
 * streaming epoch source's equivalence with the materialized layout, the
 * bounded residency guarantee, and the worker pool's task protocol that
 * the monitoring service runs its sessions on.
 */

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "harness/session.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrleak.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/lockset.hpp"
#include "lifeguards/taintcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "sim/lba.hpp"
#include "trace/log_buffer.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

// --------------------------------------------------------------------
// WorkerPool task protocol (what the service runs sessions on).
// --------------------------------------------------------------------

TEST(WorkerPoolTasks, RunsEverySubmittedTask)
{
    WorkerPool pool(3);
    TaskGroup group;
    const std::size_t n = 128;
    std::vector<std::atomic<int>> counts(n);
    struct Ctx
    {
        std::vector<std::atomic<int>> *counts;
    } ctx{&counts};
    for (std::size_t i = 0; i < n; ++i)
        pool.submitTask(
            group,
            [](void *c, std::size_t i) {
                (*static_cast<Ctx *>(c)->counts)[i].fetch_add(
                    1, std::memory_order_relaxed);
            },
            &ctx, i);
    pool.waitGroup(group);
    EXPECT_EQ(group.outstanding(), 0u);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "task " << i;
}

TEST(WorkerPoolTasks, TasksMaySubmitTasks)
{
    // A binary fan-out submitted from inside task bodies: waitGroup must
    // not return until the transitively spawned frontier drains.
    WorkerPool pool(2);
    struct Ctx
    {
        WorkerPool *pool;
        TaskGroup group;
        std::atomic<std::size_t> ran{0};
        static void
        step(void *c, std::size_t depth)
        {
            auto *ctx = static_cast<Ctx *>(c);
            ctx->ran.fetch_add(1, std::memory_order_relaxed);
            if (depth == 0)
                return;
            ctx->pool->submitTask(ctx->group, &Ctx::step, ctx, depth - 1);
            ctx->pool->submitTask(ctx->group, &Ctx::step, ctx, depth - 1);
        }
    } ctx{&pool};
    pool.submitTask(ctx.group, &Ctx::step, &ctx, 7);
    pool.waitGroup(ctx.group);
    // A full binary tree of depth 7: 2^8 - 1 nodes.
    EXPECT_EQ(ctx.ran.load(), 255u);
}

TEST(WorkerPoolTasks, WaitOnEmptyGroupReturns)
{
    WorkerPool pool(2);
    TaskGroup group;
    pool.waitGroup(group); // must not hang
    SUCCEED();
}

TEST(WorkerPoolTasks, PoolReusableAcrossTaskRounds)
{
    WorkerPool pool(2);
    TaskGroup group;
    std::atomic<int> count{0};
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 5; ++i)
            pool.submitTask(
                group,
                [](void *c, std::size_t) {
                    static_cast<std::atomic<int> *>(c)->fetch_add(
                        1, std::memory_order_relaxed);
                },
                &count, 0);
        pool.waitGroup(group);
    }
    EXPECT_EQ(count.load(), 250);
}

TEST(WorkerPool, SizeReportsThreadCount)
{
    WorkerPool pool(3);
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(pool.size(), pool.workers());
}

TEST(WorkerPoolDeath, ZeroThreadConstructionIsRejected)
{
    EXPECT_DEATH(WorkerPool pool(0), "at least one thread");
}

// --------------------------------------------------------------------
// Helpers shared with the pool-determinism suite.
// --------------------------------------------------------------------

std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int, std::uint16_t>>
sortedRecords(const ErrorLog &log)
{
    std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int,
                           std::uint16_t>>
        out;
    out.reserve(log.size());
    for (const ErrorRecord &r : log.records())
        out.emplace_back(r.tid, r.index, r.addr, static_cast<int>(r.kind),
                         r.size);
    std::sort(out.begin(), out.end());
    return out;
}

Trace
mixTrace(std::uint64_t seed, Workload &w_out)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 2000;
    wcfg.seed = seed;
    w_out = makeRandomMix(wcfg);
    Rng rng(seed * 977 + 5);
    return interleave(w_out.programs, InterleaveConfig{}, rng);
}

// --------------------------------------------------------------------
// Streamed == reference, for every lifeguard. The stream admits and
// retires epochs around the steps; the analysis results may not change
// at all.
// --------------------------------------------------------------------

/** One input trace with the epoch size and heap window to run it at. */
struct DeterminismInput
{
    std::string name;
    Trace trace;
    std::size_t globalH = 0;
    Addr heapBase = 0;
    Addr heapLimit = kNoAddr;
};

/** Everything a lifeguard exposes that a schedule could perturb. */
struct Observed
{
    std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int,
                           std::uint16_t>>
        records;
    std::vector<Addr> sos;
    /** Counters and, for reaching definitions, every dataflow set. */
    std::vector<std::uint64_t> extra;

    bool operator==(const Observed &) const = default;
};

/** Drives a lifeguard with one of the two schedules. */
using Schedule = std::function<void(AnalysisDriver &)>;

/** One row of the lifeguard table: build the driver, schedule it, and
 *  collect what it observed. */
struct LifeguardRow
{
    const char *name;
    Observed (*run)(const DeterminismInput &in, std::size_t epochs,
                    const Schedule &schedule);
};

const LifeguardRow kLifeguardRows[] = {
    {"ADDRCHECK",
     [](const DeterminismInput &in, std::size_t, const Schedule &run) {
         AddrCheckConfig cfg;
         cfg.heapBase = in.heapBase;
         cfg.heapLimit = in.heapLimit;
         ButterflyAddrCheck d(in.trace.numThreads(), cfg);
         run(d);
         return Observed{sortedRecords(d.errors()), d.sosNow().sorted(),
                         {d.eventsChecked(), d.isolationViolations()}};
     }},
    {"TAINTCHECK",
     [](const DeterminismInput &in, std::size_t, const Schedule &run) {
         ButterflyTaintCheck d(in.trace.numThreads(), TaintCheckConfig{});
         run(d);
         return Observed{sortedRecords(d.errors()), d.sosNow().sorted(),
                         {d.checksResolved()}};
     }},
    {"DEFINEDCHECK",
     [](const DeterminismInput &in, std::size_t, const Schedule &run) {
         DefCheckConfig cfg;
         cfg.heapBase = in.heapBase;
         cfg.heapLimit = in.heapLimit;
         ButterflyDefCheck d(in.trace.numThreads(), cfg);
         run(d);
         return Observed{sortedRecords(d.errors()), {}, {}};
     }},
    {"REACHING-DEFS",
     [](const DeterminismInput &in, std::size_t epochs,
        const Schedule &run) {
         const std::size_t T = in.trace.numThreads();
         ReachingDefinitions d(T);
         run(d);
         Observed o;
         auto put = [&o](const auto &set) {
             const auto keys = set.sorted();
             o.extra.push_back(keys.size());
             o.extra.insert(o.extra.end(), keys.begin(), keys.end());
         };
         for (EpochId l = 0; l < epochs; ++l) {
             put(d.sos(l));
             put(d.genEpoch(l));
             for (ThreadId t = 0; t < T; ++t) {
                 put(d.blockResults(l, t).in);
                 put(d.blockResults(l, t).out);
             }
         }
         return o;
     }},
    {"LOCKSET",
     [](const DeterminismInput &in, std::size_t, const Schedule &run) {
         LockSetConfig cfg;
         cfg.heapBase = in.heapBase;
         cfg.heapLimit = in.heapLimit;
         ButterflyLockSet d(in.trace.numThreads(), cfg);
         run(d);
         return Observed{sortedRecords(d.errors()), {}, {}};
     }},
    {"ADDRLEAK",
     [](const DeterminismInput &in, std::size_t, const Schedule &run) {
         AddrLeakConfig cfg;
         cfg.heapBase = in.heapBase;
         cfg.heapLimit = in.heapLimit;
         ButterflyAddrLeak d(in.trace.numThreads(), cfg);
         run(d);
         return Observed{sortedRecords(d.errors()), d.sosNow().sorted(),
                         {}};
     }},
};

/** Workload traces plus fuzzer cases, which are the only source of the
 *  Lock/Unlock and Output events LOCKSET and ADDRLEAK react to. */
std::vector<DeterminismInput>
determinismInputs()
{
    std::vector<DeterminismInput> inputs;
    for (std::uint64_t seed : {11u, 22u}) {
        Workload w;
        Trace trace = mixTrace(seed, w);
        inputs.push_back({"random-mix/" + std::to_string(seed),
                          std::move(trace), 512, w.heapBase, w.heapLimit});
    }
    {
        WorkloadConfig wcfg;
        wcfg.numThreads = 3;
        wcfg.instrPerThread = 600;
        wcfg.seed = 5;
        Workload w = makeTaintMix(wcfg);
        Rng bug_rng(5 ^ 0xf00d);
        injectBugs(w, BugKind::TaintedJump, 3, bug_rng);
        Rng rng(5 * 131 + 17);
        inputs.push_back({"taint-mix/5",
                          interleave(w.programs, InterleaveConfig{}, rng),
                          240, w.heapBase, w.heapLimit});
    }
    fuzz::FuzzerConfig fcfg;
    fcfg.seed = 2026;
    const fuzz::TraceFuzzer fuzzer(fcfg);
    for (std::uint64_t i = 0; i < 24; ++i) {
        const fuzz::FuzzCase c = fuzzer.generate(i);
        inputs.push_back({"fuzz/" + c.scenario + "/" + std::to_string(i),
                          c.materialize(), c.globalH, c.heapBase,
                          c.heapLimit});
    }
    return inputs;
}

const std::vector<DeterminismInput> &
sharedInputs()
{
    static const std::vector<DeterminismInput> inputs = determinismInputs();
    return inputs;
}

const LifeguardRow &
rowNamed(std::string_view name)
{
    for (const LifeguardRow &row : kLifeguardRows)
        if (row.name == name)
            return row;
    ADD_FAILURE() << "no lifeguard row " << name;
    return kLifeguardRows[0];
}

/**
 * Run @p lg over every input with the reference loop and with the
 * streamed loop; every streamed run must observe exactly what the
 * reference did.
 */
void
expectPipelinedMatchesReference(const LifeguardRow &lg)
{
    std::size_t flagged = 0;
    for (const DeterminismInput &in : sharedInputs()) {
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(in.trace, in.globalH);
        const std::size_t L = layout.numEpochs();
        const Observed reference = lg.run(
            in, L, [&](AnalysisDriver &d) { WindowSchedule().run(layout, d); });
        flagged += reference.records.size();
        EpochStream stream(in.trace,
                           EpochStream::Config{in.globalH, 4, nullptr});
        PipelineStats stats;
        const Observed pipelined =
            lg.run(in, L, [&](AnalysisDriver &d) {
                stats = WindowSchedule().runPipelined(stream, d);
            });
        EXPECT_TRUE(reference == pipelined) << lg.name << " on " << in.name;
        EXPECT_EQ(stats.epochsFinalized, L) << lg.name << " on " << in.name;
        EXPECT_EQ(stream.residentEpochs(), 0u);
    }
    // Every error-reporting lifeguard must actually flag something on
    // these inputs, or its row compares two empty reports.
    if (std::string_view(lg.name) != "REACHING-DEFS") {
        EXPECT_GT(flagged, 0u) << lg.name;
    }
}

TEST(PipelineDeterminism, AddrCheckMatchesSequentialAcrossSeeds)
{
    expectPipelinedMatchesReference(rowNamed("ADDRCHECK"));
}

TEST(PipelineDeterminism, TaintCheckMatchesSequentialAcrossSeeds)
{
    expectPipelinedMatchesReference(rowNamed("TAINTCHECK"));
}

TEST(PipelineDeterminism, DefCheckMatchesSequentialAcrossSeeds)
{
    expectPipelinedMatchesReference(rowNamed("DEFINEDCHECK"));
}

TEST(PipelineDeterminism, ReachingDefsMatchesSequentialAcrossSeeds)
{
    expectPipelinedMatchesReference(rowNamed("REACHING-DEFS"));
}

TEST(PipelineDeterminism, LockSetMatchesSequentialAcrossSeeds)
{
    expectPipelinedMatchesReference(rowNamed("LOCKSET"));
}

TEST(PipelineDeterminism, AddrLeakMatchesSequentialAcrossSeeds)
{
    expectPipelinedMatchesReference(rowNamed("ADDRLEAK"));
}

TEST(PipelineDeterminism, StepCountMatchesWindowShape)
{
    Workload w;
    const Trace trace = mixTrace(11, w);
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, 512);
    const std::size_t L = layout.numEpochs();
    const std::size_t T = layout.numThreads();
    ASSERT_GE(L, 2u);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;
    ButterflyAddrCheck pipe(layout, cfg);
    EpochStream stream(trace, EpochStream::Config{512, 4, nullptr});
    const PipelineStats stats =
        WindowSchedule().runPipelined(stream, pipe);

    // Pass 1 and pass 2 of every block, one finalize per epoch; epoch l
    // is admitted before l-1 retires, so two epochs are resident at peak.
    EXPECT_EQ(stats.tasksRun, 2 * L * T + L);
    EXPECT_EQ(stats.epochsFinalized, L);
    EXPECT_EQ(stats.peakResidentEpochs, 2u);
}

TEST(PipelineDeterminism, EmptyTraceIsANoOp)
{
    const Trace trace; // no threads at all
    EpochStream stream(trace, EpochStream::Config{64, 4, nullptr});
    AddrCheckConfig cfg;
    ButterflyAddrCheck pipe(stream.numThreads(), cfg);
    const PipelineStats stats = WindowSchedule().runPipelined(stream, pipe);
    EXPECT_EQ(stats.tasksRun, 0u);
    EXPECT_TRUE(pipe.errors().records().empty());
}

// --------------------------------------------------------------------
// EpochStream: same blocks as the materialized layout, bounded
// residency, back-pressure accounting.
// --------------------------------------------------------------------

TEST(EpochStream, BlocksMatchMaterializedLayout)
{
    Workload w;
    const Trace trace = mixTrace(22, w);
    const std::size_t H = 512;
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, H);

    EpochStream stream(trace, EpochStream::Config{H, 4, nullptr});
    ASSERT_EQ(stream.numEpochs(), layout.numEpochs());
    ASSERT_EQ(stream.numThreads(), layout.numThreads());

    const std::size_t L = layout.numEpochs();
    for (EpochId l = 0; l < L; ++l) {
        stream.acquire(l);
        for (ThreadId t = 0; t < layout.numThreads(); ++t) {
            const BlockView a = layout.block(l, t);
            const BlockView b = stream.block(l, t);
            ASSERT_EQ(a.size(), b.size()) << "l=" << l << " t=" << t;
            EXPECT_EQ(a.first, b.first) << "l=" << l << " t=" << t;
            EXPECT_EQ(a.epoch, b.epoch);
            EXPECT_EQ(a.thread, b.thread);
            for (std::size_t i = 0; i < a.size(); ++i) {
                EXPECT_EQ(a.events[i].kind, b.events[i].kind);
                EXPECT_EQ(a.events[i].addr, b.events[i].addr);
                EXPECT_EQ(a.events[i].gseq, b.events[i].gseq);
            }
        }
        if (l >= 3)
            stream.retire(l - 3);
    }
    while (stream.residentEpochs() > 0)
        stream.retire(L - stream.residentEpochs());
    EXPECT_LE(stream.peakResidentEpochs(), stream.windowEpochs());
}

TEST(EpochStream, PipelinedStreamingMatchesSequentialLayout)
{
    for (std::uint64_t seed : {11u, 33u}) {
        Workload w;
        const Trace trace = mixTrace(seed, w);
        const std::size_t H = 512;
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, H);

        AddrCheckConfig cfg;
        cfg.heapBase = w.heapBase;
        cfg.heapLimit = w.heapLimit;

        ButterflyAddrCheck seq(layout, cfg);
        WindowSchedule().run(layout, seq);

        EpochStream stream(trace, EpochStream::Config{H, 4, nullptr});
        ButterflyAddrCheck pipe(stream.numThreads(), cfg);
        const PipelineStats stats =
            WindowSchedule().runPipelined(stream, pipe);

        EXPECT_EQ(sortedRecords(seq.errors()),
                  sortedRecords(pipe.errors()))
            << "seed " << seed;
        EXPECT_EQ(seq.sosNow().sorted(), pipe.sosNow().sorted());

        // The whole point of streaming: bounded residency no matter how
        // long the trace is.
        EXPECT_GE(stats.peakResidentEpochs, 1u);
        EXPECT_LE(stats.peakResidentEpochs, stream.windowEpochs());
        EXPECT_EQ(stream.residentEpochs(), 0u)
            << "every epoch must be retired when the loop returns";
    }
}

TEST(EpochStream, StrictDriverStreamsToo)
{
    // TAINTCHECK keeps the strict finalize order; the streaming source
    // must still retire everything and agree with sequential.
    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 600;
    wcfg.seed = 5;
    Workload w = makeTaintMix(wcfg);
    Rng bug_rng(5 ^ 0xf00d);
    injectBugs(w, BugKind::TaintedJump, 3, bug_rng);
    Rng rng(5 * 131 + 17);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);

    const std::size_t H = 240;
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, H);
    TaintCheckConfig cfg;
    ButterflyTaintCheck seq(layout, cfg);
    WindowSchedule().run(layout, seq);

    EpochStream stream(trace, EpochStream::Config{H, 4, nullptr});
    ButterflyTaintCheck pipe(layout, cfg);
    const PipelineStats stats =
        WindowSchedule().runPipelined(stream, pipe);

    EXPECT_EQ(sortedRecords(seq.errors()), sortedRecords(pipe.errors()));
    EXPECT_LE(stats.peakResidentEpochs, stream.windowEpochs());
    EXPECT_EQ(stream.residentEpochs(), 0u);
}

TEST(EpochStream, BackPressureRecordsProducerStalls)
{
    Workload w;
    const Trace trace = mixTrace(33, w);
    // A buffer far smaller than one epoch: every admission overflows it,
    // so the model must record stalls the application core would take.
    LogBuffer buffer(/*capacity_bytes=*/64 * 16, /*record_bytes=*/16);
    EpochStream stream(trace, EpochStream::Config{512, 4, &buffer});

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;
    ButterflyAddrCheck pipe(stream.numThreads(), cfg);
    const PipelineStats stats =
        WindowSchedule().runPipelined(stream, pipe);

    EXPECT_GT(stats.producerStalls, 0u);
    EXPECT_EQ(stats.producerStalls, buffer.producerStalls());
}

// --------------------------------------------------------------------
// The timing models' accounting.
// --------------------------------------------------------------------

/** Rotating-straggler timing input (thread l % T heavy in epoch l). */
ButterflyTimingInput
skewedTiming(std::size_t T, std::size_t L)
{
    ButterflyTimingInput in;
    in.costs.assign(T, std::vector<EpochCosts>(L));
    in.sosUpdateCost.assign(L, 50);
    in.barrierCost = 200;
    for (std::size_t t = 0; t < T; ++t) {
        for (std::size_t l = 0; l < L; ++l) {
            const std::size_t n = (t == l % T) ? 512 : 64;
            in.costs[t][l].appCost.assign(n, 1);
            in.costs[t][l].pass1Cost.assign(n, 10);
            in.costs[t][l].pass2Cost = static_cast<Cycles>(n) * 8;
        }
    }
    return in;
}

TEST(TimingModel, BarrierStallBreakdownSumsToBarrierWait)
{
    const ButterflyTimingInput in = skewedTiming(4, 12);
    const TimingResult r = simulateButterfly(in);
    ASSERT_EQ(r.barrierStallPerBlock.size(), 4u);
    Cycles sum = 0;
    for (const auto &per_thread : r.barrierStallPerBlock) {
        ASSERT_EQ(per_thread.size(), 12u);
        for (Cycles c : per_thread)
            sum += c;
    }
    EXPECT_EQ(sum, r.barrierWaitCycles);
    EXPECT_GT(sum, 0u); // skewed input must show barrier stalls
}

TEST(TimingModel, PipelinedBeatsBarrierOnSkewedInput)
{
    for (std::size_t T : {2u, 4u, 8u}) {
        const ButterflyTimingInput in = skewedTiming(T, 16);
        const TimingResult barrier = simulateButterfly(in);
        const TimingResult relaxed =
            simulateButterflyPipelined(in, T, /*strict_finalize=*/false);
        const TimingResult strict =
            simulateButterflyPipelined(in, T, /*strict_finalize=*/true);

        // No barriers to cross: dependency scheduling can only remove
        // wait time, never add work.
        EXPECT_LT(relaxed.totalCycles, barrier.totalCycles) << "T=" << T;
        EXPECT_LE(relaxed.totalCycles, strict.totalCycles) << "T=" << T;
        // The acceptance bar: >= 1.2x at 8 threads on skewed epochs.
        if (T == 8) {
            EXPECT_GE(static_cast<double>(barrier.totalCycles),
                      1.2 * static_cast<double>(relaxed.totalCycles));
        }
    }
}

TEST(TimingModel, SessionPerfReportIncludesPipelinedMode)
{
    SessionConfig cfg;
    cfg.factory = makeRandomMix;
    cfg.workload.numThreads = 4;
    cfg.workload.instrPerThread = 2000;
    cfg.epochSize = 128;
    const SessionResult r = runSession(cfg);

    EXPECT_GT(r.perf.butterflyPipelined.timing.totalCycles, 0u);
    EXPECT_GT(r.perf.butterflyPipelined.normalized, 0.0);
    // The pipelined schedule of the same costs can never be slower than
    // the barrier schedule.
    EXPECT_LE(r.perf.butterflyPipelined.timing.totalCycles,
              r.perf.butterfly.timing.totalCycles);
    // Per-block stall attribution reproduces the aggregate exactly.
    Cycles sum = 0;
    for (const auto &per_thread :
         r.perf.butterfly.timing.barrierStallPerBlock)
        for (Cycles c : per_thread)
            sum += c;
    EXPECT_EQ(sum, r.perf.butterfly.timing.barrierWaitCycles);
}

} // namespace
} // namespace bfly
