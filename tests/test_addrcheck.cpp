/**
 * @file
 * Tests for butterfly ADDRCHECK (paper Section 6.1): the Figure 9
 * scenarios, LSOS/isolation behaviour, and the Theorem 6.1 zero-false-
 * negative property against SC and TSO executions of randomized workloads
 * with injected bugs. Also checks the paper's accuracy trade-off: false
 * positives are monotone-ish in epoch size and vanish for isolated
 * activity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "memmodel/interleaver.hpp"
#include "tests/helpers.hpp"
#include "workloads/bugs.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

AddrCheckConfig
wideConfig()
{
    AddrCheckConfig cfg;
    cfg.granularity = 8;
    cfg.heapBase = 0;
    cfg.heapLimit = kNoAddr;
    return cfg;
}

struct Run
{
    Trace trace;
    EpochLayout layout;
    std::unique_ptr<ButterflyAddrCheck> check;
};

Run
runAddrCheck(Trace trace, const AddrCheckConfig &cfg)
{
    Run run{std::move(trace), EpochLayout::fromHeartbeats(Trace{}), {}};
    run.layout = EpochLayout::fromHeartbeats(run.trace);
    run.check = std::make_unique<ButterflyAddrCheck>(run.layout, cfg);
    WindowSchedule().run(run.layout, *run.check);
    return run;
}

TEST(AddrCheck, CleanSequentialLifecycleNoErrors)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::alloc(0x100, 32),
        Event::write(0x100, 8),
        Event::read(0x118, 8),
        Event::freeOf(0x100, 32),
    }}),
    wideConfig());
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrCheck, AccessBeforeAllocationFlagged)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::read(0x100, 8),
        Event::alloc(0x100, 32),
    }}),
    wideConfig());
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::UnallocatedAccess);
}

TEST(AddrCheck, UseAfterFreeFlagged)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::alloc(0x100, 32),
        Event::freeOf(0x100, 32),
        Event::read(0x100, 8),
    }}),
    wideConfig());
    ASSERT_EQ(run.check->errors().size(), 1u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::UnallocatedAccess);
}

TEST(AddrCheck, DoubleAllocAndDoubleFreeFlagged)
{
    auto run = runAddrCheck(test::traceOf({{
        Event::alloc(0x100, 32),
        Event::alloc(0x100, 32),
        Event::freeOf(0x100, 32),
        Event::freeOf(0x100, 32),
    }}),
    wideConfig());
    ASSERT_EQ(run.check->errors().size(), 2u);
    EXPECT_EQ(run.check->errors().records()[0].kind,
              ErrorKind::DoubleAlloc);
    EXPECT_EQ(run.check->errors().records()[1].kind,
              ErrorKind::UnallocatedFree);
}

TEST(AddrCheck, Figure9ConcurrentAllocAndAccessFlagged)
{
    // Thread 1 allocates a in epoch j while thread 2 accesses a in the
    // adjacent epoch j+1: potentially concurrent, must be flagged even
    // though the actual order may have been safe.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::read(0x100, 8)},
    }),
    wideConfig());
    EXPECT_FALSE(run.check->errors().empty());
    bool thread2_flagged = false;
    for (const auto &rec : run.check->errors().records())
        thread2_flagged = thread2_flagged || rec.tid == 1;
    EXPECT_TRUE(thread2_flagged);
}

TEST(AddrCheck, Figure9IsolatedAllocationSafe)
{
    // Thread 3 allocates b with no other thread touching it, and
    // accesses it itself in the next epoch: safe, no error (the paper's
    // "isolated" case).
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x200, 8), Event::heartbeat(),
         Event::read(0x200, 8)},
        {Event::nop(), Event::heartbeat(), Event::nop()},
        {Event::read(0x500, 8), Event::heartbeat(), Event::nop()},
    }),
    [] {
        AddrCheckConfig cfg = wideConfig();
        cfg.heapBase = 0x200;
        cfg.heapLimit = 0x300; // 0x500 access is unmonitored
        return cfg;
    }());
    EXPECT_TRUE(run.check->errors().empty());
}

TEST(AddrCheck, AllocationVisibleInSosTwoEpochsLater)
{
    // Alloc in epoch 0 by t0; access by t1 in epoch 2: epoch separation
    // guarantees the order, no flag.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(0x100, 8)},
    }),
    wideConfig());
    EXPECT_TRUE(run.check->errors().empty());
    EXPECT_TRUE(run.check->sosNow().contains(0x100 / 8));
}

TEST(AddrCheck, AdjacentEpochAccessIsFalsePositive)
{
    // Same as above but the access is in epoch 1: flagged (the paper's
    // fundamental FP trade-off), and the oracle confirms it is an FP.
    Trace trace = test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::read(0x100, 8)},
    });
    trace.threads[0].events[0].gseq = 1; // alloc actually first
    trace.threads[1].events[2].gseq = 5;
    auto run = runAddrCheck(trace, wideConfig());
    AddrCheckOracle oracle(wideConfig());
    oracle.runOnTrace(run.trace);
    EXPECT_TRUE(oracle.errors().empty());
    const auto acc =
        compareToOracle(run.check->errors(), oracle.errors(), 8);
    EXPECT_GT(acc.falsePositives, 0u);
    EXPECT_EQ(acc.falseNegatives, 0u);
}

TEST(AddrCheckOracle, ReplaysActualInterleavingOrder)
{
    // Thread 0 allocates (gseq 1) before thread 1 reads (gseq 2): clean.
    Trace trace = test::traceOf({
        {Event::alloc(0x100, 8)},
        {Event::read(0x100, 8)},
    });
    trace.threads[0].events[0].gseq = 1;
    trace.threads[1].events[0].gseq = 2;
    AddrCheckOracle clean(wideConfig());
    clean.runOnTrace(trace);
    EXPECT_TRUE(clean.errors().empty());

    // Reverse the actual order: the read becomes a real error.
    trace.threads[0].events[0].gseq = 2;
    trace.threads[1].events[0].gseq = 1;
    AddrCheckOracle dirty(wideConfig());
    dirty.runOnTrace(trace);
    EXPECT_EQ(dirty.errors().size(), 1u);
}

TEST(AddrCheck, ParallelPassesMatchSequential)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 2000;
    wcfg.seed = 99;
    Workload w = makeRandomMix(wcfg);
    Rng rng(4242);
    Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    const std::size_t H = 128 * 4;
    EpochLayout layout = EpochLayout::byGlobalSeq(trace, H);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;

    ButterflyAddrCheck seq(layout, cfg);
    WindowSchedule().run(layout, seq);

    // The parallel path: block passes as tasks on a pool, over a stream
    // cut at the same epoch boundaries.
    WorkerPool pool(4);
    EpochStream::Config scfg;
    scfg.globalH = H;
    EpochStream stream(trace, scfg);
    ButterflyAddrCheck par(stream.numThreads(), cfg);
    WindowSchedule(&pool).runPipelined(stream, par);

    auto records = [](const ErrorLog &log) {
        std::vector<std::tuple<ThreadId, std::uint64_t, Addr, int>> out;
        for (const ErrorRecord &r : log.records())
            out.emplace_back(r.tid, r.index, r.addr,
                             static_cast<int>(r.kind));
        std::sort(out.begin(), out.end());
        return out;
    };
    EXPECT_FALSE(seq.errors().empty());
    EXPECT_EQ(records(seq.errors()), records(par.errors()));
    EXPECT_EQ(seq.eventsChecked(), par.eventsChecked());
    EXPECT_EQ(seq.sosNow().sorted(), par.sosNow().sorted());
}

// --------------------------------------------------------------------
// Theorem 6.1: zero false negatives, SC and TSO, with injected bugs.
// --------------------------------------------------------------------

struct FnCase
{
    std::uint64_t seed;
    MemModel model;
    BugKind bug;
};

class AddrCheckZeroFn : public ::testing::TestWithParam<FnCase>
{};

TEST_P(AddrCheckZeroFn, OracleErrorsAreAlwaysCovered)
{
    const FnCase param = GetParam();

    WorkloadConfig wcfg;
    wcfg.numThreads = 3;
    wcfg.instrPerThread = 1500;
    wcfg.seed = param.seed;
    Workload w = makeRandomMix(wcfg);

    Rng bug_rng(param.seed ^ 0xbeef);
    const auto bugs = injectBugs(w, param.bug, 4, bug_rng);
    ASSERT_EQ(bugs.size(), 4u);

    Rng rng(param.seed * 31 + 7);
    InterleaveConfig icfg;
    icfg.model = param.model;
    Trace trace = interleave(w.programs, icfg, rng);
    EpochLayout layout =
        EpochLayout::byGlobalSeq(trace, 100 * wcfg.numThreads);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit + 0x100000;

    ButterflyAddrCheck butterfly(layout, cfg);
    WindowSchedule().run(layout, butterfly);

    AddrCheckOracle oracle(cfg);
    oracle.runOnTrace(trace);

    // The injected bugs are intra-thread, so the oracle must see them.
    EXPECT_GE(oracle.errors().size(), 4u);

    const auto acc =
        compareToOracle(butterfly.errors(), oracle.errors(),
                        cfg.granularity);
    EXPECT_EQ(acc.falseNegatives, 0u)
        << "butterfly missed an oracle error (seed " << param.seed
        << ")";
}

std::vector<FnCase>
fnCases()
{
    std::vector<FnCase> cases;
    const BugKind kinds[] = {BugKind::UseAfterFree,
                             BugKind::UnallocatedAccess,
                             BugKind::DoubleFree};
    const MemModel models[] = {MemModel::SequentiallyConsistent,
                               MemModel::TSO};
    for (std::uint64_t seed = 0; seed < 6; ++seed)
        for (MemModel m : models)
            for (BugKind k : kinds)
                cases.push_back({seed, m, k});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, AddrCheckZeroFn,
                         ::testing::ValuesIn(fnCases()));

// Zero FN must also hold for *clean* workloads (no spurious "misses").
class AddrCheckCleanZeroFn
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(AddrCheckCleanZeroFn, EveryPaperWorkloadUnderBothModels)
{
    for (const auto &[name, factory] : paperWorkloads()) {
        WorkloadConfig wcfg;
        wcfg.numThreads = 3;
        wcfg.instrPerThread = 1200;
        wcfg.seed = GetParam();
        Workload w = factory(wcfg);

        InterleaveConfig icfg;
        icfg.model = GetParam() % 2 ? MemModel::TSO
                                    : MemModel::SequentiallyConsistent;
        Rng rng(GetParam() * 17 + 3);
        Trace trace = interleave(w.programs, icfg, rng);
        EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, 150 * wcfg.numThreads);

        AddrCheckConfig cfg;
        cfg.heapBase = w.heapBase;
        cfg.heapLimit = w.heapLimit;

        ButterflyAddrCheck butterfly(layout, cfg);
        WindowSchedule().run(layout, butterfly);
        AddrCheckOracle oracle(cfg);
        oracle.runOnTrace(trace);

        // Barrier-synchronized workloads are race-free: oracle is clean.
        EXPECT_EQ(oracle.errors().size(), 0u)
            << name << " oracle flagged a clean workload";
        const auto acc = compareToOracle(butterfly.errors(),
                                         oracle.errors(),
                                         cfg.granularity);
        EXPECT_EQ(acc.falseNegatives, 0u) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AddrCheckCleanZeroFn,
                         ::testing::Range<std::uint64_t>(0, 4));

TEST(AddrCheck, LargerEpochsNeverReduceToZeroWhatSmallFlags)
{
    // Accuracy knob (Fig. 13 direction): tiny epochs produce fewer or
    // equal false positives than huge epochs on an allocation-heavy
    // workload.
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 4000;
    wcfg.seed = 5;
    Workload w = makeOcean(wcfg);
    Rng rng(11);
    Trace trace = interleave(w.programs, InterleaveConfig{}, rng);

    AddrCheckConfig cfg;
    cfg.heapBase = w.heapBase;
    cfg.heapLimit = w.heapLimit;

    auto fp_at = [&](std::size_t h) {
        EpochLayout layout = EpochLayout::byGlobalSeq(trace, h * 4);
        ButterflyAddrCheck butterfly(layout, cfg);
        WindowSchedule().run(layout, butterfly);
        AddrCheckOracle oracle(cfg);
        oracle.runOnTrace(trace);
        return compareToOracle(butterfly.errors(), oracle.errors(),
                               cfg.granularity)
            .falsePositives;
    };

    const auto fp_small = fp_at(64);
    const auto fp_large = fp_at(2048);
    EXPECT_LE(fp_small, fp_large);
}

// --------------------------------------------------------------------
// Pass 2 probes the wing summaries in place and skips blocks that can
// flag nothing; these pin the exact NonIsolatedOp records it emits.
// --------------------------------------------------------------------

using RecordTuple =
    std::tuple<ThreadId, std::uint64_t, Addr, std::uint16_t>;

/** The NonIsolatedOp records, as (tid, index, addr, size), sorted. */
std::vector<RecordTuple>
nonIsolated(const ButterflyAddrCheck &check)
{
    std::vector<RecordTuple> out;
    for (const ErrorRecord &r : check.errors().records())
        if (r.kind == ErrorKind::NonIsolatedOp)
            out.emplace_back(r.tid, r.index, r.addr, r.size);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(AddrCheckPass2, AccessMeetsWingFreeOnlyInNextEpoch)
{
    // t0 reads 0x100 in epoch 1; t1 frees it in epoch 2 and touches
    // nothing else. The free exists only in the read's epoch-l+1 wing,
    // and the free's own wing (epoch 1) holds the read.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x100, 8), Event::heartbeat(), Event::read(0x100, 8),
         Event::heartbeat(), Event::nop()},
        {Event::nop(), Event::heartbeat(), Event::nop(), Event::heartbeat(),
         Event::freeOf(0x100, 8)},
    }),
    wideConfig());
    const std::vector<RecordTuple> want = {{0, 1, 0x100, 8},
                                           {1, 2, 0x100, 8}};
    EXPECT_EQ(nonIsolated(*run.check), want);
    EXPECT_EQ(run.check->errors().size(), 2u); // pass 1 is clean
    EXPECT_EQ(run.check->isolationViolations(), 2u);
}

TEST(AddrCheckPass2, AllocMeetsWingThatOnlyAccessesTheKey)
{
    // The alloc's key is in no wing alloc/free set, only in t1's ACCESS
    // set. t1's read is unallocated in its own LSOS, so pass 1 reports
    // it first and the log keeps that record for the event.
    auto run = runAddrCheck(test::traceOf({
        {Event::nop(), Event::heartbeat(), Event::alloc(0x200, 8)},
        {Event::nop(), Event::heartbeat(), Event::read(0x200, 8)},
    }),
    wideConfig());
    const std::vector<RecordTuple> want = {{0, 1, 0x200, 8}};
    EXPECT_EQ(nonIsolated(*run.check), want);
    ASSERT_EQ(run.check->errors().size(), 2u);
    EXPECT_TRUE(run.check->errors().flagged(1, 1));
    EXPECT_EQ(run.check->isolationViolations(), 2u);
}

TEST(AddrCheckPass2, MultiKeyAccessFlaggedByItsLastKeyOnly)
{
    // t0's 24-byte read in epoch 2 spans keys 0x60..0x62, allocated in
    // epoch 0 (in the SOS by then, so pass 1 is clean). Of its wings
    // (epochs 1..3 of t1), only t1's epoch-1 alloc of 0x310 holds any
    // of them: the last key, 0x62.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x300, 24), Event::heartbeat(), Event::nop(),
         Event::heartbeat(), Event::read(0x300, 24)},
        {Event::nop(), Event::heartbeat(), Event::alloc(0x310, 8),
         Event::heartbeat(), Event::nop()},
    }),
    wideConfig());
    // t0's epoch-0 alloc and t1's alloc also meet each other across
    // adjacent epochs.
    const std::vector<RecordTuple> want = {
        {0, 0, 0x300, 24}, {0, 2, 0x300, 24}, {1, 1, 0x310, 8}};
    EXPECT_EQ(nonIsolated(*run.check), want);
    EXPECT_EQ(run.check->errors().size(), 3u); // pass 1 is clean
    EXPECT_EQ(run.check->isolationViolations(), 3u);
}

TEST(AddrCheckPass2, OwnAllocAndFreeInAdjacentEpochsNeverFlag)
{
    // t0 allocates in epoch 0, accesses in epoch 1 and frees in epoch 2:
    // its own summaries in epochs l-1 and l+1 are never in its wings.
    // t1 allocates and frees an unrelated key in the same epochs, so
    // the wings hold alloc/free sets; none of them meets t0's key.
    auto run = runAddrCheck(test::traceOf({
        {Event::alloc(0x400, 8), Event::heartbeat(), Event::write(0x400, 8),
         Event::heartbeat(), Event::freeOf(0x400, 8)},
        {Event::alloc(0x800, 8), Event::heartbeat(), Event::read(0x800, 8),
         Event::heartbeat(), Event::freeOf(0x800, 8)},
    }),
    wideConfig());
    EXPECT_TRUE(run.check->errors().empty());
    EXPECT_EQ(run.check->isolationViolations(), 0u);
}

TEST(AddrCheckPass2, WindowWithoutAllocOrFreeFlagsNothing)
{
    // After epoch 0's allocation settles, epochs 2..4 hold only
    // accesses, and every thread reads and writes every key: no block
    // whose window lacks an alloc/free can flag anything.
    std::vector<std::vector<Event>> programs(3);
    programs[0] = {Event::alloc(0x500, 32)};
    for (auto &p : programs) {
        if (p.empty())
            p.push_back(Event::nop());
        p.push_back(Event::heartbeat());
        p.push_back(Event::nop());
        for (int epoch = 2; epoch <= 4; ++epoch) {
            p.push_back(Event::heartbeat());
            p.push_back(Event::read(0x500, 32));
            p.push_back(Event::write(0x510, 8));
        }
    }
    auto run = runAddrCheck(test::traceOf(std::move(programs)),
                            wideConfig());
    EXPECT_TRUE(run.check->errors().empty());
    EXPECT_EQ(run.check->isolationViolations(), 0u);
    EXPECT_GT(run.check->eventsChecked(), 0u);
}

TEST(AddrCheck, ErrorsPerBlockDistinctBeyond256Threads)
{
    // Block (0, 256) and block (1, 0) must not share a counter: thread
    // 256 makes one unallocated access in epoch 0, thread 0 makes two in
    // epoch 1.
    constexpr ThreadId kThreads = 257;
    std::vector<std::vector<Event>> programs(kThreads);
    for (auto &p : programs)
        p = {Event::nop(), Event::heartbeat(), Event::nop()};
    programs[256][0] = Event::read(0x100, 8);
    programs[0] = {Event::nop(), Event::heartbeat(), Event::read(0x200, 8),
                   Event::read(0x300, 8)};
    auto run = runAddrCheck(test::traceOf(std::move(programs)),
                            wideConfig());
    ASSERT_EQ(run.check->errors().size(), 3u);
    EXPECT_EQ(run.check->errorsInBlock(0, 256), 1u);
    EXPECT_EQ(run.check->errorsInBlock(1, 0), 2u);
    EXPECT_EQ(run.check->summarySize(0, 256), 1u);
    EXPECT_EQ(run.check->summarySize(1, 0), 2u);
}

// --------------------------------------------------------------------
// Range boundaries: a 7,680-key (60 KiB) allocation, granularity 8.
// --------------------------------------------------------------------

constexpr Addr kBig = 0x100000;          ///< base of the large range
constexpr std::uint16_t kBigBytes = 61440; ///< 7,680 keys

/** All records as (tid, index, addr, kind, size), in log order. */
std::vector<std::tuple<ThreadId, std::uint64_t, Addr, ErrorKind,
                       std::uint16_t>>
allRecords(const ButterflyAddrCheck &check)
{
    std::vector<std::tuple<ThreadId, std::uint64_t, Addr, ErrorKind,
                           std::uint16_t>>
        out;
    for (const ErrorRecord &r : check.errors().records())
        out.emplace_back(r.tid, r.index, r.addr, r.kind, r.size);
    return out;
}

TEST(AddrCheckPass2, LargeFreeMeetsWingAccessesAtItsEdgesOnly)
{
    // t0 allocates the large range between two 16-byte guards in epoch
    // 0 (all in the SOS by epoch 3, as one merged run) and frees it in
    // epoch 3. t1 reads around both edges in epoch 3: every read is
    // allocated in its LSOS, so only pass 2 flags, and only reads that
    // share a key with the freed range.
    auto run = runAddrCheck(
        test::traceOf({
            {Event::alloc(kBig - 16, 16), Event::alloc(kBig, kBigBytes),
             Event::alloc(kBig + kBigBytes, 16), Event::heartbeat(),
             Event::nop(), Event::heartbeat(), Event::nop(),
             Event::heartbeat(), Event::freeOf(kBig, kBigBytes)},
            {Event::nop(), Event::heartbeat(), Event::nop(),
             Event::heartbeat(), Event::nop(), Event::heartbeat(),
             Event::read(kBig, 8),                 // 3: first key
             Event::read(kBig + kBigBytes - 8, 8), // 4: last key
             Event::read(kBig - 8, 8),             // 5: one key before
             Event::read(kBig + kBigBytes, 8),     // 6: one key past
             Event::read(kBig - 4, 8),             // 7: straddles in
             Event::read(kBig + kBigBytes - 4, 8), // 8: straddles out
             Event::read(kBig - 12, 8)},           // 9: two keys before
        }),
        wideConfig());
    const std::vector<RecordTuple> want = {
        {0, 5, kBig, kBigBytes},
        {1, 3, kBig, 8},
        {1, 4, kBig + kBigBytes - 8, 8},
        {1, 7, kBig - 4, 8},
        {1, 8, kBig + kBigBytes - 4, 8}};
    EXPECT_EQ(nonIsolated(*run.check), want);
    EXPECT_EQ(run.check->errors().size(), want.size()); // pass 1 clean
    EXPECT_EQ(run.check->isolationViolations(), want.size());
    // The guards stay allocated; the freed range leaves the SOS.
    EXPECT_EQ(run.check->sosNow().size(), 4u);
    EXPECT_TRUE(run.check->sosNow().contains(kBig / 8 - 1));
    EXPECT_FALSE(run.check->sosNow().contains(kBig / 8));
    EXPECT_TRUE(run.check->sosNow().contains((kBig + kBigBytes) / 8));
}

TEST(AddrCheckPass2, LargeAllocMeetsWingAccessAtFirstAndLastKey)
{
    // The alloc races with t1's reads of its first and last keys in the
    // same epoch. Pass 1 reports the reads first (the allocation is not
    // yet visible to t1), so their records keep that kind; pass 2 still
    // counts them and flags the alloc itself. The reads one key outside
    // touch guards allocated long before and flag nothing.
    auto run = runAddrCheck(
        test::traceOf({
            {Event::alloc(kBig - 8, 8), Event::alloc(kBig + kBigBytes, 8),
             Event::heartbeat(), Event::nop(), Event::heartbeat(),
             Event::nop(), Event::heartbeat(),
             Event::alloc(kBig, kBigBytes)},
            {Event::nop(), Event::heartbeat(), Event::nop(),
             Event::heartbeat(), Event::nop(), Event::heartbeat(),
             Event::read(kBig, 8), Event::read(kBig + kBigBytes - 8, 8),
             Event::read(kBig - 8, 8), Event::read(kBig + kBigBytes, 8)},
        }),
        wideConfig());
    using K = ErrorKind;
    const decltype(allRecords(*run.check)) want = {
        {1, 3, kBig, K::UnallocatedAccess, 8},
        {1, 4, kBig + kBigBytes - 8, K::UnallocatedAccess, 8},
        {0, 4, kBig, K::NonIsolatedOp, kBigBytes}};
    EXPECT_EQ(allRecords(*run.check), want);
    EXPECT_EQ(run.check->isolationViolations(), 3u);
}

TEST(AddrCheckPass1, MiddleFreeOfLargeAllocSplitsItExactly)
{
    // One thread allocates the large range, frees keys 1024..2047 of it,
    // and probes both edges of the hole: within the block (local delta),
    // in the next epoch (GEN_{l-1,t}) and two epochs on (the SOS).
    const std::vector<Event> probes = {
        Event::read(kBig + 8192, 8),  // first freed key
        Event::read(kBig + 16376, 8), // last freed key
        Event::read(kBig + 8184, 8),  // key before the hole
        Event::read(kBig + 16384, 8), // key after the hole
        Event::read(kBig + 8188, 8),  // straddles into the hole
        Event::read(kBig + 16380, 8), // straddles out of the hole
    };
    std::vector<Event> program = {Event::alloc(kBig, kBigBytes),
                                  Event::freeOf(kBig + 8192, 8192)};
    program.insert(program.end(), probes.begin(), probes.end());
    program.push_back(Event::heartbeat());
    program.insert(program.end(), probes.begin(), probes.end());
    program.push_back(Event::heartbeat());
    program.push_back(Event::nop());
    program.push_back(Event::heartbeat());
    program.insert(program.end(), probes.begin(), probes.end());
    auto run = runAddrCheck(test::traceOf({program}), wideConfig());

    std::vector<RecordTuple> want;
    for (const std::uint64_t first : {2u, 8u, 15u}) {
        want.emplace_back(0, first, kBig + 8192, 8);
        want.emplace_back(0, first + 1, kBig + 16376, 8);
        want.emplace_back(0, first + 4, kBig + 8188, 8);
        want.emplace_back(0, first + 5, kBig + 16380, 8);
    }
    std::vector<RecordTuple> got;
    for (const ErrorRecord &r : run.check->errors().records()) {
        EXPECT_EQ(r.kind, ErrorKind::UnallocatedAccess);
        got.emplace_back(r.tid, r.index, r.addr, r.size);
    }
    EXPECT_EQ(got, want);
    // 7,680 + 1,024 keys for the alloc and free, 8 per probe group.
    EXPECT_EQ(run.check->eventsChecked(), 7680u + 1024u + 3 * 8u);
    // genEnd 6,656 + killEnd 1,024 + four accessed keys.
    EXPECT_EQ(run.check->summarySize(0, 0), 6656u + 1024u + 4u);
    EXPECT_EQ(run.check->sosUpdateWork(0), 6656u + 1024u);
    EXPECT_EQ(run.check->sosNow().size(), 6656u);
    EXPECT_TRUE(run.check->sosNow().contains(kBig / 8 + 1023));
    EXPECT_FALSE(run.check->sosNow().contains(kBig / 8 + 1024));
    EXPECT_FALSE(run.check->sosNow().contains(kBig / 8 + 2047));
    EXPECT_TRUE(run.check->sosNow().contains(kBig / 8 + 2048));
}

TEST(AddrCheckPass1, RangeStraddlingHeapLimitCoversEveryKey)
{
    // Only the base address decides monitoring: an alloc that starts
    // inside the window covers all its keys, past heapLimit included,
    // while operations that start at or past the limit are ignored.
    AddrCheckConfig cfg = wideConfig();
    cfg.heapBase = kBig;
    cfg.heapLimit = kBig + 4096;
    auto run = runAddrCheck(test::traceOf({{
        Event::read(kBig + 4088, 16),   // 0: straddles the limit, unallocated
        Event::alloc(kBig, kBigBytes),  // 1: 7,680 keys
        Event::read(kBig + 4088, 16),   // 2: both keys allocated
        Event::read(kBig + 8192, 8),    // 3: unmonitored
        Event::freeOf(kBig + 8192, 8),  // 4: unmonitored: key stays
        Event::heartbeat(),
        Event::alloc(kBig + 4000, 200), // 5: double alloc via GEN_{0,t}
    }}),
    cfg);
    using K = ErrorKind;
    const decltype(allRecords(*run.check)) want = {
        {0, 0, kBig + 4088, K::UnallocatedAccess, 16},
        {0, 5, kBig + 4000, K::DoubleAlloc, 200}};
    EXPECT_EQ(allRecords(*run.check), want);
    EXPECT_EQ(run.check->eventsChecked(), 2u + 7680u + 2u + 25u);
    EXPECT_EQ(run.check->summarySize(0, 0), 7680u + 2u);
}

TEST(AddrCheck, RangePastTopOfAddressSpaceSaturates)
{
    // With the default window (heapLimit = kNoAddr), a 32-byte access
    // 16 bytes below 2^64 must cover the keys up to the last one, not
    // wrap around to none; the oracle must check the same keys. At
    // granularity 1 the last key is ~0 itself.
    const Addr top16 = ~Addr{0} - 15;
    for (const unsigned granularity : {8u, 1u}) {
        AddrCheckConfig cfg = wideConfig();
        cfg.granularity = granularity;
        const std::uint64_t keys = granularity == 8 ? 2 : 16;
        Trace trace = test::traceOf({{Event::read(top16, 32)}});

        auto run = runAddrCheck(trace, cfg);
        ASSERT_EQ(run.check->errors().size(), 1u) << granularity;
        EXPECT_TRUE(run.check->errors().flagged(0, 0));
        EXPECT_EQ(run.check->eventsChecked(), keys);

        AddrCheckOracle oracle(cfg);
        oracle.runOnTrace(trace);
        ASSERT_EQ(oracle.errors().size(), 1u) << granularity;
        EXPECT_TRUE(oracle.errors().flagged(0, 0));
        EXPECT_EQ(oracle.eventsChecked(), keys);

        // Allocated first (64 bytes ending exactly at 2^64 - 1), the
        // same access is clean on both sides.
        Trace clean = test::traceOf({{Event::alloc(~Addr{0} - 63, 64),
                                      Event::read(top16, 32)}});
        auto run2 = runAddrCheck(clean, cfg);
        EXPECT_TRUE(run2.check->errors().empty()) << granularity;
        AddrCheckOracle oracle2(cfg);
        oracle2.runOnTrace(clean);
        EXPECT_TRUE(oracle2.errors().empty()) << granularity;
        EXPECT_EQ(run2.check->eventsChecked(), oracle2.eventsChecked());
    }
}

TEST(CompareToOracle, CoversRangesAtTheTopOfTheAddressSpace)
{
    // An oracle record whose range runs past 2^64 - 1 still covers its
    // keys up to the last one, so a monitored record on the top key
    // accounts for it; one clear of the top is still a false negative.
    const Addr top = kNoAddr;
    for (const unsigned granularity : {1u, 8u}) {
        ErrorLog monitored;
        monitored.report(0, 3, top, ErrorKind::UnallocatedAccess, 1);
        ErrorLog oracle;
        oracle.report(1, 5, top - 1, ErrorKind::UnallocatedAccess, 4);
        AccuracyReport acc = compareToOracle(monitored, oracle, granularity);
        EXPECT_EQ(acc.truePositives, 0u) << granularity;
        EXPECT_EQ(acc.falsePositives, 1u) << granularity;
        EXPECT_EQ(acc.falseNegatives, 0u) << granularity;

        oracle.report(1, 6, top - 40, ErrorKind::UnallocatedAccess, 8);
        acc = compareToOracle(monitored, oracle, granularity);
        EXPECT_EQ(acc.falseNegatives, 1u) << granularity;
    }
}

} // namespace
} // namespace bfly
