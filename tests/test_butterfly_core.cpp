/**
 * @file
 * Unit tests for the butterfly core scaffolding: instruction ids and the
 * strictly-before relation (Section 6.2), butterfly position
 * classification, and the exact pass ordering of WindowSchedule
 * (Section 4.3's four steps).
 */

#include <algorithm>
#include <mutex>

#include <gtest/gtest.h>

#include "butterfly/ids.hpp"
#include "butterfly/window.hpp"
#include "tests/helpers.hpp"

namespace bfly {
namespace {

TEST(InstrId, PackUnpackRoundTrip)
{
    const InstrId ids[] = {
        {0, 0, 0},
        {5, 3, 17},
        {1000, 255, 0xffffffff},
        {(1u << 24) - 1, 7, 42},
    };
    for (const InstrId &id : ids) {
        const InstrId back = InstrId::unpack(id.pack());
        EXPECT_EQ(back.l, id.l);
        EXPECT_EQ(back.t, id.t);
        EXPECT_EQ(back.i, id.i);
    }
}

TEST(InstrId, PackOrdersWithinThread)
{
    EXPECT_LT((InstrId{1, 2, 3}.pack()), (InstrId{1, 2, 4}.pack()));
    EXPECT_LT((InstrId{1, 2, 3}.pack()), (InstrId{2, 2, 0}.pack()));
}

TEST(StrictlyBefore, NonAdjacentEpochsAlwaysOrdered)
{
    const InstrId a{0, 0, 5};
    const InstrId b{2, 1, 0};
    EXPECT_TRUE(strictlyBefore(a, b, true));
    EXPECT_TRUE(strictlyBefore(a, b, false)); // even relaxed
    EXPECT_FALSE(strictlyBefore(b, a, true));
}

TEST(StrictlyBefore, ProgramOrderOnlyUnderSC)
{
    const InstrId a{1, 0, 3};
    const InstrId b{1, 0, 7};
    EXPECT_TRUE(strictlyBefore(a, b, true));
    EXPECT_FALSE(strictlyBefore(a, b, false)); // relaxed: no such order
    EXPECT_FALSE(strictlyBefore(b, a, true));

    const InstrId later_epoch{2, 0, 0};
    EXPECT_TRUE(strictlyBefore(a, later_epoch, true));
    EXPECT_FALSE(strictlyBefore(a, later_epoch, false));
}

TEST(StrictlyBefore, AdjacentEpochsCrossThreadUnordered)
{
    const InstrId a{1, 0, 3};
    const InstrId b{2, 1, 0};
    EXPECT_FALSE(strictlyBefore(a, b, true));
    EXPECT_FALSE(strictlyBefore(b, a, true));
}

TEST(Classify, ButterflyAnatomy)
{
    // Butterfly with body (5, 2).
    EXPECT_EQ(classify(5, 2, 5, 2), WingPosition::Body);
    EXPECT_EQ(classify(5, 2, 4, 2), WingPosition::Head);
    EXPECT_EQ(classify(5, 2, 6, 2), WingPosition::Tail);
    EXPECT_EQ(classify(5, 2, 4, 0), WingPosition::Wings);
    EXPECT_EQ(classify(5, 2, 5, 0), WingPosition::Wings);
    EXPECT_EQ(classify(5, 2, 6, 0), WingPosition::Wings);
    EXPECT_EQ(classify(5, 2, 3, 0), WingPosition::BeforeWindow);
    EXPECT_EQ(classify(5, 2, 3, 2), WingPosition::BeforeWindow);
    EXPECT_EQ(classify(5, 2, 7, 0), WingPosition::AfterWindow);
}

/** Records every hook call to verify the Section 4.3 schedule. */
class RecordingDriver : public AnalysisDriver
{
  public:
    std::vector<std::string> calls;

    void
    pass1(const BlockView &block) override
    {
        calls.push_back("p1(" + std::to_string(block.epoch) + "," +
                        std::to_string(block.thread) + ")");
    }
    void
    pass2(const BlockView &block) override
    {
        calls.push_back("p2(" + std::to_string(block.epoch) + "," +
                        std::to_string(block.thread) + ")");
    }
    void
    finalizeEpoch(EpochId l) override
    {
        calls.push_back("fin(" + std::to_string(l) + ")");
    }
};

TEST(WindowSchedule, FourStepOrder)
{
    // 2 threads x 3 epochs, one event per block.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    RecordingDriver driver;
    WindowSchedule().run(layout, driver);

    const std::vector<std::string> expected = {
        "p1(0,0)", "p1(0,1)",             // epoch 0 arrives
        "p1(1,0)", "p1(1,1)",             // epoch 1 arrives...
        "p2(0,0)", "p2(0,1)", "fin(0)",   // ...epoch 0's wings complete
        "p1(2,0)", "p1(2,1)",
        "p2(1,0)", "p2(1,1)", "fin(1)",
        "p2(2,0)", "p2(2,1)", "fin(2)",   // trace boundary
    };
    EXPECT_EQ(driver.calls, expected);
}

TEST(WindowSchedule, IgnoredFlagKeepsTheReferenceLoop)
{
    // WindowSchedule(bool, WorkerPool *) ignores its flag: with either
    // value and a pool at hand, run() is still the single-threaded
    // reference loop, calling the hooks in exactly the window order.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog, prog});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);

    RecordingDriver reference;
    WindowSchedule().run(layout, reference);
    ASSERT_EQ(reference.calls.size(), 3u * 3 * 2 + 3);

    WorkerPool pool(3);
    for (const bool flag : {false, true}) {
        RecordingDriver driver;
        WindowSchedule(flag, &pool).run(layout, driver);
        EXPECT_EQ(driver.calls, reference.calls) << "flag " << flag;
    }
}

TEST(WindowSchedule, EmptyTraceIsANoOp)
{
    Trace trace = test::traceOf({{}});
    const EpochLayout layout = EpochLayout::fromHeartbeats(trace);
    RecordingDriver driver;
    WindowSchedule().run(layout, driver);
    // A single (empty) epoch still flows through both passes.
    EXPECT_EQ(driver.calls,
              (std::vector<std::string>{"p1(0,0)", "p2(0,0)", "fin(0)"}));
}

TEST(WindowSchedule, PipelinedKeepsWindowOrder)
{
    // On the pipelined task graph the call order across threads is
    // arbitrary, but the window order must hold: every p1 of epoch l
    // and every p2 of epoch l-1 precede fin(l-1), which precedes every
    // p2 of epoch l.
    std::vector<Event> prog = {Event::nop(), Event::heartbeat(),
                               Event::nop()};
    Trace trace = test::traceOf({prog, prog, prog});
    EpochStream::Config cfg;
    cfg.fromHeartbeats = true;
    EpochStream stream(trace, cfg);

    // RecordingDriver is not thread-safe; serialize with a mutex.
    class LockedDriver : public RecordingDriver
    {
      public:
        std::mutex m;
        void
        pass1(const BlockView &b) override
        {
            std::lock_guard<std::mutex> g(m);
            RecordingDriver::pass1(b);
        }
        void
        pass2(const BlockView &b) override
        {
            std::lock_guard<std::mutex> g(m);
            RecordingDriver::pass2(b);
        }
        void
        finalizeEpoch(EpochId l) override
        {
            std::lock_guard<std::mutex> g(m);
            RecordingDriver::finalizeEpoch(l);
        }
    };
    LockedDriver driver;
    WorkerPool pool(3);
    WindowSchedule(&pool).runPipelined(stream, driver);

    ASSERT_EQ(driver.calls.size(), 3u * 2 + 3 * 2 + 2);
    auto index_of = [&](const std::string &s) {
        return std::find(driver.calls.begin(), driver.calls.end(), s) -
               driver.calls.begin();
    };
    for (int t = 0; t < 3; ++t) {
        EXPECT_LT(index_of("p1(1," + std::to_string(t) + ")"),
                  index_of("fin(0)"));
        EXPECT_LT(index_of("p2(0," + std::to_string(t) + ")"),
                  index_of("fin(0)"));
        EXPECT_LT(index_of("fin(0)"),
                  index_of("p2(1," + std::to_string(t) + ")"));
    }
}

} // namespace
} // namespace bfly
