/** @file Unit tests for src/common: sets, shadow memory, heap, RNG, stats. */

#include <algorithm>
#include <iterator>
#include <set>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/addr_set.hpp"
#include "common/heap.hpp"
#include "common/interval_set.hpp"
#include "common/rng.hpp"
#include "common/shadow_memory.hpp"
#include "common/stats.hpp"

namespace bfly {
namespace {

TEST(FlatSet, BasicOperations)
{
    AddrSet s{1, 2, 3};
    EXPECT_TRUE(s.contains(1));
    EXPECT_FALSE(s.contains(4));
    EXPECT_EQ(s.size(), 3u);
    s.insert(4);
    EXPECT_TRUE(s.contains(4));
    s.erase(1);
    EXPECT_FALSE(s.contains(1));
    s.clear();
    EXPECT_TRUE(s.empty());
}

TEST(FlatSet, UnionIntersectDifference)
{
    const AddrSet a{1, 2, 3};
    const AddrSet b{2, 3, 4};
    EXPECT_EQ(setUnion(a, b).sorted(), (std::vector<Addr>{1, 2, 3, 4}));
    EXPECT_EQ(setIntersect(a, b).sorted(), (std::vector<Addr>{2, 3}));
    EXPECT_EQ(setDifference(a, b).sorted(), (std::vector<Addr>{1}));
    EXPECT_EQ(setDifference(b, a).sorted(), (std::vector<Addr>{4}));
}

TEST(FlatSet, Intersects)
{
    const AddrSet a{1, 2};
    const AddrSet b{2, 9};
    const AddrSet c{5, 6};
    EXPECT_TRUE(a.intersects(b));
    EXPECT_FALSE(a.intersects(c));
    EXPECT_FALSE(AddrSet{}.intersects(a));
}

TEST(FlatSet, SubtractPicksCheaperDirection)
{
    AddrSet big;
    for (Addr k = 0; k < 100; ++k)
        big.insert(k);
    AddrSet small{1, 50, 99, 200};
    big.subtract(small);
    EXPECT_EQ(big.size(), 97u);
    small.subtract(big);
    EXPECT_EQ(small.sorted(), (std::vector<Addr>{1, 50, 99, 200}));
}

TEST(FlatSet, GrowsPastInlineBuffer)
{
    AddrSet s;
    for (Addr k = 0; k < 100; ++k) {
        s.insert(k * 3);
        ASSERT_EQ(s.size(), static_cast<std::size_t>(k) + 1);
    }
    for (Addr k = 0; k < 100; ++k) {
        EXPECT_TRUE(s.contains(k * 3));
        EXPECT_FALSE(s.contains(k * 3 + 1));
    }
    std::size_t seen = 0;
    for (Addr k : s) {
        EXPECT_EQ(k % 3, 0u);
        ++seen;
    }
    EXPECT_EQ(seen, 100u);
}

TEST(FlatSet, SentinelValueIsStorable)
{
    // All-ones marks empty slots internally; it must still be a normal
    // element from the outside (kNoAddr is a legitimate key value).
    AddrSet s;
    s.insert(kNoAddr);
    EXPECT_TRUE(s.contains(kNoAddr));
    EXPECT_EQ(s.size(), 1u);
    for (Addr k = 0; k < 50; ++k)
        s.insert(k); // force migration to the table with kNoAddr present
    EXPECT_TRUE(s.contains(kNoAddr));
    EXPECT_EQ(s.size(), 51u);
    EXPECT_EQ(s.sorted().back(), kNoAddr);
    s.erase(kNoAddr);
    EXPECT_FALSE(s.contains(kNoAddr));
    EXPECT_EQ(s.size(), 50u);
}

TEST(FlatSet, CopyAndMoveSemantics)
{
    AddrSet a;
    for (Addr k = 0; k < 40; ++k)
        a.insert(k * 7);
    AddrSet b = a;
    b.insert(1);
    EXPECT_EQ(a.size(), 40u);
    EXPECT_EQ(b.size(), 41u);
    AddrSet c = std::move(b);
    EXPECT_EQ(c.size(), 41u);
    EXPECT_TRUE(c.contains(1));
    a = c;
    EXPECT_TRUE(a == c);
    AddrSet small{1, 2};
    AddrSet moved = std::move(small);
    EXPECT_EQ(moved.sorted(), (std::vector<Addr>{1, 2}));
}

/** Model-based property test: FlatSet vs std::unordered_set under a
 *  randomized op sequence covering both storage regimes. */
TEST(FlatSet, MatchesUnorderedSetModel)
{
    Rng rng(0xbf1f);
    for (int trial = 0; trial < 20; ++trial) {
        AddrSet sut;
        std::unordered_set<Addr> model;
        // Key universe small enough to hit duplicate inserts, erases of
        // present keys, and the inline->table migration both ways.
        const Addr universe = 1 + rng.below(60);
        for (int step = 0; step < 400; ++step) {
            Addr k = rng.below(universe);
            if (rng.chance(0.02))
                k = kNoAddr; // exercise the sentinel path
            switch (rng.below(3)) {
              case 0:
                sut.insert(k);
                model.insert(k);
                break;
              case 1:
                sut.erase(k);
                model.erase(k);
                break;
              default:
                ASSERT_EQ(sut.contains(k), model.count(k) != 0)
                    << "trial " << trial << " step " << step;
                break;
            }
            ASSERT_EQ(sut.size(), model.size())
                << "trial " << trial << " step " << step;
        }
        std::vector<Addr> expected(model.begin(), model.end());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(sut.sorted(), expected) << "trial " << trial;
    }
}

/** Model-based property test for the set algebra used by the dataflow
 *  equations: union / intersect / subtract / intersects / equality. */
TEST(FlatSet, AlgebraMatchesUnorderedSetModel)
{
    Rng rng(0xa15e);
    auto random_pair = [&](std::size_t max_n, AddrSet &s,
                           std::unordered_set<Addr> &m) {
        const std::size_t n = rng.below(max_n + 1);
        const Addr universe = 1 + rng.below(4 * (max_n + 1));
        for (std::size_t i = 0; i < n; ++i) {
            Addr k = rng.below(universe);
            if (rng.chance(0.05))
                k = kNoAddr - rng.below(3); // near-sentinel keys
            s.insert(k);
            m.insert(k);
        }
    };
    auto sorted_model = [](const std::unordered_set<Addr> &m) {
        std::vector<Addr> v(m.begin(), m.end());
        std::sort(v.begin(), v.end());
        return v;
    };

    for (int trial = 0; trial < 30; ++trial) {
        // Mix the regimes: some trials stay inline, some go to tables.
        const std::size_t max_n = trial % 3 == 0 ? 6 : 200;
        AddrSet a, b;
        std::unordered_set<Addr> ma, mb;
        random_pair(max_n, a, ma);
        random_pair(max_n, b, mb);

        AddrSet u = a;
        u.unionWith(b);
        std::unordered_set<Addr> mu = ma;
        mu.insert(mb.begin(), mb.end());
        EXPECT_EQ(u.sorted(), sorted_model(mu)) << "trial " << trial;

        AddrSet i = a;
        i.intersectWith(b);
        std::unordered_set<Addr> mi;
        for (Addr k : ma)
            if (mb.count(k))
                mi.insert(k);
        EXPECT_EQ(i.sorted(), sorted_model(mi)) << "trial " << trial;

        AddrSet d = a;
        d.subtract(b);
        std::unordered_set<Addr> md;
        for (Addr k : ma)
            if (!mb.count(k))
                md.insert(k);
        EXPECT_EQ(d.sorted(), sorted_model(md)) << "trial " << trial;

        EXPECT_EQ(a.intersects(b), !mi.empty()) << "trial " << trial;
        EXPECT_EQ(a == b, sorted_model(ma) == sorted_model(mb))
            << "trial " << trial;
        EXPECT_TRUE(i == setIntersect(b, a)) << "trial " << trial;
    }
}

TEST(FlatSet, BackwardShiftEraseKeepsProbeChainsIntact)
{
    // Adversarial pattern for linear probing: long runs of keys, erased
    // from the middle, must not strand later keys in the run.
    AddrSet s;
    std::vector<Addr> keys;
    Rng rng(99);
    for (int i = 0; i < 500; ++i)
        keys.push_back(rng.next());
    for (Addr k : keys)
        s.insert(k);
    for (std::size_t i = 0; i < keys.size(); i += 2)
        s.erase(keys[i]);
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(s.contains(keys[i]), i % 2 == 1) << "key index " << i;
}

TEST(IntervalSet, RangeInsertEraseCoalesceAndSplit)
{
    IntervalSet s;
    s.insert(10, 19);
    s.insert(30, 39);
    EXPECT_EQ(s.size(), 20u);
    ASSERT_EQ(s.runs().size(), 2u);
    s.insert(20, 29); // touches both neighbours: one run
    ASSERT_EQ(s.runs().size(), 1u);
    EXPECT_EQ(s.runs()[0], (KeyRun{10, 39}));
    s.erase(15, 24); // split in the middle
    ASSERT_EQ(s.runs().size(), 2u);
    EXPECT_EQ(s.runs()[0], (KeyRun{10, 14}));
    EXPECT_EQ(s.runs()[1], (KeyRun{25, 39}));
    EXPECT_EQ(s.size(), 20u);
    EXPECT_TRUE(s.contains(14));
    EXPECT_FALSE(s.contains(15));
    EXPECT_FALSE(s.contains(24));
    EXPECT_TRUE(s.contains(25));
    EXPECT_TRUE(s.overlaps(0, 10));
    EXPECT_FALSE(s.overlaps(15, 24));
    EXPECT_TRUE(s.overlaps(24, 25));
    EXPECT_FALSE(s.overlaps(40, 100));
    s.erase(0, 100);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
}

TEST(IntervalSet, RunAtReportsTheRunOrGapAroundAKey)
{
    IntervalSet s;
    s.insert(10, 19);
    s.insert(30, 39);
    Addr lo = 0;
    Addr hi = ~Addr{0};
    EXPECT_TRUE(s.runAt(12, lo, hi));
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 19u);
    lo = 0;
    hi = ~Addr{0};
    EXPECT_FALSE(s.runAt(25, lo, hi));
    EXPECT_EQ(lo, 20u);
    EXPECT_EQ(hi, 29u);
    lo = 0;
    hi = ~Addr{0};
    EXPECT_FALSE(s.runAt(3, lo, hi));
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 9u);
    lo = 0;
    hi = ~Addr{0};
    EXPECT_FALSE(s.runAt(50, lo, hi));
    EXPECT_EQ(lo, 40u);
    EXPECT_EQ(hi, ~Addr{0});
    lo = 11; // runAt only narrows
    hi = 15;
    EXPECT_TRUE(s.runAt(12, lo, hi));
    EXPECT_EQ(lo, 11u);
    EXPECT_EQ(hi, 15u);
}

TEST(IntervalSet, KeysAtBothEndsOfTheKeySpace)
{
    const Addr top = ~Addr{0};
    IntervalSet s;
    s.insert(top - 3, top);
    s.insert(0, 2);
    EXPECT_EQ(s.size(), 7u);
    EXPECT_TRUE(s.contains(top));
    EXPECT_TRUE(s.contains(0));
    EXPECT_EQ(s.sorted(),
              (std::vector<Addr>{0, 1, 2, top - 3, top - 2, top - 1, top}));
    s.insert(top - 5, top - 4); // touches the top run
    EXPECT_EQ(s.runs().back(), (KeyRun{top - 5, top}));
    s.erase(top, top);
    EXPECT_FALSE(s.contains(top));
    EXPECT_EQ(s.runs().back(), (KeyRun{top - 5, top - 1}));
    IntervalSet all;
    all.insert(top - 10, top);
    all.subtract(s);
    EXPECT_EQ(all.sorted(), (std::vector<Addr>{top - 10, top - 9, top - 8,
                                               top - 7, top - 6, top}));
}

TEST(KeyRun, OfARangeEndingAtTheLastByte)
{
    const Addr top = ~Addr{0};
    auto bytes = [](Addr a) { return a; };
    auto granules = [](Addr a) { return a / 8; };
    EXPECT_EQ(keyRunOf(top - 1, 2, bytes), (KeyRun{top - 1, top}));
    EXPECT_EQ(keyRunOf(top, 1, bytes), (KeyRun{top, top}));
    EXPECT_EQ(keyRunOf(top - 7, 8, granules), (KeyRun{top / 8, top / 8}));
    EXPECT_EQ(keyRunOf(top - 15, 16, granules),
              (KeyRun{top / 8 - 1, top / 8}));
    EXPECT_EQ(keyRunOf(top - 15, 16, granules).keys(), 2u);
}

TEST(KeyRun, OfARangeRunningPastTheLastByteSaturates)
{
    // base + size - 1 would wrap to a small address, giving a run whose
    // last key precedes its first: no keys at all.
    const Addr top = ~Addr{0};
    auto bytes = [](Addr a) { return a; };
    auto granules = [](Addr a) { return a / 8; };
    EXPECT_EQ(keyRunOf(top - 1, 4, bytes), (KeyRun{top - 1, top}));
    EXPECT_EQ(keyRunOf(top, 0xffff, bytes), (KeyRun{top, top}));
    EXPECT_EQ(keyRunOf(top - 3, 16, granules), (KeyRun{top / 8, top / 8}));
    EXPECT_EQ(keyRunOf(top - 9, 64, granules),
              (KeyRun{top / 8 - 1, top / 8}));
}

TEST(KeyRun, OfZeroSizeTouchesOneByte)
{
    const Addr top = ~Addr{0};
    auto granules = [](Addr a) { return a / 8; };
    EXPECT_EQ(keyRunOf(0x107, 0, granules), (KeyRun{0x20, 0x20}));
    EXPECT_EQ(keyRunOf(top, 0, [](Addr a) { return a; }),
              (KeyRun{top, top}));
    EXPECT_EQ(keyRunOf(0, 0, granules), (KeyRun{0, 0}));
}

TEST(KeyRun, ForEachKeyStopsAtTheLastKey)
{
    const Addr top = ~Addr{0};
    auto keysOf = [](const KeyRun &r) {
        std::vector<Addr> out;
        forEachKey(r, [&out](Addr k) { out.push_back(k); });
        return out;
    };
    // A run ending at key 2^64 - 1: k <= hi never fails there.
    EXPECT_EQ(keysOf(KeyRun{top - 2, top}),
              (std::vector<Addr>{top - 2, top - 1, top}));
    EXPECT_EQ(keysOf(KeyRun{top, top}), (std::vector<Addr>{top}));
    EXPECT_EQ(keysOf(KeyRun{0, 3}), (std::vector<Addr>{0, 1, 2, 3}));
    EXPECT_EQ(keysOf(KeyRun{5, 5}), (std::vector<Addr>{5}));
}

TEST(IntervalSet, MatchesStdSetModel)
{
    // Random range inserts/erases, unions and differences over a small
    // key space (so runs meet, merge and split constantly), checked
    // against a std::set of keys after every step.
    Rng rng(2024);
    for (int round = 0; round < 40; ++round) {
        IntervalSet a;
        IntervalSet b;
        std::set<Addr> ma;
        std::set<Addr> mb;
        auto range = [&] {
            const Addr lo = rng.below(200);
            return KeyRun{lo, lo + rng.below(rng.chance(0.2) ? 60 : 6)};
        };
        for (int step = 0; step < 60; ++step) {
            IntervalSet &s = rng.chance(0.5) ? a : b;
            std::set<Addr> &m = &s == &a ? ma : mb;
            const KeyRun r = range();
            switch (rng.below(4)) {
              case 0:
              case 1:
                s.insert(r.lo, r.hi);
                for (Addr k = r.lo; k <= r.hi; ++k)
                    m.insert(k);
                break;
              case 2:
                s.erase(r.lo, r.hi);
                for (Addr k = r.lo; k <= r.hi; ++k)
                    m.erase(k);
                break;
              default: {
                bool hit = false;
                for (Addr k = r.lo; k <= r.hi; ++k)
                    hit = hit || m.count(k) != 0;
                EXPECT_EQ(s.overlaps(r.lo, r.hi), hit);
                break;
              }
            }
            ASSERT_EQ(s.sorted(), std::vector<Addr>(m.begin(), m.end()));
            ASSERT_EQ(s.size(), m.size());
            for (std::size_t i = 1; i < s.runs().size(); ++i)
                ASSERT_GT(s.runs()[i].lo, s.runs()[i - 1].hi + 1);
        }

        bool shared = false;
        for (Addr k : ma)
            shared = shared || mb.count(k) != 0;
        EXPECT_EQ(a.overlaps(b), shared);
        EXPECT_EQ(b.overlaps(a), shared);

        IntervalSet u = a;
        u.unionWith(b);
        std::set<Addr> mu = ma;
        mu.insert(mb.begin(), mb.end());
        EXPECT_EQ(u.sorted(), std::vector<Addr>(mu.begin(), mu.end()));
        EXPECT_EQ(u.size(), mu.size());

        IntervalSet d = a;
        d.subtract(b);
        std::vector<Addr> md;
        std::set_difference(ma.begin(), ma.end(), mb.begin(), mb.end(),
                            std::back_inserter(md));
        EXPECT_EQ(d.sorted(), md);
        EXPECT_EQ(d.size(), md.size());
    }
}

TEST(IntervalSet, AssignUnionMergesRunsInAnyOrder)
{
    // Dense input (bitmap path) and the same shape spread over a wide
    // span (sort path) give the same runs, including a run that ends on
    // the bitmap's last bit and one that crosses a word boundary.
    for (const Addr spread : {Addr{0}, Addr{1} << 40}) {
        std::vector<KeyRun> runs = {{14, 14},
                                    {2, 2},
                                    {9, 12},
                                    {4, 6},
                                    {1, 3},
                                    {9, 9},
                                    {60, 70},
                                    {spread + 500, spread + 511},
                                    {spread + 510, spread + 511}};
        IntervalSet s;
        s.insert(100, 200); // replaced, not merged
        s.assignUnion(runs);
        const std::vector<KeyRun> want = {{1, 6},
                                          {9, 12},
                                          {14, 14},
                                          {60, 70},
                                          {spread + 500, spread + 511}};
        EXPECT_EQ(std::vector<KeyRun>(s.runs().begin(), s.runs().end()),
                  want)
            << "spread " << spread;
        EXPECT_EQ(s.size(), 6u + 4u + 1u + 11u + 12u);
    }
    // Random inputs against the std::set model, both paths.
    Rng rng(77);
    for (int round = 0; round < 50; ++round) {
        const Addr span = round % 2 ? 100000 : 300;
        std::vector<KeyRun> runs;
        std::set<Addr> model;
        const std::size_t n = 1 + rng.below(40);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr lo = 1000 + rng.below(span);
            const Addr hi = lo + (rng.chance(0.7) ? 0 : rng.below(130));
            runs.push_back(KeyRun{lo, hi});
            for (Addr k = lo; k <= hi; ++k)
                model.insert(k);
        }
        IntervalSet s;
        s.assignUnion(runs);
        ASSERT_EQ(s.sorted(), std::vector<Addr>(model.begin(), model.end()));
        ASSERT_EQ(s.size(), model.size());
    }
}

TEST(ShadowMemory, DefaultValueWithoutAllocation)
{
    ShadowMemory<std::uint8_t> shadow(7);
    EXPECT_EQ(shadow.get(0x1234), 7);
    EXPECT_EQ(shadow.allocatedPages(), 0u);
}

TEST(ShadowMemory, SetGetAcrossPages)
{
    ShadowMemory<std::uint32_t> shadow(0);
    shadow.set(5, 42);
    shadow.set((1 << 12) + 5, 43); // second page
    EXPECT_EQ(shadow.get(5), 42u);
    EXPECT_EQ(shadow.get((1 << 12) + 5), 43u);
    EXPECT_EQ(shadow.get(6), 0u);
    EXPECT_EQ(shadow.allocatedPages(), 2u);
}

TEST(ShadowMemory, RangeOperations)
{
    ShadowMemory<std::uint8_t> shadow(0);
    shadow.setRange(100, 50, 1);
    EXPECT_TRUE(shadow.rangeEquals(100, 50, 1));
    EXPECT_FALSE(shadow.rangeEquals(99, 2, 1));
    shadow.clear();
    EXPECT_EQ(shadow.get(120), 0);
}

TEST(ShadowMemory, RangeOpsCrossPageBoundaries)
{
    ShadowMemory<std::uint8_t> shadow(0);
    const Addr base = (1 << 12) - 100; // straddles pages 0 and 1
    shadow.setRange(base, 200, 9);
    EXPECT_TRUE(shadow.rangeEquals(base, 200, 9));
    EXPECT_EQ(shadow.get(base), 9);
    EXPECT_EQ(shadow.get(base + 199), 9);
    EXPECT_EQ(shadow.get(base - 1), 0);
    EXPECT_EQ(shadow.get(base + 200), 0);
    EXPECT_EQ(shadow.allocatedPages(), 2u);

    // A span longer than a full page.
    shadow.setRange(0x10000, 3 * 4096 + 5, 3);
    EXPECT_TRUE(shadow.rangeEquals(0x10000, 3 * 4096 + 5, 3));
    EXPECT_FALSE(shadow.rangeEquals(0x10000, 3 * 4096 + 6, 3));
}

TEST(ShadowMemory, RangeEqualsOnUntouchedPagesComparesDefault)
{
    ShadowMemory<std::uint8_t> shadow(7);
    // Nothing allocated: every entry reads the default.
    EXPECT_TRUE(shadow.rangeEquals(0x5000, 10000, 7));
    EXPECT_FALSE(shadow.rangeEquals(0x5000, 10000, 8));
    EXPECT_EQ(shadow.allocatedPages(), 0u);
    // A touched page in the middle of an untouched span.
    shadow.set(0x7000, 1);
    EXPECT_FALSE(shadow.rangeEquals(0x5000, 0x3000, 7));
    shadow.set(0x7000, 7);
    EXPECT_TRUE(shadow.rangeEquals(0x5000, 0x3000, 7));
}

TEST(ShadowMemory, ForEachInRangeVisitsEveryEntryInOrder)
{
    ShadowMemory<std::uint16_t> shadow(5);
    shadow.set(4095, 10); // last entry of page 0
    shadow.set(4096, 11); // first entry of page 1
    std::vector<std::uint16_t> seen;
    shadow.forEachInRange(4094, 4, [&](std::uint16_t v) {
        seen.push_back(v);
    });
    EXPECT_EQ(seen, (std::vector<std::uint16_t>{5, 10, 11, 5}));
    EXPECT_EQ(shadow.allocatedPages(), 2u); // read-only: no allocation

    std::size_t count = 0;
    std::uint64_t sum = 0;
    shadow.forEachInRange(0x100000, 2 * 4096 + 7, [&](std::uint16_t v) {
        ++count;
        sum += v;
    });
    EXPECT_EQ(count, 2u * 4096 + 7);
    EXPECT_EQ(sum, (2u * 4096 + 7) * 5);
    EXPECT_EQ(shadow.allocatedPages(), 2u);
}

TEST(ShadowMemory, LastPageCacheStaysCoherent)
{
    ShadowMemory<std::uint8_t> shadow(0);
    // Miss-then-allocate on the same page: the cached "absent" result
    // must be invalidated by the allocation.
    EXPECT_EQ(shadow.get(0x2000), 0);
    shadow.set(0x2000, 4);
    EXPECT_EQ(shadow.get(0x2000), 4);
    EXPECT_EQ(shadow.get(0x2001), 0);
    // Alternating pages exercise cache replacement.
    shadow.set(0x5000, 1);
    shadow.set(0x6000, 2);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(shadow.get(0x5000), 1);
        EXPECT_EQ(shadow.get(0x6000), 2);
    }
    // clear() must also drop the cache.
    shadow.clear();
    EXPECT_EQ(shadow.get(0x5000), 0);
    shadow.set(0x5000, 9);
    EXPECT_EQ(shadow.get(0x5000), 9);
}

TEST(SimHeap, AllocateAndFree)
{
    SimHeap heap(0x1000, 1024);
    const Addr a = heap.malloc(100);
    ASSERT_NE(a, kNoAddr);
    EXPECT_EQ(a, 0x1000u);
    EXPECT_TRUE(heap.isAllocated(a));
    EXPECT_TRUE(heap.isAllocated(a + 99));
    EXPECT_FALSE(heap.isAllocated(a + 104)); // rounded to 104
    EXPECT_EQ(heap.free(a), 104u);
    EXPECT_FALSE(heap.isAllocated(a));
}

TEST(SimHeap, DoubleFreeReturnsZero)
{
    SimHeap heap(0, 1024);
    const Addr a = heap.malloc(16);
    EXPECT_GT(heap.free(a), 0u);
    EXPECT_EQ(heap.free(a), 0u);
    EXPECT_EQ(heap.free(0x500), 0u); // wild free
}

TEST(SimHeap, CoalescingAllowsBigReallocation)
{
    SimHeap heap(0, 1024);
    const Addr a = heap.malloc(256);
    const Addr b = heap.malloc(256);
    const Addr c = heap.malloc(256);
    ASSERT_NE(c, kNoAddr);
    heap.free(b);
    heap.free(a);
    heap.free(c);
    // All three coalesce back into one block covering the whole heap.
    EXPECT_NE(heap.malloc(1024), kNoAddr);
}

TEST(SimHeap, FirstFitReusesFreedBlocks)
{
    SimHeap heap(0, 1024);
    const Addr a = heap.malloc(64);
    heap.malloc(64);
    heap.free(a);
    EXPECT_EQ(heap.malloc(32), a); // hole reused first-fit
}

TEST(SimHeap, OutOfMemoryReturnsSentinel)
{
    SimHeap heap(0, 128);
    EXPECT_NE(heap.malloc(100), kNoAddr);
    EXPECT_EQ(heap.malloc(100), kNoAddr);
}

TEST(SimHeap, BytesInUseTracksAllocations)
{
    SimHeap heap(0, 4096);
    EXPECT_EQ(heap.bytesInUse(), 0u);
    const Addr a = heap.malloc(100);
    EXPECT_EQ(heap.bytesInUse(), 104u);
    heap.free(a);
    EXPECT_EQ(heap.bytesInUse(), 0u);
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(12345), b(12345), c(54321);
    EXPECT_EQ(a.next(), b.next());
    EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(10), 10u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(9);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000, 0.5, 0.05);
}

TEST(StatSet, AddGetMergeDump)
{
    StatSet s;
    s.add("x");
    s.add("x", 4);
    EXPECT_EQ(s.get("x"), 5u);
    EXPECT_EQ(s.get("missing"), 0u);
    StatSet other;
    other.add("x", 10);
    other.add("y", 1);
    s.merge(other);
    EXPECT_EQ(s.get("x"), 15u);
    EXPECT_EQ(s.get("y"), 1u);
}

TEST(Histogram, BucketsAndMean)
{
    Histogram h;
    h.sample(1);
    h.sample(2);
    h.sample(3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_NEAR(h.mean(), 2.0, 1e-9);
}

} // namespace
} // namespace bfly
