/**
 * @file
 * Sets of 64-bit keys stored as sorted, disjoint runs of consecutive keys.
 *
 * ADDRCHECK's allocation facts come in contiguous ranges: one Alloc or
 * Free covers [addr, addr + size), which is thousands of metadata keys
 * for a large allocation, and array accesses walk neighbouring keys. An
 * IntervalSet keeps such a set as maximal closed runs [lo, hi], sorted
 * and coalesced (no two runs overlap or touch), so a range insert, erase
 * or overlap test costs one binary search plus work proportional to the
 * runs it meets, not to the keys it covers.
 *
 * Runs are closed so the last key, ~0, is representable. size() counts
 * keys, the unit the dataflow equations and the cost model use, and
 * sorted() expands the set to keys for reports and tests. A set holding
 * all 2^64 keys would overflow size(); no caller comes close.
 */

#ifndef BUTTERFLY_COMMON_INTERVAL_SET_HPP
#define BUTTERFLY_COMMON_INTERVAL_SET_HPP

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace bfly {

/** A closed run of consecutive keys [lo, hi], lo <= hi. */
struct KeyRun
{
    Addr lo;
    Addr hi;

    std::uint64_t keys() const { return hi - lo + 1; }
    bool operator==(const KeyRun &) const = default;
};

/**
 * The keys [key_of(base), key_of(last byte)] an operation of @p size
 * bytes at @p base touches; a size of 0 touches one byte. The last byte
 * saturates at the top of the address space instead of wrapping, so a
 * range that runs past 2^64 - 1 covers the keys up to the last one
 * rather than none. Every lifeguard, oracle and report maps a byte
 * range to keys through this helper.
 */
template <typename KeyOf>
KeyRun
keyRunOf(Addr base, std::uint64_t size, KeyOf &&key_of)
{
    const Addr span = size > 0 ? size - 1 : 0;
    const Addr last = span > kNoAddr - base ? kNoAddr : base + span;
    return KeyRun{key_of(base), key_of(last)};
}

/**
 * Call @p fn(k) for each key of @p r, ascending. The loop stops at the
 * last key instead of testing k <= r.hi, which never fails for a run
 * ending at key 2^64 - 1.
 */
template <typename Fn>
void
forEachKey(const KeyRun &r, Fn &&fn)
{
    for (Addr k = r.lo;; ++k) {
        fn(k);
        if (k == r.hi)
            return;
    }
}

/** Value-semantic set of keys held as sorted, coalesced runs. */
class IntervalSet
{
  public:
    bool empty() const { return runs_.empty(); }
    /** Number of keys (not runs) in the set. */
    std::uint64_t size() const { return keys_; }
    /** The runs, ascending; consecutive runs neither overlap nor touch. */
    std::span<const KeyRun> runs() const { return runs_; }

    void
    clear()
    {
        runs_.clear();
        keys_ = 0;
    }

    bool
    contains(Addr k) const
    {
        const auto it = firstEndingAtOrAfter(runs_, k);
        return it != runs_.end() && it->lo <= k;
    }

    /** True if some key of [lo, hi] is in the set. */
    bool
    overlaps(Addr lo, Addr hi) const
    {
        const auto it = firstEndingAtOrAfter(runs_, lo);
        return it != runs_.end() && it->lo <= hi;
    }

    /** True if the two sets share a key. */
    bool
    overlaps(const IntervalSet &other) const
    {
        const IntervalSet &small =
            runs_.size() <= other.runs_.size() ? *this : other;
        const IntervalSet &large = &small == this ? other : *this;
        return std::any_of(small.runs_.begin(), small.runs_.end(),
                           [&large](const KeyRun &r) {
                               return large.overlaps(r.lo, r.hi);
                           });
    }

    /**
     * Membership of @p p, narrowing [@p lo, @p hi] (which must contain
     * @p p) to the keys around @p p that share it: the run holding @p p,
     * or the gap between the runs on either side.
     */
    bool
    runAt(Addr p, Addr &lo, Addr &hi) const
    {
        if (runs_.empty())
            return false;
        const auto it = firstEndingAtOrAfter(runs_, p);
        if (it != runs_.end() && it->lo <= p) {
            lo = std::max(lo, it->lo);
            hi = std::min(hi, it->hi);
            return true;
        }
        if (it != runs_.begin())
            lo = std::max(lo, std::prev(it)->hi + 1);
        if (it != runs_.end())
            hi = std::min(hi, it->lo - 1);
        return false;
    }

    /** Add every key of [lo, hi]. */
    void
    insert(Addr lo, Addr hi)
    {
        // Runs in [first, last) overlap or touch [lo, hi].
        const auto first =
            firstEndingAtOrAfter(runs_, lo == 0 ? 0 : lo - 1);
        const auto last =
            hi == kMaxKey ? runs_.end() : firstStartingAfter(hi + 1);
        if (first == last) {
            runs_.insert(first, KeyRun{lo, hi});
            keys_ += hi - lo + 1;
            return;
        }
        const KeyRun merged{std::min(lo, first->lo),
                            std::max(hi, std::prev(last)->hi)};
        for (auto it = first; it != last; ++it)
            keys_ -= it->keys();
        keys_ += merged.keys();
        *first = merged;
        runs_.erase(first + 1, last);
    }

    /** Remove every key of [lo, hi]. */
    void
    erase(Addr lo, Addr hi)
    {
        // Runs in [first, last) overlap [lo, hi].
        const auto first = firstEndingAtOrAfter(runs_, lo);
        const auto last = firstStartingAfter(hi);
        if (first == last)
            return;
        KeyRun keep[2];
        std::size_t nkeep = 0;
        if (first->lo < lo)
            keep[nkeep++] = KeyRun{first->lo, lo - 1};
        if (std::prev(last)->hi > hi)
            keep[nkeep++] = KeyRun{hi + 1, std::prev(last)->hi};
        for (auto it = first; it != last; ++it)
            keys_ -= it->keys();
        for (std::size_t i = 0; i < nkeep; ++i)
            keys_ += keep[i].keys();
        // One run split in two is the only case that grows the vector.
        const auto removed = static_cast<std::size_t>(last - first);
        const auto at = static_cast<std::size_t>(first - runs_.begin());
        if (nkeep > removed) {
            runs_[at] = keep[1];
            runs_.insert(runs_.begin() + static_cast<std::ptrdiff_t>(at),
                         keep[0]);
            return;
        }
        std::copy(keep, keep + nkeep,
                  runs_.begin() + static_cast<std::ptrdiff_t>(at));
        runs_.erase(
            runs_.begin() + static_cast<std::ptrdiff_t>(at + nkeep),
            runs_.begin() + static_cast<std::ptrdiff_t>(at + removed));
    }

    /**
     * Replace the contents with the union of @p runs, given in any order
     * (they may overlap or touch; the span may be reordered). A dense
     * input, whose key span needs no more bitmap words than about twice
     * the number of runs, is merged through a bitmap in linear time;
     * anything sparser is sorted.
     */
    void
    assignUnion(std::span<KeyRun> runs)
    {
        clear();
        if (runs.empty())
            return;
        Addr lo = runs[0].lo;
        Addr hi = runs[0].hi;
        for (const KeyRun &r : runs) {
            lo = std::min(lo, r.lo);
            hi = std::max(hi, r.hi);
        }
        const Addr words = (hi - lo) / 64 + 1;
        if (words > 2 * runs.size() + 64) {
            std::sort(runs.begin(), runs.end(),
                      [](const KeyRun &a, const KeyRun &b) {
                          return a.lo < b.lo;
                      });
            for (const KeyRun &r : runs)
                append(r);
            return;
        }
        std::vector<std::uint64_t> bits(static_cast<std::size_t>(words));
        for (const KeyRun &r : runs)
            setBits(bits, r.lo - lo, r.hi - lo);
        // Emit each maximal run of set bits. A shift pads with zeros,
        // which reads as "clear" when looking for a set bit and as "set"
        // (look further) when looking for a clear one.
        const Addr nbits = words * 64;
        for (Addr i = 0; i < nbits;) {
            const std::uint64_t set = bits[i / 64] >> (i % 64);
            if (set == 0) {
                i = (i / 64 + 1) * 64;
                continue;
            }
            i += static_cast<Addr>(std::countr_zero(set));
            Addr j = i; // first clear bit after i, or nbits
            while (j < nbits) {
                const std::uint64_t clear = ~bits[j / 64] >> (j % 64);
                if (clear != 0) {
                    j += static_cast<Addr>(std::countr_zero(clear));
                    break;
                }
                j = (j / 64 + 1) * 64;
            }
            append(KeyRun{lo + i, lo + j - 1});
            i = j;
        }
    }

    /** In-place union: *this |= other. */
    void
    unionWith(const IntervalSet &other)
    {
        if (other.empty())
            return;
        if (empty()) {
            *this = other;
            return;
        }
        std::vector<KeyRun> mine;
        mine.swap(runs_);
        keys_ = 0;
        runs_.reserve(mine.size() + other.runs_.size());
        auto a = mine.begin();
        auto b = other.runs_.begin();
        while (a != mine.end() || b != other.runs_.end()) {
            if (b == other.runs_.end() ||
                (a != mine.end() && a->lo <= b->lo))
                append(*a++);
            else
                append(*b++);
        }
    }

    /** In-place difference: *this -= other. */
    void
    subtract(const IntervalSet &other)
    {
        if (empty() || other.empty())
            return;
        std::vector<KeyRun> mine;
        mine.swap(runs_);
        keys_ = 0;
        auto cut = other.runs_.begin();
        const auto cut_end = other.runs_.end();
        for (const KeyRun &r : mine) {
            while (cut != cut_end && cut->hi < r.lo)
                ++cut;
            Addr from = r.lo; // first key of r not yet emitted or cut
            bool done = false;
            for (auto c = cut; c != cut_end && c->lo <= r.hi; ++c) {
                if (c->lo > from)
                    append(KeyRun{from, c->lo - 1});
                if (c->hi >= r.hi) {
                    done = true;
                    break;
                }
                from = c->hi + 1;
            }
            if (!done)
                append(KeyRun{from, r.hi});
        }
    }

    /** Keys in ascending order (for reports and tests). */
    std::vector<Addr>
    sorted() const
    {
        std::vector<Addr> out;
        out.reserve(keys_);
        for (const KeyRun &r : runs_)
            forEachKey(r, [&out](Addr k) { out.push_back(k); });
        return out;
    }

  private:
    static constexpr Addr kMaxKey = ~Addr{0};

    /** First run with hi >= k (runs are sorted by hi as well as lo). */
    template <typename Runs>
    static auto
    firstEndingAtOrAfter(Runs &runs, Addr k) -> decltype(runs.begin())
    {
        return std::partition_point(
            runs.begin(), runs.end(),
            [k](const KeyRun &r) { return r.hi < k; });
    }

    /** First run with lo > k. */
    std::vector<KeyRun>::iterator
    firstStartingAfter(Addr k)
    {
        return std::partition_point(
            runs_.begin(), runs_.end(),
            [k](const KeyRun &r) { return r.lo <= k; });
    }

    /** Set bits [a, b] of @p bits. */
    static void
    setBits(std::vector<std::uint64_t> &bits, Addr a, Addr b)
    {
        const Addr wa = a / 64;
        const Addr wb = b / 64;
        const std::uint64_t from = ~std::uint64_t{0} << (a % 64);
        const std::uint64_t to = ~std::uint64_t{0} >> (63 - b % 64);
        if (wa == wb) {
            bits[wa] |= from & to;
            return;
        }
        bits[wa] |= from;
        for (Addr w = wa + 1; w < wb; ++w)
            bits[w] = ~std::uint64_t{0};
        bits[wb] |= to;
    }

    /** Add @p r, which starts at or after every run's lo. */
    void
    append(const KeyRun &r)
    {
        if (!runs_.empty()) {
            KeyRun &back = runs_.back();
            if (back.hi == kMaxKey || r.lo <= back.hi + 1) {
                if (r.hi > back.hi) {
                    keys_ += r.hi - back.hi;
                    back.hi = r.hi;
                }
                return;
            }
        }
        runs_.push_back(r);
        keys_ += r.keys();
    }

    std::vector<KeyRun> runs_;
    std::uint64_t keys_ = 0;
};

} // namespace bfly

#endif // BUTTERFLY_COMMON_INTERVAL_SET_HPP
