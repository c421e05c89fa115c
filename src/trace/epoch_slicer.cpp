#include "trace/epoch_slicer.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/rng.hpp"

namespace bfly {

namespace {

/**
 * The byGlobalSeq boundary table, computed without materializing the
 * filtered event streams: starts[t][l] is the index (heartbeats
 * excluded) of block (l,t)'s first event. Shared by
 * EpochLayout::byGlobalSeq and EpochStream so the streamed epoch
 * structure is identical to the materialized one by construction.
 */
std::size_t
globalSeqStarts(const Trace &trace, std::size_t global_h,
                std::vector<std::vector<std::size_t>> &starts)
{
    ensure(global_h > 0, "global epoch size must be positive");
    starts.assign(trace.threads.size(), {});
    std::size_t max_epochs = 0;

    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        // Epoch of event i = its gseq bucket, clamped non-decreasing so
        // the block stays contiguous when relaxed visibility reordered
        // gseq slightly out of program order.
        starts[t].push_back(0);
        EpochId current = 0;
        std::size_t i = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat)
                continue;
            const std::uint64_t g = e.gseq > 0 ? e.gseq - 1 : 0;
            const EpochId epoch = std::max<EpochId>(current, g / global_h);
            while (current < epoch) {
                starts[t].push_back(i);
                ++current;
            }
            ++i;
        }
        starts[t].push_back(i);
        max_epochs = std::max(max_epochs, starts[t].size() - 1);
    }
    return max_epochs;
}

/**
 * The fromHeartbeats boundary table: block (l,t) spans the non-heartbeat
 * events between marker l-1 and marker l — the cuts HeartbeatBlocks
 * makes, computed without copying any event, for EpochStream's
 * heartbeat mode.
 */
std::size_t
heartbeatStarts(const Trace &trace,
                std::vector<std::vector<std::size_t>> &starts)
{
    starts.assign(trace.threads.size(), {});
    std::size_t max_epochs = 0;
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        starts[t].push_back(0);
        std::size_t i = 0;
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat)
                starts[t].push_back(i);
            else
                ++i;
        }
        starts[t].push_back(i);
        max_epochs = std::max(max_epochs, starts[t].size() - 1);
    }
    return max_epochs;
}

/**
 * Rewrite a padded boundary table (every thread numEpochs+1 entries) to
 * the coalesced slicing: analyzed epoch i spans spans[i] consecutive
 * source epochs, so its block simply runs from the first merged source
 * epoch's start to the start right past the last one. Shared by
 * coalescedFromHeartbeats and adopt, so the server and the reference
 * realize the identical boundary table.
 */
void
coalesceStarts(std::vector<std::vector<std::size_t>> &starts,
               std::size_t num_epochs,
               std::span<const std::uint32_t> spans)
{
    std::size_t total = 0;
    for (const std::uint32_t k : spans) {
        ensure(k >= 1, "coalescing spans must be positive");
        total += k;
    }
    ensure(total == num_epochs,
           "coalescing spans must cover every source epoch exactly once");

    for (auto &s : starts) {
        std::vector<std::size_t> merged;
        merged.reserve(spans.size() + 1);
        std::size_t cum = 0;
        merged.push_back(s[0]);
        for (const std::uint32_t k : spans) {
            cum += k;
            merged.push_back(s[cum]);
        }
        s = std::move(merged);
    }
}

/**
 * Consult @p reslice once per group, in leader order, over a padded
 * boundary table of @p num_epochs source epochs, and return the merge
 * widths it chose.
 */
std::vector<std::uint32_t>
reslicedSpans(const std::vector<std::vector<std::size_t>> &starts,
              std::size_t num_epochs, const ReslicePolicy &reslice)
{
    std::vector<std::size_t> epoch_events(num_epochs, 0);
    for (const auto &s : starts)
        for (std::size_t l = 0; l < num_epochs; ++l)
            epoch_events[l] += s[l + 1] - s[l];

    std::vector<std::uint32_t> spans;
    std::size_t leader = 0;
    while (leader < num_epochs) {
        std::size_t k = reslice(leader, epoch_events);
        k = std::clamp<std::size_t>(k, 1, num_epochs - leader);
        spans.push_back(static_cast<std::uint32_t>(k));
        leader += k;
    }
    return spans;
}

/** Every thread of @p trace cut at its markers by HeartbeatBlocks. */
std::vector<HeartbeatBlocks>
sliceAtHeartbeats(const Trace &trace)
{
    std::vector<HeartbeatBlocks> threads(trace.threads.size());
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        threads[t].events.reserve(trace.threads[t].events.size());
        for (const Event &e : trace.threads[t].events)
            threads[t].push(e);
    }
    return threads;
}

/** Pad every thread's boundary table to @p num_epochs with empty blocks. */
void
padStarts(std::vector<std::vector<std::size_t>> &starts,
          std::size_t num_epochs)
{
    for (auto &s : starts) {
        while (s.size() < num_epochs + 1)
            s.push_back(s.back());
    }
}

std::vector<ThreadId>
tidsOf(const Trace &trace)
{
    std::vector<ThreadId> tids;
    tids.reserve(trace.threads.size());
    for (const ThreadTrace &t : trace.threads)
        tids.push_back(t.tid);
    return tids;
}

} // namespace

EpochLayout::EpochLayout(const Trace &trace, std::size_t num_epochs,
                         std::vector<std::vector<std::size_t>> starts)
    : numEpochs_(num_epochs), starts_(std::move(starts)),
      filtered_(trace.threads.size()), tids_(tidsOf(trace))
{
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        filtered_[t].reserve(trace.threads[t].events.size());
        for (const Event &e : trace.threads[t].events)
            if (e.kind != EventKind::Heartbeat)
                filtered_[t].push_back(e);
    }
    padStarts(starts_, numEpochs_);
}

EpochLayout::EpochLayout(std::vector<ThreadId> tids,
                         std::vector<HeartbeatBlocks> threads)
    : tids_(std::move(tids))
{
    starts_.reserve(threads.size());
    filtered_.reserve(threads.size());
    for (HeartbeatBlocks &b : threads) {
        // Close the final (possibly heartbeat-less) block.
        b.starts.push_back(b.events.size());
        numEpochs_ = std::max(numEpochs_, b.starts.size() - 1);
        starts_.push_back(std::move(b.starts));
        filtered_.push_back(std::move(b.events));
    }
    padStarts(starts_, numEpochs_);
}

void
EpochLayout::coalesce(std::span<const std::uint32_t> spans)
{
    coalesceStarts(starts_, numEpochs_, spans);
    numEpochs_ = spans.size();
}

EpochLayout
EpochLayout::fromHeartbeats(const Trace &trace)
{
    return EpochLayout(tidsOf(trace), sliceAtHeartbeats(trace));
}

EpochLayout
EpochLayout::coalescedFromHeartbeats(const Trace &trace,
                                     std::span<const std::uint32_t> spans)
{
    EpochLayout layout(tidsOf(trace), sliceAtHeartbeats(trace));
    layout.coalesce(spans);
    return layout;
}

EpochLayout
EpochLayout::adopt(std::vector<HeartbeatBlocks> threads,
                   const ReslicePolicy &reslice,
                   std::vector<std::uint32_t> *realized_spans)
{
    std::vector<ThreadId> tids(threads.size());
    for (std::size_t t = 0; t < tids.size(); ++t)
        tids[t] = static_cast<ThreadId>(t);
    EpochLayout layout(std::move(tids), std::move(threads));
    if (reslice && layout.numEpochs_ > 0) {
        // Merging whole source epochs keeps every realized boundary a
        // heartbeat boundary, so the 3-epoch window invariants hold on
        // the coarsened slicing exactly as on the source slicing.
        std::vector<std::uint32_t> spans =
            reslicedSpans(layout.starts_, layout.numEpochs_, reslice);
        layout.coalesce(spans);
        if (realized_spans)
            *realized_spans = std::move(spans);
    }
    return layout;
}

EpochLayout
EpochLayout::uniform(const Trace &trace, std::size_t h)
{
    ensure(h > 0, "uniform epoch size must be positive");
    std::vector<std::vector<std::size_t>> starts(trace.threads.size());
    std::size_t max_epochs = 0;

    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        const std::size_t n = trace.threads[t].instructionCount();
        for (std::size_t pos = 0; ; pos += h) {
            starts[t].push_back(std::min(pos, n));
            if (pos >= n)
                break;
        }
        max_epochs = std::max(max_epochs, starts[t].size() - 1);
    }
    return EpochLayout(trace, max_epochs, std::move(starts));
}

EpochLayout
EpochLayout::byGlobalSeq(const Trace &trace, std::size_t global_h)
{
    std::vector<std::vector<std::size_t>> starts;
    const std::size_t max_epochs = globalSeqStarts(trace, global_h, starts);
    return EpochLayout(trace, max_epochs, std::move(starts));
}

EpochLayout
EpochLayout::byGlobalSeqSkewed(const Trace &trace, std::size_t global_h,
                               std::size_t max_skew, std::uint64_t seed)
{
    ensure(global_h > 0, "global epoch size must be positive");
    ensure(max_skew < global_h,
           "heartbeat skew must be below the epoch size (the paper "
           "sizes epochs to absorb delivery skew)");

    // Delivery delay of heartbeat k at thread t, deterministic in seed.
    auto skew_of = [&](std::size_t t, EpochId k) -> std::uint64_t {
        if (max_skew == 0)
            return 0;
        Rng rng(seed ^ (0x9e3779b97f4a7c15ull * (t + 1)) ^
                (0xc2b2ae3d27d4eb4full * (k + 1)));
        return rng.below(max_skew + 1);
    };

    std::vector<std::vector<std::size_t>> starts(trace.threads.size());
    std::size_t max_epochs = 0;

    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        starts[t].push_back(0);
        EpochId current = 0;
        // Boundary of epoch k at thread t: heartbeat k's nominal time
        // k*global_h plus its delivery delay.
        auto boundary = [&](EpochId k) {
            return static_cast<std::uint64_t>(k) * global_h +
                   skew_of(t, k);
        };
        std::size_t i = 0; // heartbeats excluded
        for (const Event &e : trace.threads[t].events) {
            if (e.kind == EventKind::Heartbeat)
                continue;
            const std::uint64_t g = e.gseq > 0 ? e.gseq - 1 : 0;
            while (g >= boundary(current + 1)) {
                starts[t].push_back(i);
                ++current;
            }
            ++i;
        }
        starts[t].push_back(i);
        max_epochs = std::max(max_epochs, starts[t].size() - 1);
    }
    return EpochLayout(trace, max_epochs, std::move(starts));
}

std::size_t
EpochLayout::instructionCount() const
{
    std::size_t n = 0;
    for (const auto &events : filtered_)
        n += events.size();
    return n;
}

BlockView
EpochLayout::block(EpochId l, ThreadId t) const
{
    ensure(t < starts_.size(), "thread id out of range");
    ensure(l < numEpochs_, "epoch id out of range");
    const auto &s = starts_[t];
    const std::size_t begin = s[l];
    const std::size_t end = s[l + 1];
    return BlockView{
        l, tids_[t],
        std::span<const Event>(filtered_[t].data() + begin, end - begin),
        begin};
}

EpochStream::EpochStream(const Trace &trace, Config config)
    : trace_(trace), backPressure_(config.backPressure)
{
    ensure(config.windowEpochs >= 4,
           "EpochStream window must hold at least 4 epochs (body, both "
           "wings, and the epoch being admitted)");
    numEpochs_ = config.fromHeartbeats
                     ? heartbeatStarts(trace, starts_)
                     : globalSeqStarts(trace, config.globalH, starts_);

    // Pad exactly as the EpochLayout constructors do.
    padStarts(starts_, numEpochs_);
    tids_ = tidsOf(trace);

    const std::size_t T = trace.threads.size();
    cells_.resize(config.windowEpochs);
    for (Cell &c : cells_) {
        c.events.resize(T);
        c.first.resize(T, 0);
    }
    rawPos_.assign(T, 0);
    filteredPos_.assign(T, 0);
}

void
EpochStream::acquire(EpochId l)
{
    ensure(l == nextAcquire_, "epochs must be acquired in order");
    ensure(l < numEpochs_, "epoch id out of range");
    Cell &cell = cellOf(l);
    ensure(cell.epoch == kNoEpoch,
           "EpochStream ring cell still resident (retire the oldest "
           "epoch before admitting a new one)");

    // Model the log-buffer occupancy at admission: the platform has
    // produced this epoch's events while the window was busy; admission
    // drains them. An epoch that exceeds the buffer records the stalls
    // the application core would have taken.
    const std::size_t T = starts_.size();
    if (backPressure_) {
        for (std::size_t t = 0; t < T; ++t) {
            const std::size_t n = starts_[t][l + 1] - starts_[t][l];
            for (std::size_t k = 0; k < n; ++k)
                backPressure_->produce();
        }
        backPressure_->heartbeat();
    }

    for (std::size_t t = 0; t < T; ++t) {
        std::vector<Event> &out = cell.events[t];
        out.clear();
        cell.first[t] = starts_[t][l];
        const std::size_t end = starts_[t][l + 1];
        const auto &raw = trace_.threads[t].events;
        while (filteredPos_[t] < end) {
            const Event &e = raw[rawPos_[t]++];
            if (e.kind == EventKind::Heartbeat)
                continue;
            out.push_back(e);
            ++filteredPos_[t];
            if (backPressure_)
                backPressure_->consume();
        }
    }
    cell.epoch = l;
    ++nextAcquire_;

    peakResident_ = std::max(peakResident_, ++resident_);
}

BlockView
EpochStream::block(EpochId l, ThreadId t) const
{
    ensure(t < starts_.size(), "thread id out of range");
    const Cell &cell = cellOf(l);
    ensure(cell.epoch == l, "block() requires a resident epoch");
    return BlockView{l, tids_[t],
                     std::span<const Event>(cell.events[t].data(),
                                            cell.events[t].size()),
                     cell.first[t]};
}

void
EpochStream::retire(EpochId l)
{
    ensure(l == nextRetire_, "epochs must be retired in order");
    Cell &cell = cellOf(l);
    ensure(cell.epoch == l, "retire() of a non-resident epoch");
    cell.epoch = kNoEpoch;
    // Keep the vectors' capacity: the ring reuses their storage for the
    // epoch that lands in this cell windowEpochs later.
    for (auto &v : cell.events)
        v.clear();
    ++nextRetire_;
    --resident_;
}

std::uint64_t
EpochStream::producerStalls() const
{
    return backPressure_ ? backPressure_->producerStalls() : 0;
}

} // namespace bfly
