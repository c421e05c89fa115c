/**
 * @file
 * Compressed binary encoding of per-thread event logs.
 *
 * The LBA platform ships each application thread's dynamic event stream
 * through an 8 KB on-chip buffer, so record size directly sets the
 * monitoring back-pressure (the timing model's bytes-per-record
 * parameter). This codec implements a realistic compact format:
 *
 *  - one opcode byte per event (kind + source-count + small-size flags);
 *  - LEB128 varints for sizes that do not fit the opcode;
 *  - zig-zag delta encoding of addresses against a per-stream last
 *    address, exploiting the spatial locality of real traces;
 *  - heartbeats and barriers encode in a single byte.
 *
 * Round-trip (encode then decode) is exact for every field the
 * lifeguards consume; gseq stamps are execution metadata and are *not*
 * encoded (a real log has no global order — that is the whole premise).
 * The per-event `site` id is likewise generation-side metadata and is
 * dropped — except on SiteSummary events, whose whole payload is the
 * (site, elided-count) pair the static elision pass emits in place of a
 * run of provably-uninteresting events (see src/staticpass/).
 */

#ifndef BUTTERFLY_TRACE_LOG_CODEC_HPP
#define BUTTERFLY_TRACE_LOG_CODEC_HPP

#include <cstdint>
#include <span>
#include <vector>

#include <string>

#include "trace/epoch_slicer.hpp"
#include "trace/trace.hpp"

namespace bfly {

/** Encodes one thread's event stream into a compact byte log. */
class LogEncoder
{
  public:
    /** Append one event to the log. */
    void encode(const Event &e);

    /** The encoded bytes so far. */
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }

    /** Events encoded. */
    std::size_t eventCount() const { return count_; }

    /** Mean bytes per encoded event (the timing model's record size). */
    double
    bytesPerEvent() const
    {
        return count_ ? static_cast<double>(bytes_.size()) / count_
                      : 0.0;
    }

  private:
    void putVarint(std::uint64_t v);
    void putSignedDelta(Addr addr);

    std::vector<std::uint8_t> bytes_;
    Addr lastAddr_ = 0;
    std::size_t count_ = 0;
};

/** Outcome of one incremental decode attempt. */
enum class DecodeStatus : std::uint8_t {
    Ok,       ///< one event decoded
    NeedMore, ///< the buffer ends mid-event; feed more bytes and retry
    Corrupt,  ///< structurally invalid input (bad kind, overlong varint,
              ///< flag on an addressless opcode, oversized field)
};

const char *decodeStatusName(DecodeStatus status);

/** Decodes a byte log produced by LogEncoder. */
class LogDecoder
{
  public:
    explicit LogDecoder(std::span<const std::uint8_t> bytes)
        : bytes_(bytes)
    {}

    /** True if another event is available. */
    bool done() const { return pos_ >= bytes_.size(); }

    /**
     * Decode the next event.
     * @pre !done()
     * Trusted-input convenience: aborts via fatal() on malformed bytes.
     * Untrusted input (wire frames, files) must use tryDecode instead.
     */
    Event decode();

    /**
     * Attempt to decode the next event without asserting. On Ok, @p out
     * holds the event and the cursor advances past it. On NeedMore or
     * Corrupt the decoder state (cursor and delta base) is unchanged, so
     * a NeedMore caller can retry after appending bytes to a fresh span
     * that extends this one (see ChunkedLogDecoder).
     */
    DecodeStatus tryDecode(Event &out);

    /** Bytes consumed so far. */
    std::size_t pos() const { return pos_; }

    /** Delta base for the next address field (stream state). */
    Addr lastAddr() const { return lastAddr_; }

    /** Restore stream state carried across spans (see ChunkedLogDecoder). */
    void restore(Addr last_addr) { lastAddr_ = last_addr; }

  private:
    DecodeStatus getVarint(std::uint64_t &v);
    DecodeStatus getSignedDelta(Addr &out);

    std::span<const std::uint8_t> bytes_;
    std::size_t pos_ = 0;
    Addr lastAddr_ = 0;
};

/**
 * Incremental decoder over a stream delivered in arbitrary chunks (wire
 * frames may split an event mid-varint). decodeChunk() decodes every
 * event a chunk completes in one loop; feed() + next() is the same loop
 * one event at a time. A partial trailing event waits in pendingBytes()
 * for the next chunk (NeedMore); a structurally invalid stream is
 * Corrupt — sticky: a corrupt stream never recovers, matching the wire
 * protocol's drop-session policy.
 */
class ChunkedLogDecoder
{
  public:
    /** Longest encoded event: an opcode plus four 10-byte varints (an
     *  overlong varint is read in full before it is rejected). */
    static constexpr std::size_t kMaxEventBytes = 41;

    /**
     * Decode every event @p bytes completes into @p out and keep only
     * the partial tail, if any. Without a pending tail the events are
     * decoded straight out of @p bytes; with one, just enough of the
     * chunk is copied behind it to finish it.
     * @return NeedMore once every complete event is out, or Corrupt.
     */
    DecodeStatus decodeChunk(std::span<const std::uint8_t> bytes,
                             HeartbeatBlocks &out);

    /** Append a chunk of encoded bytes to the pending buffer. */
    void feed(std::span<const std::uint8_t> bytes);

    /** Decode the next complete event out of the buffered bytes. */
    DecodeStatus next(Event &out);

    /** Events decoded so far (the per-thread instruction cursor). */
    std::size_t eventsDecoded() const { return eventsDecoded_; }

    /** Bytes buffered but not yet consumed by complete events. */
    std::size_t pendingBytes() const { return buffer_.size() - consumed_; }

  private:
    /** The one decode loop: events of @p bytes that start before
     *  @p stop go to @p sink until it returns false; the cursor (into
     *  @p used) and the delta base are committed once, at the end. */
    template <typename Sink>
    DecodeStatus decodeRun(std::span<const std::uint8_t> bytes,
                           std::size_t stop, Sink &&sink,
                           std::size_t &used);

    std::vector<std::uint8_t> buffer_;
    std::size_t consumed_ = 0;      ///< prefix already decoded
    Addr lastAddr_ = 0;             ///< delta base across chunks
    std::size_t eventsDecoded_ = 0;
    bool corrupt_ = false;
};

/**
 * A session's per-thread logs decoded straight into epoch blocks: each
 * chunk goes through its thread's ChunkedLogDecoder into that thread's
 * HeartbeatBlocks in one pass, and layout() hands the decoded storage
 * to EpochLayout::adopt without a copy.
 */
class BlockIngest
{
  public:
    /**
     * @param storage  event vectors to decode into, one per thread from
     *                 thread 0 (typically a spent layout's
     *                 releaseEvents()): they are emptied but keep their
     *                 capacity. Threads beyond it start with fresh
     *                 vectors; vectors beyond @p threads are freed.
     */
    explicit BlockIngest(std::size_t threads = 0,
                         std::vector<std::vector<Event>> storage = {});

    /** Decode one chunk of thread @p t's log (see decodeChunk). */
    DecodeStatus
    feed(ThreadId t, std::span<const std::uint8_t> bytes)
    {
        return decoders_[t].decodeChunk(bytes, blocks_[t]);
    }

    /** Events decoded over all threads, heartbeats included. */
    std::size_t eventsDecoded() const;

    /** SiteSummary events decoded over all threads. */
    std::uint64_t summaryEvents() const;

    /** Bytes of partial events still waiting for more of their log. */
    std::size_t pendingBytes() const;

    /** The decoded epochs (consumes the ingest; see EpochLayout::adopt). */
    EpochLayout layout(const ReslicePolicy &reslice = {},
                       std::vector<std::uint32_t> *realized_spans =
                           nullptr) &&;

  private:
    std::vector<ChunkedLogDecoder> decoders_;
    std::vector<HeartbeatBlocks> blocks_;
};

/** Encode a whole thread trace; convenience for tests and tools. */
std::vector<std::uint8_t> encodeEvents(const std::vector<Event> &events);

/** Decode a whole byte log. */
std::vector<Event> decodeEvents(std::span<const std::uint8_t> bytes);

/**
 * Copy of @p trace with Heartbeat markers inserted at @p layout's block
 * boundaries, so the epoch structure survives serialization (a stored
 * log has no global order — gseq is execution metadata and is dropped).
 */
Trace withHeartbeatMarkers(const Trace &trace, const EpochLayout &layout);

/**
 * Write a multithreaded trace to a log file (magic, thread count, then
 * per thread: tid + encoded byte length + bytes).
 * @return true on success.
 */
bool saveTrace(const Trace &trace, const std::string &path);

/**
 * Read a log file written by saveTrace.
 * @throws via fatal() on malformed input.
 */
Trace loadTrace(const std::string &path);

} // namespace bfly

#endif // BUTTERFLY_TRACE_LOG_CODEC_HPP
