/**
 * @file
 * The trace-set store: the one on-disk trace format (SCT2).
 *
 * A trace set holds named record streams, one per workload or
 * program. Each stream is split into fixed-record-count chunks; each
 * chunk is encoded column-major (per-column delta + zigzag varints, a
 * packed bit column for flags) and then LZ-compressed, and the file
 * ends with a chunk directory so any chunk can be located and
 * decompressed independently — the basis for parallel reads and for
 * consumers that stream a corpus with O(chunk x jobs) resident memory
 * instead of O(corpus).
 *
 * Layout:
 *
 *   Header (16 B): magic "SCT2", version, numVars, nominal chunk size
 *   Chunk blobs, back to back (LZ-compressed encoded payloads)
 *   Footer: stream directory — per stream its name, record count, and
 *           per chunk {offset, stored bytes, encoded bytes, FNV-1a64
 *           checksum of the encoded payload, record count}
 *   Trailer (12 B): footer offset + footer magic "SCTF"
 *
 * Both the encoders and the compressor are deterministic, so the same
 * record streams always produce byte-identical files — including when
 * the chunks are produced in parallel and raw-merged. The reader
 * treats the file as untrusted bytes: every failure, from a missing
 * file to a bad directory entry or payload, throws support::IoError
 * with the path and, for format problems, the byte offset.
 */

#ifndef SCIFINDER_TRACE_STORE_HH
#define SCIFINDER_TRACE_STORE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/ioerror.hh"
#include "support/memstats.hh"
#include "trace/record.hh"

namespace scif::support {
class ThreadPool;
}

namespace scif::trace {

/** Nominal records per chunk when the caller does not choose. */
constexpr uint32_t defaultChunkRecords = 4096;

/**
 * One named trace of a trace set: the workload (or program) name plus
 * its execution trace.
 */
struct NamedTrace
{
    std::string name;
    TraceBuffer trace;
};

/** Directory entry locating one compressed chunk in the file. */
struct ChunkRef
{
    uint64_t offset = 0;       ///< file offset of the stored blob
    uint64_t storedBytes = 0;  ///< compressed size on disk
    uint64_t encodedBytes = 0; ///< size of the encoded payload
    uint64_t checksum = 0;     ///< FNV-1a64 of the encoded payload
    uint32_t records = 0;      ///< records decoded from this chunk
};

/** Directory entry for one named stream (workload trace). */
struct StreamInfo
{
    std::string name;
    uint64_t records = 0;
    std::vector<ChunkRef> chunks;
};

/**
 * Incremental writer. Records are staged per stream and sealed
 * into compressed chunks every chunkRecords records, so writer memory
 * is bounded by one chunk regardless of stream length. All failures
 * throw support::IoError.
 */
class TraceSetWriter : public TraceSink
{
  public:
    explicit TraceSetWriter(const std::string &path,
                            uint32_t chunkRecords = defaultChunkRecords);
    ~TraceSetWriter() override;

    TraceSetWriter(const TraceSetWriter &) = delete;
    TraceSetWriter &operator=(const TraceSetWriter &) = delete;

    /** Start the next stream; streams are laid out in call order. */
    void beginStream(const std::string &name);

    /** Append one record to the open stream. */
    void record(const Record &rec) override;

    /** Seal the open stream (flushes a partial chunk). */
    void endStream();

    /**
     * Append an already-encoded chunk verbatim to the open stream
     * (parallel-merge fast path). Only valid on a chunk boundary.
     */
    void appendRawChunk(const std::vector<uint8_t> &stored,
                        const ChunkRef &ref);

    /** Write the directory and close; the artifact is invalid until
     *  this succeeds. */
    void close();

    /** @return directory of streams written so far. */
    const std::vector<StreamInfo> &streams() const { return streams_; }

    /** @return records written across all streams. */
    uint64_t totalRecords() const;

  private:
    void sealChunk();
    void writeBlob(const void *data, size_t size);

    std::FILE *file_ = nullptr;
    std::string path_;
    uint32_t chunkRecords_;
    uint64_t offset_ = 0;
    bool inStream_ = false;
    std::vector<StreamInfo> streams_;

    // Row-major staging for the open chunk, converted to columns at
    // seal time.
    std::vector<uint16_t> pointIds_;
    std::vector<uint8_t> fused_;
    std::vector<uint64_t> indexes_;
    std::vector<uint32_t> vals_; // stride 2*numVars: pre then post

    support::ResidentTracker resident_;
};

/**
 * Random-access reader. The directory is parsed and validated up
 * front; chunks are then decompressed on demand via pread, so
 * concurrent readChunk() calls from a thread pool are safe. All
 * failures throw support::IoError.
 */
class TraceSetReader
{
  public:
    explicit TraceSetReader(const std::string &path);
    ~TraceSetReader();

    TraceSetReader(const TraceSetReader &) = delete;
    TraceSetReader &operator=(const TraceSetReader &) = delete;

    const std::string &path() const { return path_; }

    /** @return the nominal records-per-chunk the file was built with. */
    uint32_t chunkRecords() const { return chunkRecords_; }

    const std::vector<StreamInfo> &streams() const { return streams_; }

    uint64_t totalRecords() const;

    /** @return the index of the stream named @p name, or npos. */
    size_t findStream(const std::string &name) const;

    static constexpr size_t npos = size_t(-1);

    /**
     * Decompress, verify, and decode one chunk, appending its records
     * to @p out. Thread-safe.
     */
    void readChunk(size_t stream, size_t chunk, TraceBuffer &out) const;

    /** @return the stored (compressed) bytes of one chunk, verbatim. */
    std::vector<uint8_t> readRawChunk(size_t stream, size_t chunk) const;

    /**
     * Materialize the whole set, decompressing chunks in parallel on
     * @p pool (serial when null). Output is independent of the pool.
     */
    std::vector<NamedTrace> readAll(support::ThreadPool *pool) const;

  private:
    [[noreturn]] void
    corrupt(const std::string &why,
            uint64_t offset = support::IoError::noOffset) const;

    int fd_ = -1;
    std::string path_;
    uint32_t chunkRecords_ = 0;
    uint64_t fileSize_ = 0;
    std::vector<StreamInfo> streams_;
};

/** Sequential decoder over one stream of a TraceSetReader. */
class ChunkCursor
{
  public:
    ChunkCursor(const TraceSetReader &reader, size_t stream)
        : reader_(reader), stream_(stream)
    {}

    /** Replace @p out with the next chunk; false when exhausted. */
    bool nextChunk(TraceBuffer &out);

    /** Record-at-a-time iteration; false when exhausted. */
    bool next(Record &rec);

  private:
    const TraceSetReader &reader_;
    size_t stream_;
    size_t chunk_ = 0;
    TraceBuffer buffer_;
    size_t pos_ = 0;
    bool buffered_ = false;
};

/** Persist an in-memory corpus as a trace set. */
void saveTraceSet(const std::string &path,
                  const std::vector<NamedTrace> &traces,
                  uint32_t chunkRecords = defaultChunkRecords);

/**
 * Merge several trace sets into one by copying their chunks verbatim.
 * Duplicate stream names across inputs are an error.
 */
void mergeTraceSets(const std::string &outPath,
                    const std::vector<std::string> &inputs,
                    uint32_t chunkRecords = defaultChunkRecords);

/**
 * Produce a trace set with one stream per @p names entry, calling
 * produce(i, sink) to emit stream i's records. With a pool, streams
 * are produced concurrently into temporary files and raw-merged, so
 * at most (pool threads) chunk stagings are resident at once; the
 * output is byte-identical to the serial run either way.
 *
 * @return per-stream record counts.
 */
std::vector<uint64_t> buildTraceSetParallel(
    const std::string &path, uint32_t chunkRecords,
    const std::vector<std::string> &names,
    const std::function<void(size_t, TraceSink &)> &produce,
    support::ThreadPool *pool);

} // namespace scif::trace

#endif // SCIFINDER_TRACE_STORE_HH
