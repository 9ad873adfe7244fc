/**
 * @file
 * Trace records and program points.
 *
 * One record is emitted per retired instruction, with two adaptations
 * from the paper: a control-flow instruction and its delay-slot
 * instruction are fused into a single record (§3.1.5), and a record
 * that takes a synchronous exception is filed under an
 * exception-qualified program point ("l.add@range") so that
 * exceptional and normal behaviour are modelled separately.
 * Asynchronous interrupts get their own pseudo points ("int@tick").
 */

#ifndef SCIFINDER_TRACE_RECORD_HH
#define SCIFINDER_TRACE_RECORD_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/arch.hh"
#include "isa/insn.hh"
#include "trace/schema.hh"

namespace scif::trace {

/**
 * A program point identifier: (mnemonic, exception) packed into a
 * 16-bit id. Interrupt pseudo points use the reserved mnemonic slot.
 */
class Point
{
  public:
    Point() = default;

    /** Point for an instruction, optionally exception qualified. */
    static Point
    insn(isa::Mnemonic m, isa::Exception e = isa::Exception::None)
    {
        return Point(uint16_t(m), uint8_t(e));
    }

    /** Pseudo point for an asynchronous interrupt. */
    static Point
    interrupt(isa::Exception e)
    {
        return Point(pseudoMnemonic, uint8_t(e));
    }

    /** @return packed id usable as a map key. */
    uint16_t id() const { return uint16_t(mnem_ << 5 | exc_); }

    /** Rebuild a Point from its packed id. */
    static Point
    fromId(uint16_t id)
    {
        return Point(id >> 5, uint8_t(id & 0x1f));
    }

    /**
     * @return true if @p id packs an implemented mnemonic (or the
     * interrupt slot) with a defined exception — the ids fromId()
     * may be given from untrusted bytes.
     */
    static bool
    validId(uint16_t id)
    {
        uint16_t mnem = id >> 5;
        return (mnem < isa::numMnemonics || mnem == pseudoMnemonic) &&
               (id & 0x1f) <= uint8_t(isa::Exception::Trap);
    }

    /** @return true for interrupt pseudo points. */
    bool isInterrupt() const { return mnem_ == pseudoMnemonic; }

    /** @return the instruction mnemonic (only for non-pseudo points). */
    isa::Mnemonic mnemonic() const { return isa::Mnemonic(mnem_); }

    /** @return the qualifying exception (None if unqualified). */
    isa::Exception exception() const { return isa::Exception(exc_); }

    /** @return printable name, e.g. "l.add", "l.sys@syscall". */
    std::string name() const;

    /** Parse a point name back; aborts on malformed input. */
    static Point parse(const std::string &name);

    bool operator==(const Point &o) const = default;
    bool operator<(const Point &o) const { return id() < o.id(); }

  private:
    Point(uint16_t mnem, uint8_t exc) : mnem_(mnem), exc_(exc) {}

    /** Mnemonic slot reserved for interrupt pseudo points. */
    static constexpr uint16_t pseudoMnemonic = 248;

    uint16_t mnem_ = 0;
    uint8_t exc_ = 0;
};

/**
 * One instruction-boundary observation: the program point plus the
 * value of every schema variable before (orig) and after execution.
 */
struct Record
{
    Point point;
    uint64_t index = 0;   ///< retired-instruction sequence number
    bool fused = false;   ///< control-flow pair fused into this record

    std::array<uint32_t, numVars> pre{};
    std::array<uint32_t, numVars> post{};

    uint32_t orig(uint16_t var) const { return pre[var]; }
    uint32_t now(uint16_t var) const { return post[var]; }
};

/** Sink interface the simulator emits records into. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Consume one record. */
    virtual void record(const Record &rec) = 0;
};

/** In-memory trace: the common sink for analysis runs. */
class TraceBuffer : public TraceSink
{
  public:
    void record(const Record &rec) override { records_.push_back(rec); }

    const std::vector<Record> &records() const { return records_; }
    size_t size() const { return records_.size(); }
    void clear() { records_.clear(); }

    /** Pre-size the backing store for @p n records. */
    void reserve(size_t n) { records_.reserve(n); }

    /** Append all records of another buffer. */
    void append(const TraceBuffer &other);

  private:
    std::vector<Record> records_;
};

} // namespace scif::trace

#endif // SCIFINDER_TRACE_RECORD_HH
