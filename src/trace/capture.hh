/**
 * @file
 * Capture-time columnar tracing.
 *
 * The classic pipeline buffers every simulator record into an AoS
 * TraceBuffer and later transposes the whole set into the SoA
 * matrices of trace/columns.hh. A ColumnarCapture removes the
 * intermediate: each record the Cpu emits is bucketed straight into
 * its program point's builder as it is produced, so sealing into a
 * ColumnSet is one small in-cache transpose per point instead of a
 * second full pass over a trace-sized AoS buffer — the post-hoc
 * transpose and its allocation churn become optional.
 *
 * The capture keeps only the state values, not the record stream: a
 * sealed set equals ColumnSet::build over the same records (the
 * gtest differential suite enforces it). Persisted traces stream
 * through trace::TraceSetWriter instead.
 */

#ifndef SCIFINDER_TRACE_CAPTURE_HH
#define SCIFINDER_TRACE_CAPTURE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/columns.hh"
#include "trace/record.hh"

namespace scif::trace {

/** A TraceSink that builds per-point columns as records arrive.
 *  Final so the simulator's columnar dispatch loop, which selects
 *  this concrete type once per run, emits records through a direct
 *  call instead of the TraceSink vtable. */
class ColumnarCapture final : public TraceSink
{
  public:
    void record(const Record &rec) override;

    /** @return number of records captured. */
    size_t size() const { return records_; }

    /**
     * Seal this capture into a ColumnSet with every slot
     * materialized — identical (values, row order, padding) to
     * ColumnSet::build over the equivalent record stream.
     */
    ColumnSet seal() const;

    /**
     * Merge-seal several captures, rows interleaved per point in
     * capture order — identical to ColumnSet::build over the
     * corresponding TraceBuffer list.
     */
    static ColumnSet
    seal(const std::vector<const ColumnarCapture *> &captures);

  private:
    /** Growable value matrix of one program point, row-major in slot
     *  order (one contiguous append per record, so the capture loop
     *  touches a single buffer tail per point). seal() turns each
     *  point's matrix slot-major with one in-cache transpose per
     *  point. */
    struct PointBuilder
    {
        std::vector<uint32_t> vals; ///< [rows][numSlots]

        size_t rows() const { return vals.size() / numSlots; }
    };

    PointBuilder &builder(uint16_t pointId);

    /** Point ids sorted ascending, with the matching builder index
     *  (the order ColumnSet::build produces points in). */
    std::vector<std::pair<uint16_t, size_t>> sortedPoints() const;

    std::vector<PointBuilder> builders_;  ///< in first-seen order
    std::vector<uint16_t> builderIds_;    ///< point id per builder
    std::vector<int32_t> byId_;           ///< point id -> builder index
    size_t records_ = 0;                  ///< records captured
};

/** A named capture, one per workload (mirrors trace::NamedTrace). */
struct NamedCapture
{
    std::string name;
    ColumnarCapture capture;
};

} // namespace scif::trace

#endif // SCIFINDER_TRACE_CAPTURE_HH
