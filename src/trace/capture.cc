#include "capture.hh"

#include <algorithm>
#include <cstring>

#include "support/logging.hh"

namespace scif::trace {

namespace {

/** Highest representable packed point id (mnem 248 | exc 31) + 1. */
constexpr size_t pointIdSpace = 8192;

} // namespace

ColumnarCapture::PointBuilder &
ColumnarCapture::builder(uint16_t pointId)
{
    if (byId_.empty())
        byId_.assign(pointIdSpace, -1);
    SCIF_ASSERT(pointId < pointIdSpace);
    int32_t idx = byId_[pointId];
    if (idx < 0) {
        idx = int32_t(builders_.size());
        byId_[pointId] = idx;
        builderIds_.push_back(pointId);
        builders_.emplace_back();
    }
    return builders_[size_t(idx)];
}

void
ColumnarCapture::record(const Record &rec)
{
    PointBuilder &b = builder(rec.point.id());
    size_t base = b.vals.size();
    b.vals.resize(base + numSlots);
    uint32_t *dst = b.vals.data() + base;
    for (uint16_t v = 0; v < numVars; ++v) {
        dst[slotId(v, true)] = rec.pre[v];
        dst[slotId(v, false)] = rec.post[v];
    }
    ++records_;
}

std::vector<std::pair<uint16_t, size_t>>
ColumnarCapture::sortedPoints() const
{
    std::vector<std::pair<uint16_t, size_t>> out;
    out.reserve(builderIds_.size());
    for (size_t i = 0; i < builderIds_.size(); ++i)
        out.emplace_back(builderIds_[i], i);
    std::sort(out.begin(), out.end());
    return out;
}

ColumnSet
ColumnarCapture::seal() const
{
    return seal({this});
}

ColumnSet
ColumnarCapture::seal(const std::vector<const ColumnarCapture *> &captures)
{
    // Row count per point across all captures.
    std::map<uint16_t, size_t> counts;
    for (const auto *c : captures) {
        for (size_t i = 0; i < c->builderIds_.size(); ++i)
            counts[c->builderIds_[i]] += c->builders_[i].rows();
    }

    // Same geometry as ColumnSet::build with all slots materialized:
    // points ascending by id, rows padded to a multiple of 16, one
    // 64-byte-aligned backing allocation per point.
    ColumnSet set;
    set.points_.reserve(counts.size());
    std::map<uint16_t, size_t> pointPos;
    for (const auto &[id, n] : counts) {
        PointColumns pc;
        pc.point_ = Point::fromId(id);
        pc.rows_ = n;
        pc.padded_ = (n + 15) & ~size_t(15);
        pc.data_ = PointColumns::allocate(pc.padded_ * numSlots);
        pc.slotPos_.resize(numSlots);
        for (uint16_t s = 0; s < numSlots; ++s)
            pc.slotPos_[s] = int32_t(s);
        pointPos[id] = set.points_.size();
        set.points_.push_back(std::move(pc));
    }

    // One transpose per (capture, point): the builder's row-major
    // matrix is read column by column (strided but point-local, so it
    // stays cache resident) into the contiguous slot columns.
    // Captures interleave per point in the order given, matching the
    // multi-buffer build().
    std::vector<size_t> cursor(set.points_.size(), 0);
    for (const auto *c : captures) {
        for (size_t i = 0; i < c->builderIds_.size(); ++i) {
            const PointBuilder &b = c->builders_[i];
            size_t rows = b.rows();
            if (rows == 0)
                continue;
            size_t pos = pointPos.at(c->builderIds_[i]);
            PointColumns &pc = set.points_[pos];
            size_t row = cursor[pos];
            uint32_t *data = pc.data_.get();
            const uint32_t *src = b.vals.data();
            for (uint16_t s = 0; s < numSlots; ++s) {
                uint32_t *col = data + size_t(s) * pc.padded_ + row;
                for (size_t r = 0; r < rows; ++r)
                    col[r] = src[r * numSlots + s];
            }
            cursor[pos] = row + rows;
        }
    }
    return set;
}

} // namespace scif::trace
