#include "compile.hh"

#include <algorithm>

#include "support/logging.hh"

namespace scif::expr {

namespace {

/** Registers used: lhs in r0 (scratch r1), rhs in r2 (scratch r3). */
constexpr uint8_t kNumRegs = 4;

/** Append the program computing @p o into register @p dst. */
void
compileOperand(const Operand &o, uint8_t dst, uint8_t scratch,
               std::vector<Insn> &out)
{
    if (o.isConst) {
        out.push_back({OpCode::LoadImm, dst, 0, 0, o.constVal});
        return;
    }
    out.push_back({OpCode::LoadCol, dst, 0, 0,
                   trace::slotId(o.a.var, o.a.orig)});
    if (o.op2 != Op2::None) {
        out.push_back({OpCode::LoadCol, scratch, 0, 0,
                       trace::slotId(o.b.var, o.b.orig)});
        OpCode op = OpCode::Add;
        switch (o.op2) {
          case Op2::And: op = OpCode::And; break;
          case Op2::Or: op = OpCode::Or; break;
          case Op2::Add: op = OpCode::Add; break;
          case Op2::Sub: op = OpCode::Sub; break;
          case Op2::None: break;
        }
        out.push_back({op, dst, dst, scratch, 0});
    }
    if (o.negate)
        out.push_back({OpCode::Not, dst, dst, 0, 0});
    if (o.mulImm != 1)
        out.push_back({OpCode::MulImm, dst, dst, 0, o.mulImm});
    if (o.modImm != 0) {
        if ((o.modImm & (o.modImm - 1)) == 0) {
            out.push_back(
                {OpCode::AndImm, dst, dst, 0, o.modImm - 1});
        } else {
            out.push_back({OpCode::ModImm, dst, dst, 0, o.modImm});
        }
    }
    if (o.addImm != 0)
        out.push_back({OpCode::AddImm, dst, dst, 0, o.addImm});
}

} // namespace

CompiledInvariant
CompiledInvariant::compile(const Invariant &inv)
{
    CompiledInvariant c;
    compileOperand(inv.lhs, 0, 1, c.program_);
    if (inv.op == CmpOp::In) {
        c.set_ = inv.set;
        std::sort(c.set_.begin(), c.set_.end());
        // The result register must not alias src1: the batch kernel's
        // small-set sweep zeroes dst before reading the input.
        c.program_.push_back({OpCode::InSet, 1, 0, 0, 0});
        c.resultReg_ = 1;
        return c;
    }
    compileOperand(inv.rhs, 2, 3, c.program_);
    // < and <= become > and >= with swapped sources.
    switch (inv.op) {
      case CmpOp::Eq:
        c.program_.push_back({OpCode::CmpEq, 0, 0, 2, 0});
        break;
      case CmpOp::Ne:
        c.program_.push_back({OpCode::CmpNe, 0, 0, 2, 0});
        break;
      case CmpOp::Gt:
        c.program_.push_back({OpCode::CmpGt, 0, 0, 2, 0});
        break;
      case CmpOp::Ge:
        c.program_.push_back({OpCode::CmpGe, 0, 0, 2, 0});
        break;
      case CmpOp::Lt:
        c.program_.push_back({OpCode::CmpGt, 0, 2, 0, 0});
        break;
      case CmpOp::Le:
        c.program_.push_back({OpCode::CmpGe, 0, 2, 0, 0});
        break;
      case CmpOp::In:
        break;
    }
    c.resultReg_ = 0;
    return c;
}

void
CompiledInvariant::runBlock(const trace::PointColumns &cols,
                            size_t begin, size_t len,
                            uint32_t regs[][kBlock]) const
{
    for (const Insn &insn : program_) {
        uint32_t *rd = regs[insn.dst];
        const uint32_t *r1 = regs[insn.src1];
        const uint32_t *r2 = regs[insn.src2];
        switch (insn.op) {
          case OpCode::LoadCol: {
            const uint32_t *col = cols.column(uint16_t(insn.imm));
            SCIF_ASSERT(col != nullptr);
            const uint32_t *src = col + begin;
            for (size_t k = 0; k < len; ++k)
                rd[k] = src[k];
            break;
          }
          case OpCode::LoadImm:
            for (size_t k = 0; k < len; ++k)
                rd[k] = insn.imm;
            break;
          case OpCode::And:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] & r2[k];
            break;
          case OpCode::Or:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] | r2[k];
            break;
          case OpCode::Add:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] + r2[k];
            break;
          case OpCode::Sub:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] - r2[k];
            break;
          case OpCode::Not:
            for (size_t k = 0; k < len; ++k)
                rd[k] = ~r1[k];
            break;
          case OpCode::MulImm:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] * insn.imm;
            break;
          case OpCode::AndImm:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] & insn.imm;
            break;
          case OpCode::ModImm:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] % insn.imm;
            break;
          case OpCode::AddImm:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] + insn.imm;
            break;
          case OpCode::CmpEq:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] == r2[k] ? 1u : 0u;
            break;
          case OpCode::CmpNe:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] != r2[k] ? 1u : 0u;
            break;
          case OpCode::CmpGt:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] > r2[k] ? 1u : 0u;
            break;
          case OpCode::CmpGe:
            for (size_t k = 0; k < len; ++k)
                rd[k] = r1[k] >= r2[k] ? 1u : 0u;
            break;
          case OpCode::InSet:
            // Small sets: an OR-accumulated equality sweep per
            // element keeps the row loop branch-free. Large sets
            // fall back to a per-row binary search.
            if (set_.size() <= 8) {
                for (size_t k = 0; k < len; ++k)
                    rd[k] = 0;
                for (uint32_t s : set_) {
                    for (size_t k = 0; k < len; ++k)
                        rd[k] |= r1[k] == s ? 1u : 0u;
                }
            } else {
                for (size_t k = 0; k < len; ++k) {
                    rd[k] = std::binary_search(set_.begin(),
                                               set_.end(), r1[k])
                                ? 1u
                                : 0u;
                }
            }
            break;
        }
    }
}

size_t
CompiledInvariant::firstViolation(const trace::PointColumns &cols,
                                  size_t begin, size_t end) const
{
    uint32_t regs[kNumRegs][kBlock];
    for (size_t pos = begin; pos < end; pos += kBlock) {
        size_t len = std::min(kBlock, end - pos);
        runBlock(cols, pos, len, regs);
        const uint32_t *res = regs[resultReg_];
        uint32_t all = 1;
        for (size_t k = 0; k < len; ++k)
            all &= res[k];
        if (!all) {
            for (size_t k = 0; k < len; ++k) {
                if (!res[k])
                    return pos + k;
            }
        }
    }
    return npos;
}

bool
CompiledInvariant::holdsRecord(const trace::Record &rec) const
{
    uint32_t regs[kNumRegs] = {};
    for (const Insn &insn : program_) {
        uint32_t &rd = regs[insn.dst];
        uint32_t r1 = regs[insn.src1];
        uint32_t r2 = regs[insn.src2];
        switch (insn.op) {
          case OpCode::LoadCol: {
            uint16_t slot = uint16_t(insn.imm);
            uint16_t var = trace::slotVar(slot);
            rd = trace::slotOrig(slot) ? rec.pre[var] : rec.post[var];
            break;
          }
          case OpCode::LoadImm: rd = insn.imm; break;
          case OpCode::And: rd = r1 & r2; break;
          case OpCode::Or: rd = r1 | r2; break;
          case OpCode::Add: rd = r1 + r2; break;
          case OpCode::Sub: rd = r1 - r2; break;
          case OpCode::Not: rd = ~r1; break;
          case OpCode::MulImm: rd = r1 * insn.imm; break;
          case OpCode::AndImm: rd = r1 & insn.imm; break;
          case OpCode::ModImm: rd = r1 % insn.imm; break;
          case OpCode::AddImm: rd = r1 + insn.imm; break;
          case OpCode::CmpEq: rd = r1 == r2 ? 1u : 0u; break;
          case OpCode::CmpNe: rd = r1 != r2 ? 1u : 0u; break;
          case OpCode::CmpGt: rd = r1 > r2 ? 1u : 0u; break;
          case OpCode::CmpGe: rd = r1 >= r2 ? 1u : 0u; break;
          case OpCode::InSet:
            rd = std::binary_search(set_.begin(), set_.end(), r1)
                     ? 1u
                     : 0u;
            break;
        }
    }
    return regs[resultReg_] != 0;
}

bool
CompiledInvariant::compatible(const trace::PointColumns &cols) const
{
    for (const Insn &insn : program_) {
        if (insn.op == OpCode::LoadCol &&
            !cols.has(uint16_t(insn.imm))) {
            return false;
        }
    }
    return true;
}

std::vector<uint16_t>
CompiledInvariant::slots() const
{
    std::vector<uint16_t> out;
    for (const Insn &insn : program_) {
        if (insn.op == OpCode::LoadCol)
            out.push_back(uint16_t(insn.imm));
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

} // namespace scif::expr
