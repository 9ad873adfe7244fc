/**
 * @file
 * Compiled batch evaluation of invariant expressions.
 *
 * An Invariant compiles into a flat register-machine program over a
 * handful of instruction kinds (load column, the op2 combines, not,
 * scale, modulus, offset, compare, set membership). The batch kernel
 * executes the program over blocks of rows of a columnar trace
 * matrix (trace/columns.hh): every instruction is a branch-free loop
 * over plain uint32_t arrays, so the compiler auto-vectorizes it, and
 * the block scan early-exits at the first violating row.
 *
 * The interpreted Expr::holds / Operand::eval path stays untouched
 * and serves as the oracle: the differential test suite pins
 * compiled == interpreted record-for-record on every generated
 * invariant and on fuzzed random expressions.
 */

#ifndef SCIFINDER_EXPR_COMPILE_HH
#define SCIFINDER_EXPR_COMPILE_HH

#include <cstdint>
#include <vector>

#include "expr/expr.hh"
#include "trace/columns.hh"

namespace scif::expr {

/** Register-machine instruction kinds. */
enum class OpCode : uint8_t {
    LoadCol, ///< r[dst] = column[imm][row]
    LoadImm, ///< r[dst] = imm
    And,     ///< r[dst] = r[src1] & r[src2]
    Or,      ///< r[dst] = r[src1] | r[src2]
    Add,     ///< r[dst] = r[src1] + r[src2]
    Sub,     ///< r[dst] = r[src1] - r[src2]
    Not,     ///< r[dst] = ~r[src1]
    MulImm,  ///< r[dst] = r[src1] * imm
    AndImm,  ///< r[dst] = r[src1] & imm  (power-of-two modulus)
    ModImm,  ///< r[dst] = r[src1] % imm
    AddImm,  ///< r[dst] = r[src1] + imm
    CmpEq,   ///< r[dst] = r[src1] == r[src2]
    CmpNe,   ///< r[dst] = r[src1] != r[src2]
    CmpGt,   ///< r[dst] = r[src1] > r[src2]   (unsigned)
    CmpGe,   ///< r[dst] = r[src1] >= r[src2]  (unsigned)
    InSet,   ///< r[dst] = r[src1] member of the sorted value set
};

/** One program instruction. */
struct Insn
{
    OpCode op;
    uint8_t dst = 0;
    uint8_t src1 = 0;
    uint8_t src2 = 0;
    uint32_t imm = 0; ///< immediate or column (slot) id
};

/**
 * A compiled invariant expression. Compile once, evaluate many: a
 * batch kernel over column matrices for the identification scans,
 * and a scalar kernel for the assertion monitor and the checking
 * service's shards. Compiled programs are immutable and safe to
 * share across threads.
 */
class CompiledInvariant
{
  public:
    static constexpr size_t npos = size_t(-1);

    /** Rows per inner-kernel block. */
    static constexpr size_t kBlock = 128;

    CompiledInvariant() = default;

    /** Compile the expression part of @p inv (point is not encoded:
     *  callers dispatch rows to programs by point already). */
    static CompiledInvariant compile(const Invariant &inv);

    /**
     * Batch kernel: evaluate rows [begin, end) of @p cols.
     * @return the first row index where the expression is false, or
     *         npos if it holds on every row.
     */
    size_t firstViolation(const trace::PointColumns &cols, size_t begin,
                          size_t end) const;

    /** Scalar kernel for streaming sinks (assertion monitor). */
    bool holdsRecord(const trace::Record &rec) const;

    /** @return true if every referenced column is materialized. */
    bool compatible(const trace::PointColumns &cols) const;

    /** Slot ids of every column the program loads, sorted and
     *  deduplicated (the column materialization lists of the
     *  identification scan count each referenced column once). */
    std::vector<uint16_t> slots() const;

  private:
    /** Execute over one block; r[resultReg_][k] = holds(row begin+k). */
    void runBlock(const trace::PointColumns &cols, size_t begin,
                  size_t len, uint32_t regs[][kBlock]) const;

    std::vector<Insn> program_;
    std::vector<uint32_t> set_; ///< sorted, for InSet
    uint8_t resultReg_ = 0;
};

} // namespace scif::expr

#endif // SCIFINDER_EXPR_COMPILE_HH
