/**
 * @file
 * ISA-level functional simulator of the OR1200 (OpenRISC 1000 basic
 * integer instruction set).
 *
 * The simulator executes one instruction per step, maintains the full
 * software-visible architectural state (GPRs, SR, exception SPRs, MAC
 * accumulator, PIC, tick timer), models the single branch delay slot,
 * and emits one trace record per retired instruction into a TraceSink
 * — with a control-flow instruction and its delay-slot instruction
 * fused into one record (paper §3.1.5).
 *
 * A small microarchitectural shadow (pipeline-stage PCs, stall
 * detection for the wedge-style bugs) exists solely so that the
 * reproduced errata can perturb exactly the state the real bugs
 * perturbed — including the ones that are invisible at the ISA level.
 *
 * Reproduced errata are injected through the Mutation hook points;
 * see cpu/mutation.hh and bugs/registry.cc.
 */

#ifndef SCIFINDER_CPU_CPU_HH
#define SCIFINDER_CPU_CPU_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "asm/assembler.hh"
#include "cpu/blockcache.hh"
#include "cpu/memory.hh"
#include "cpu/mutation.hh"
#include "isa/arch.hh"
#include "isa/insn.hh"
#include "trace/record.hh"

namespace scif::cpu {

/** Why a simulation run ended. */
enum class HaltReason {
    Halted,    ///< the program executed the halt idiom (l.nop 0xf)
    MaxInsns,  ///< retirement budget exhausted
    Wedged,    ///< the pipeline wedged (stall-style bugs b2/h13)
};

/** Outcome of Cpu::run(). */
struct RunResult
{
    uint64_t instructions = 0; ///< retired instructions
    uint64_t records = 0;      ///< trace records emitted
    HaltReason reason = HaltReason::MaxInsns;
};

/** Static configuration of a simulated system. */
struct CpuConfig
{
    uint32_t memBytes = 1 << 20;   ///< RAM size
    uint32_t userBase = 0x2000;    ///< supervisor-only boundary
    uint64_t maxInsns = 1000000;   ///< retirement budget per run()
    MutationSet mutations;         ///< injected errata

    /**
     * Use the predecoded basic-block cache (cpu/blockcache.hh). Off,
     * every boundary fetches and decodes from memory — the
     * interpreted oracle the differential tests compare against.
     * Both front ends produce byte-identical traces.
     */
    bool predecode = true;

    /**
     * Microarchitectural trace extension (the paper's §5.2 future-
     * work direction): when set, the USTALL trace variable carries
     * the pipeline stall counter and a wedged instruction still
     * emits its (non-retiring) record, making stall-class bugs like
     * b2 visible to the invariant engine. Off by default: the
     * ISA-level view the paper evaluates.
     */
    bool uarchTrace = false;

    /**
     * External interrupt schedule: (retired-instruction count, PIC
     * line). Line @p n sets PICSR bit n at the given boundary.
     */
    std::vector<std::pair<uint64_t, unsigned>> irqSchedule;
};

/** The K operand of l.nop that halts simulation. */
constexpr uint32_t haltNopCode = 0xf;

/** Outcome of a single Cpu::step() call. */
enum class StepStatus {
    Running,  ///< one boundary executed; simulation can continue
    Halted,   ///< the halt idiom retired on this boundary
    Wedged,   ///< the pipeline wedged (stall-style bugs)
    Budget,   ///< retirement budget already exhausted
};

/** The OR1200-model processor. */
class Cpu
{
  public:
    explicit Cpu(CpuConfig config = CpuConfig());

    /** Load an assembled program image and reset the processor. */
    void loadProgram(const assembler::Program &program);

    /** Reset architectural state (PC to the reset vector). */
    void reset();

    /**
     * Run until halt, wedge, or the retirement budget.
     *
     * @param sink optional trace sink; pass nullptr to run untraced.
     */
    RunResult run(trace::TraceSink *sink);

    /**
     * Advance the processor by one trace boundary: deliver one
     * pending asynchronous interrupt, or execute one instruction (a
     * control-flow instruction together with its delay slot counts
     * as one boundary, mirroring the fused trace record). Lockstep
     * co-simulation (src/fuzz) drives the processor with this
     * instead of run().
     *
     * @param sink optional trace sink; pass nullptr to step untraced.
     */
    StepStatus step(trace::TraceSink *sink = nullptr);

    /** @return instructions retired since reset. */
    uint64_t retired() const { return retired_; }

    // --- state accessors (tests and the assertion monitor) ---
    uint32_t gpr(unsigned n) const { return gpr_[n]; }
    void setGpr(unsigned n, uint32_t v);
    uint32_t pc() const { return pc_; }
    void setPc(uint32_t pc) { pc_ = pc; }

    /** Read an SPR by architectural address (supervisor view). */
    uint32_t readSpr(uint16_t addr) const;
    /** Write an SPR by architectural address (supervisor view). */
    void writeSpr(uint16_t addr, uint32_t value);

    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }
    const CpuConfig &config() const { return config_; }

    /**
     * Switch the active mutation set on a live processor. Cached
     * blocks are keyed by mutation set, so entries decoded under the
     * previous configuration stay isolated rather than flushed; the
     * per-bug identification fan-out relies on this to run the buggy
     * and the clean configuration on one processor.
     */
    void setMutations(const MutationSet &mutations);

    /**
     * Drop every predecoded block. Required after poking code memory
     * from outside (Memory::debugWriteWord); loadProgram() and the
     * store path invalidate automatically.
     */
    void invalidateCodeCache();

    /** @return true if any store retired since the last loadProgram()
     *  (i.e. memory may differ from the loaded image). */
    bool memoryDirty() const { return memDirty_; }

    /** @return block-cache statistics, or nullptr when predecode is
     *  disabled. */
    const BlockCache::Stats *cacheStats() const
    {
        return cache_ ? &cache_->stats() : nullptr;
    }

    /** @return live cached blocks (0 when predecode is disabled). */
    size_t cachedBlocks() const
    {
        return cache_ ? cache_->liveBlocks() : 0;
    }

  private:
    /** Result of executing one instruction. */
    struct ExecResult
    {
        isa::Exception exception = isa::Exception::None;
        uint32_t eear = 0;      ///< effective address for the fault
        bool halted = false;
        bool branchTaken = false;
        uint32_t branchTarget = 0;
        bool isRfe = false;
        uint32_t rfeTarget = 0;
    };

    /** Execute one decoded instruction, updating state and @p rec.
     *  @p ii must be insn's isa::info() (pre-resolved by the caller
     *  so the cached dispatch path skips the table lookup). */
    ExecResult execute(const isa::DecodedInsn &insn,
                       const isa::InsnInfo &ii, trace::Record &rec);

    /** Write a GPR respecting the r0-hardwired-zero rule (and b10). */
    void writeGpr(unsigned n, uint32_t value, trace::Record &rec);

    /** Fill the state-variable slots of one record side. */
    void snapshotState(std::array<uint32_t, trace::numVars> &side);

    /**
     * Take exception @p e. @p fault_pc is the address of the faulting
     * or interrupted instruction; @p next_pc the address execution
     * would otherwise continue at.
     */
    void enterException(isa::Exception e, uint32_t fault_pc,
                        uint32_t next_pc, uint32_t eear,
                        bool in_delay_slot, uint32_t branch_pc,
                        uint32_t branch_target);

    /** The architecturally correct EPCR for an exception. */
    static uint32_t epcrFor(isa::Exception e, uint32_t fault_pc,
                            uint32_t next_pc, bool in_delay_slot,
                            uint32_t branch_pc, uint32_t branch_target);

    /** Fetch the instruction word at @p addr (applies b11/h13). */
    MemResult fetch(uint32_t addr, trace::Record &rec);

    /** Advance the tick timer by one retired instruction. */
    void tickTimer(uint64_t retired);

    /** Deliver a pending asynchronous interrupt, if any. */
    bool maybeInterrupt(trace::TraceSink *sink, uint64_t &emitted);

    /**
     * Run one trace boundary through the front end the configuration
     * selects: a predecoded CachedOp when the dispatch cursor has
     * one, the interpreted fetch+decode path otherwise. Templated on
     * the concrete sink type so the per-record emission into the
     * capture-time columnar sink devirtualizes inside the dispatch
     * loop (run() selects the instantiation once per run).
     */
    template <typename Sink>
    bool dispatchBoundary(Sink *sink, uint64_t &retired,
                          uint64_t &emitted);

    /** The run() loop body, instantiated per concrete sink type. */
    template <typename Sink>
    RunResult runLoop(Sink *sink);

    /**
     * Run one instruction (or fused pair). @p op carries the
     * predecoded boundary (skipping fetch and decode) or nullptr for
     * the interpreted path. With Traced false, @p rec is a reusable
     * scratch record and no snapshots, derived variables, or sink
     * emission happen — architectural state advances identically.
     */
    template <bool Traced, typename Sink>
    bool stepBody(trace::Record &rec, Sink *sink, uint64_t &retired,
                  uint64_t &emitted, const CachedOp *op);

    /**
     * The predecoded boundary at pc_, advancing the dispatch cursor;
     * nullptr when the boundary must run interpreted (cache miss on
     * an uncacheable word, or privilege mismatch).
     */
    const CachedOp *nextCachedOp();

    /** Recompute cacheOn_/mutKey_ and drop the dispatch cursor. */
    void refreshCacheMode();

    bool has(Mutation m) const { return config_.mutations.has(m); }
    bool supervisor() const { return (sr_ >> isa::sr::SM) & 1; }

    CpuConfig config_;
    Memory mem_;

    // Architectural state.
    std::array<uint32_t, isa::numGprs> gpr_{};
    uint32_t pc_ = 0x100;
    uint32_t ppc_ = 0;
    uint32_t sr_ = isa::sr::resetValue;
    uint32_t epcr_ = 0;
    uint32_t eear_ = 0;
    uint32_t esr_ = 0;
    uint64_t mac_ = 0;
    uint32_t picmr_ = 0;
    uint32_t picsr_ = 0;
    uint32_t ttmr_ = 0;
    uint32_t ttcr_ = 0;

    // Microarchitectural shadow state (bug surface only).
    bool roriTaint_ = false;       ///< b8: rotate residue live
    bool lsuBusy_ = false;         ///< b11: LSU stall window active
    bool fetchCorrupted_ = false;  ///< b11: this step replayed a fetch
    bool lastWasMac_ = false;      ///< b2: l.mac retired last cycle
    uint32_t lastFetched_ = 0;     ///< b11: stale fetch buffer word
    uint32_t lastLoadAddr_ = 0;    ///< h13 pattern detection
    unsigned sameAddrLoads_ = 0;   ///< h13 pattern detection
    uint32_t lastStoreData_ = 0;   ///< b17 store-buffer data
    uint32_t lastStoreAddr_ = 0;   ///< b17 store-buffer address
    bool storeBufferLive_ = false; ///< b17 forwarding window
    bool wedged_ = false;          ///< pipeline wedged (b2/h13)

    uint64_t retired_ = 0;
    size_t irqCursor_ = 0;
    bool irqQuiet_ = false; ///< no interrupt can become deliverable
                            ///< without an SPR write (mtspr / rfe);
                            ///< lets the run loop skip the per-insn
                            ///< interrupt check

    // Predecode front end (tentpole of the fast-simulation work).
    std::unique_ptr<BlockCache> cache_; ///< null when predecode off
    Block *curBlock_ = nullptr;         ///< dispatch cursor block
    size_t curOp_ = 0;                  ///< next op within curBlock_
    uint64_t mutKey_ = 0;               ///< active mutation cache key
    bool cacheOn_ = false;              ///< predecode usable right now
    bool memDirty_ = false;             ///< stores since loadProgram()
    DecodeMemo dsMemo_;                 ///< interpreted-path ds decode
    trace::Record scratch_;             ///< reused by untraced steps
};

} // namespace scif::cpu

#endif // SCIFINDER_CPU_CPU_HH
