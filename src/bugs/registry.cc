#include "registry.hh"

#include "asm/assembler.hh"
#include "support/logging.hh"

namespace scif::bugs {

using cpu::Mutation;

namespace {

/**
 * Standard trigger prologue: skip-style handlers so that triggers
 * survive the exceptions they provoke, on both the clean and the
 * buggy processor. Registers r26/r27 are reserved for handlers,
 * r25/r28/r29 count syscalls/ticks/external interrupts.
 */
const char *triggerHandlers = R"(
    .org 0x200                 ; bus error: halt (unexpected)
        l.nop 0xf
    .org 0x300                 ; data page fault: halt
        l.nop 0xf
    .org 0x400                 ; insn page fault: halt
        l.nop 0xf
    .org 0x500                 ; tick: disable and return
        l.mtspr r0, r0, TTMR
        l.rfe
    .org 0x600                 ; alignment: skip the faulting insn
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe
    .org 0x700                 ; illegal: skip
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe
    .org 0x800                 ; external: acknowledge and return
        l.addi  r29, r29, 1
        l.mtspr r0, r0, PICSR
        l.rfe
    .org 0xb00                 ; range: the op committed, skip
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe
    .org 0xc00                 ; syscall: count and return
        l.addi  r25, r25, 1
        l.rfe
    .org 0xe00                 ; trap: skip
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe
)";

std::string
wrapTrigger(const std::string &body)
{
    return std::string(triggerHandlers) + R"(
    .org 0x100
        l.j attack
        l.nop 0
    .org 0x1000
    attack:
)" + body + R"(
        l.nop 0xf
)";
}

std::vector<Bug>
buildRegistry()
{
    std::vector<Bug> bugs;
    auto add = [&bugs](const std::string &id,
                       const std::string &synopsis,
                       const std::string &source, Mutation mutation,
                       const std::string &body,
                       uint64_t max_insns = 100000) {
        Bug bug;
        bug.id = id;
        bug.synopsis = synopsis;
        bug.source = source;
        bug.mutation = mutation;
        bug.heldOut = id[0] == 'h';
        bug.trigger = wrapTrigger(body);
        bug.config.maxInsns = max_insns;
        bugs.push_back(std::move(bug));
    };

    // ---------------- Table 1: identification bugs ----------------

    add("b1", "l.sys in delay slot will run into infinite loop",
        "OR1200, Bugzilla #33", Mutation::B1_SysDelaySlotEpcr,
        R"(
        l.addi r1, r0, 1
        l.j    b1_cont
        l.sys  0
    b1_cont:
        l.addi r2, r0, 2
        )",
        600);

    add("b2", "l.macrc immediately after l.mac stalls the pipeline",
        "OR1200, Bugtracker #1930", Mutation::B2_MacrcAfterMacStall,
        R"(
        l.addi  r1, r0, 6
        l.addi  r2, r0, 7
        l.mac   r1, r2
        l.macrc r3
        l.add   r4, r3, r1
        )");

    add("b3", "l.extw instructions behave incorrectly",
        "OR1200, Bugzilla #88", Mutation::B3_ExtwWrong,
        R"(
        l.movhi r2, 0x1
        l.ori   r2, r2, 0x2344
        l.extws r3, r2
        l.extwz r4, r2
        l.addi  r5, r0, 0x77
        l.sw    0(r3), r5          ; extw result used as an address
        l.lwz   r6, 0(r4)
        )");

    add("b4", "Delay Slot Exception bit is not implemented in SR",
        "OR1200, Bugzilla #85", Mutation::B4_DsxNotImplemented,
        R"(
        l.ori  r1, r0, 0x4001
        l.j    b4_cont
        l.lwz  r2, 0(r1)           ; alignment fault in delay slot
    b4_cont:
        l.addi r3, r0, 3
        )");

    add("b5", "EPCR on range exception is incorrect",
        "OR1200, Bugzilla #90", Mutation::B5_RangeEpcrWrong,
        R"(
        l.mfspr r3, r0, SR
        l.ori   r3, r3, 0x1000     ; OVE
        l.mtspr r0, r3, SR
        l.movhi r4, 0x7fff
        l.ori   r4, r4, 0xffff
        l.add   r5, r4, r4         ; overflow -> range exception
        l.nop   0
        l.nop   0
        l.nop   0
        )");

    add("b6",
        "Comparison wrong for unsigned inequality with different MSB",
        "OR1200, Bugzilla #51", Mutation::B6_UnsignedCmpMsb,
        R"(
        l.movhi r1, 0x8000         ; MSB set
        l.addi  r2, r0, 1
        l.sfleu r2, r1             ; 1 <= 0x80000000: true
        l.bf    b6_taken
        l.nop   0
        l.addi  r3, r0, 99         ; wrong path
    b6_taken:
        l.sfltu r2, r1
        l.cmov  r4, r1, r2
        )");

    add("b7", "Incorrect unsigned integer less-than compare",
        "OR1200, Bugzilla #76", Mutation::B7_SfltuWrong,
        R"(
        l.addi  r1, r0, -8         ; 0xfffffff8
        l.addi  r2, r0, 2
        l.sfltu r2, r1             ; 2 < 0xfffffff8: true
        l.bf    b7_taken
        l.nop   0
        l.addi  r3, r0, 99
    b7_taken:
        l.cmov  r4, r1, r2
        )");

    add("b8", "Logical error in l.rori instruction",
        "OR1200, Bugzilla #97", Mutation::B8_RoriVector,
        R"(
        l.addi r1, r0, 0xff
        l.rori r2, r1, 4
        l.sys  0                   ; vector corrupted by rori residue
        l.addi r3, r0, 3
        )");

    add("b9", "EPCR on illegal instruction exception is incorrect",
        "OR1200, Mail #01767", Mutation::B9_IllegalEpcrWrong,
        R"(
        l.addi r1, r0, 1
        .word  0xfc000001          ; illegal opcode
        l.nop  0
        l.nop  0
        l.addi r2, r0, 2
        )");

    add("b10", "GPR0 can be assigned", "OR1200, Mail #00007",
        Mutation::B10_Gpr0Writable,
        R"(
        l.addi r0, r0, 5           ; assign GPR0
        l.add  r1, r0, r0
        l.sub  r2, r1, r0
        l.and  r3, r1, r0
        l.or   r4, r1, r0
        l.xor  r5, r1, r0
        l.sfeq r0, r1
        l.muli r6, r0, 3
        l.slli r7, r0, 2
        l.exths r8, r0
        )");

    add("b11", "Incorrect instruction fetched after an LSU stall",
        "OR1200, Bugzilla #101", Mutation::B11_FetchAfterLsuStall,
        R"(
        l.ori  r1, r0, 0x4080      ; address arming the stall window
        l.addi r2, r0, 0x55
        l.sw   0(r1), r2
        l.lwz  r3, 0(r1)
        l.addi r4, r0, 9           ; this fetch is corrupted
        l.addi r5, r0, 10
        )");

    add("b12",
        "l.mtspr instruction to some SPRs in supervisor mode treated "
        "as l.nop",
        "OR1200, Bugzilla #95", Mutation::B12_MtsprDropped,
        R"(
        l.addi  r1, r0, 0x123
        l.mtspr r0, r1, EEAR0
        l.mfspr r2, r0, EEAR0
        l.addi  r3, r0, 0x456
        l.mtspr r0, r3, EPCR0
        l.mfspr r4, r0, EPCR0
        )");

    add("b13", "Call return address failure with large displacement",
        "LEON2, Amtel-errata #2", Mutation::B13_JalLargeDispLr,
        R"(
        l.j     b13_far
        l.nop   0
        .org 0x41000
    b13_far:
        l.jal   b13_func           ; large negative displacement
        l.nop   0
        l.addi  r2, r0, 2
        l.nop   0xf
        .org 0x1100
    b13_func:
        l.addi  r1, r0, 1
        l.jr    r9
        l.nop   0
        )",
        60);

    add("b14",
        "Byte and half-word write to SRAM failure when executing "
        "from SDRAM",
        "LEON2, Amtel-errata #3", Mutation::B14_ByteStoreCorrupt,
        R"(
        l.ori  r1, r0, 0x4000
        l.addi r2, r0, 0x7f
        l.sb   0(r1), r2
        l.lbz  r3, 0(r1)
        l.addi r4, r0, 0x1234
        l.sh   2(r1), r4
        l.lhz  r5, 2(r1)
        )");

    add("b15", "Wrong PC stored during FPU exception trap",
        "LEON2, Amtel-errata #4 (FPU trap modelled as l.trap)",
        Mutation::B15_TrapEpcrWrong,
        R"(
        l.addi r1, r0, 1
        l.trap 0
        l.nop  0
        l.nop  0
        l.addi r2, r0, 2
        )");

    add("b16", "Sign/unsign extend of data alignment in LSU",
        "OpenSPARC T1", Mutation::B16_LoadExtendWrong,
        R"(
        l.ori  r1, r0, 0x4000
        l.addi r2, r0, -54         ; 0xca in the low byte
        l.sb   0(r1), r2
        l.lbs  r3, 0(r1)           ; must sign extend
        l.sh   2(r1), r2
        l.lhs  r4, 2(r1)
        )");

    add("b17", "Overwrite of ldxa-data with subsequent st-data",
        "OpenSPARC T1", Mutation::B17_StoreForwardClobber,
        R"(
        l.ori   r1, r0, 0x5100
        l.movhi r2, 0x1111
        l.ori   r2, r2, 0x2222
        l.sw    0(r1), r2          ; victim data at 0x5100
        l.ori   r3, r0, 0x4100     ; same cache index, different tag
        l.movhi r4, 0xaaaa
        l.ori   r4, r4, 0xbbbb
        l.sw    0(r3), r4          ; store-buffer entry
        l.lwz   r5, 0(r1)          ; aliased load gets forwarded data
        )");

    // ---------------- §5.6: held-out bugs ----------------

    {
        Bug bug;
        bug.id = "h1";
        bug.synopsis = "EPCR corrupted on external interrupt";
        bug.source = "AMD-errata class: interrupt EPC corruption";
        bug.mutation = Mutation::H1_IntrEpcrOff;
        bug.heldOut = true;
        bug.trigger = wrapTrigger(R"(
        l.addi  r3, r0, 1
        l.mtspr r0, r3, PICMR
        l.mfspr r4, r0, SR
        l.ori   r4, r4, 4          ; IEE
        l.mtspr r0, r4, SR
        l.addi  r1, r0, 0
    h1_loop:
        l.addi  r1, r1, 1
        l.sfltsi r1, 40
        l.bf    h1_loop
        l.nop   0
        )");
        bug.config.maxInsns = 100000;
        bug.config.irqSchedule = {{20, 0}};
        bugs.push_back(std::move(bug));
    }

    add("h2", "l.movhi spuriously clears the branch flag",
        "AMD-errata class: flag corruption", Mutation::H2_MovhiClearsFlag,
        R"(
        l.addi  r1, r0, 5
        l.sfeq  r1, r1             ; flag := 1
        l.movhi r2, 0x1234         ; must not touch the flag
        l.bf    h2_ok
        l.nop   0
        l.addi  r3, r0, 99
    h2_ok:
        l.addi  r4, r0, 4
        )");

    add("h3", "Word store drops address bit 2 for negative offsets",
        "AMD-errata class: store address corruption",
        Mutation::H3_StoreAddrBit,
        R"(
        l.ori  r1, r0, 0x4108
        l.addi r2, r0, 0x77
        l.sw   -4(r1), r2          ; address 0x4104
        l.lwz  r3, -4(r1)
        )");

    add("h4", "l.jalr writes LR = PC instead of PC + 8",
        "AMD-errata class: return address corruption",
        Mutation::H4_JalrLrWrong,
        R"(
        l.movhi r1, hi(h4_func)
        l.ori   r1, r1, lo(h4_func)
        l.jalr  r1
        l.nop   0
        l.addi  r2, r0, 2
        l.nop   0xf
    h4_func:
        l.addi  r3, r0, 3
        l.jr    r9
        l.nop   0
        )",
        400);

    add("h5", "l.mfspr from ESR0 returns SR instead",
        "AMD-errata class: SPR read mux error",
        Mutation::H5_MfsprEsrAlias,
        R"(
        l.addi  r1, r0, 0x6aa       ; distinct from any live SR value
        l.mtspr r0, r1, ESR0
        l.mfspr r2, r0, ESR0
        l.add   r3, r2, r2
        )");

    add("h6", "l.rfe restores SR with the fixed-one bit cleared",
        "AMD-errata class: status register corruption",
        Mutation::H6_RfeDropsFo,
        R"(
        l.sys  0                   ; enter and leave the handler
        l.addi r1, r0, 1
        l.sys  0
        l.addi r2, r0, 2
        )");

    add("h7", "l.rfe leaves SM set: privilege fails to de-escalate",
        "AMD-errata class: privilege leak", Mutation::H7_RfeKeepsSm,
        R"(
        l.movhi r3, hi(h7_user)
        l.ori   r3, r3, lo(h7_user)
        l.mtspr r0, r3, EPCR0
        l.mfspr r4, r0, SR
        l.xori  r5, r0, -1
        l.xori  r5, r5, 1
        l.and   r4, r4, r5
        l.mtspr r0, r4, ESR0
        l.rfe                      ; drop to user mode
        .org 0x8000
    h7_user:
        l.addi  r6, r0, 6
        )");

    add("h8", "Loaded word byte-rotated for addresses with bit 6 set",
        "AMD-errata class: load data corruption",
        Mutation::H8_LoadRotated,
        R"(
        l.ori   r1, r0, 0x4040
        l.movhi r2, 0x0102
        l.ori   r2, r2, 0x0304
        l.sw    0(r1), r2
        l.lwz   r3, 0(r1)
        l.add   r4, r3, r3
        )");

    add("h9", "l.sfges result inverted when the operands are equal",
        "AMD-errata class: comparator corner case",
        Mutation::H9_SfgesEqWrong,
        R"(
        l.addi  r1, r0, 17
        l.addi  r2, r0, 17
        l.sfges r1, r2             ; 17 >= 17: true
        l.bf    h9_ok
        l.nop   0
        l.addi  r3, r0, 99
    h9_ok:
        l.addi  r4, r0, 4
        )");

    add("h10", "l.sys stores EPCR = PC of the l.sys itself",
        "AMD-errata class: syscall EPC corruption",
        Mutation::H10_SysEpcrSelf,
        R"(
        l.addi r1, r0, 1
        l.sys  0
        l.addi r2, r0, 2
        )",
        400);

    add("h11", "Set-flag compares also write GPR[cond-code field]",
        "AMD-errata class: stuck register write enable",
        Mutation::H11_CompareClobbersReg,
        R"(
        l.addi r1, r0, 5
        l.sfeq r1, r1              ; cond 0: clobbers GPR0
        l.add  r2, r0, r0
        l.addi r3, r0, 1
        l.sub  r4, r3, r0
        )");

    add("h12",
        "Misaligned halfword loads truncate instead of faulting",
        "AMD-errata class: alignment check dropped",
        Mutation::H12_AlignSuppressed,
        R"(
        l.ori  r1, r0, 0x4001
        l.lhz  r2, 0(r1)           ; must raise alignment
        l.addi r3, r0, 3
        )");

    add("h13", "Prefetch buffer wedges on repeated loads",
        "AMD-errata class: microarchitectural hang",
        Mutation::H13_PrefetchStall,
        R"(
        l.ori  r1, r0, 0x4000
        l.lwz  r2, 0(r1)
        l.lwz  r3, 0(r1)
        l.lwz  r4, 0(r1)
        l.lwz  r5, 0(r1)
        )");

    add("h14", "Store buffer merges adjacent byte stores",
        "AMD-errata class: invisible store coalescing",
        Mutation::H14_StoreMerge,
        R"(
        l.ori  r1, r0, 0x4000
        l.addi r2, r0, 0x11
        l.sb   0(r1), r2
        l.sb   1(r1), r2
        l.lhz  r3, 0(r1)
        )");

    return bugs;
}

} // namespace

const std::vector<Bug> &
all()
{
    static const std::vector<Bug> registry = buildRegistry();
    return registry;
}

const Bug &
byId(const std::string &id)
{
    for (const auto &bug : all()) {
        if (bug.id == id)
            return bug;
    }
    panic("unknown bug '%s'", id.c_str());
}

std::vector<const Bug *>
table1()
{
    std::vector<const Bug *> out;
    for (const auto &bug : all()) {
        if (!bug.heldOut)
            out.push_back(&bug);
    }
    return out;
}

std::vector<const Bug *>
resolve(const std::vector<std::string> &ids)
{
    if (ids.empty())
        return table1();
    std::vector<const Bug *> out;
    for (const auto &id : ids)
        out.push_back(&byId(id));
    return out;
}

std::vector<const Bug *>
heldOut()
{
    std::vector<const Bug *> out;
    for (const auto &bug : all()) {
        if (bug.heldOut)
            out.push_back(&bug);
    }
    return out;
}

trace::TraceBuffer
runTrigger(const Bug &bug, bool buggy)
{
    cpu::CpuConfig config = bug.config;
    if (buggy)
        config.mutations.add(bug.mutation);
    cpu::Cpu cpu(config);
    cpu.loadProgram(assembler::assembleOrDie(bug.trigger));
    trace::TraceBuffer buffer;
    cpu::RunResult result = cpu.run(&buffer);
    if (!buggy && result.reason != cpu::HaltReason::Halted) {
        panic("clean run of trigger '%s' did not halt (reason %d)",
              bug.id.c_str(), int(result.reason));
    }
    return buffer;
}

TriggerTraces
runTriggers(const Bug &bug)
{
    cpu::CpuConfig config = bug.config;
    config.mutations.add(bug.mutation);
    cpu::Cpu cpu(config);

    assembler::Program program = assembler::assembleOrDie(bug.trigger);
    cpu.loadProgram(program);
    TriggerTraces out;
    cpu.run(&out.buggy);

    // Switch to the clean processor on the *same* Cpu. The block
    // cache keys entries by the active mutation set, so the buggy
    // run's blocks stay resident but are never dispatched here. The
    // image is reloaded only if the buggy run dirtied memory;
    // reset() restores everything else a fresh Cpu would have.
    cpu.setMutations(bug.config.mutations);
    if (cpu.memoryDirty()) {
        cpu.loadProgram(program);
    } else {
        cpu.reset();
        cpu.setPc(program.entry);
    }
    cpu::RunResult result = cpu.run(&out.clean);
    if (result.reason != cpu::HaltReason::Halted) {
        panic("clean run of trigger '%s' did not halt (reason %d)",
              bug.id.c_str(), int(result.reason));
    }
    return out;
}

} // namespace scif::bugs
