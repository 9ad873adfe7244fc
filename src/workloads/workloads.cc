#include "workloads.hh"

#include <map>

#include "asm/assembler.hh"
#include "support/logging.hh"
#include "support/strings.hh"
#include "support/threadpool.hh"
#include "trace/store.hh"

namespace scif::workloads {

namespace {

/**
 * Handler block for the compute workloads: exceptions other than
 * syscalls are unexpected and halt the run; syscalls return.
 */
const char *computeHandlers = R"(
    .org 0x200
        l.nop 0xf
    .org 0x300
        l.nop 0xf
    .org 0x400
        l.nop 0xf
    .org 0x500
        l.nop 0xf
    .org 0x600
        l.nop 0xf
    .org 0x700
        l.nop 0xf
    .org 0x800
        l.nop 0xf
    .org 0xb00
        l.nop 0xf
    .org 0xc00
        l.rfe
    .org 0xe00
        l.nop 0xf
)";

/** Wrap a workload body in the standard layout. */
std::string
wrapCompute(const std::string &body)
{
    return std::string(computeHandlers) + R"(
    .org 0x100
        l.j main
        l.nop 0
    .org 0x1000
    main:
)" + body + R"(
        l.nop 0xf
)";
}

/**
 * The "vmlinux" workload: a synthetic boot that exercises the
 * privileged architecture — every exception class, tick and external
 * interrupts, a user-mode excursion, and SPR traffic. Provides the
 * exception-qualified program points the trigger programs later hit.
 */
std::string
bootSource()
{
    return R"(
    .equ KDATA, 0x4000
    .equ UCODE, 0x8000

    .org 0x100
        l.j main
        l.nop 0

    ; ---- bus error: data faults skip, fetch faults bounce ----
    .org 0x200
        l.mfspr r26, r0, EPCR0
        l.mfspr r27, r0, EEAR0
        l.sfeq  r26, r27
        l.bf    buserr_fetch
        l.nop   0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe
    buserr_fetch:
        l.movhi r26, hi(fetch_resume)
        l.ori   r26, r26, lo(fetch_resume)
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ---- data page fault: skip the faulting instruction ----
    .org 0x300
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ---- insn page fault: bounce the user back ----
    .org 0x400
        l.movhi r26, hi(user_resume)
        l.ori   r26, r26, lo(user_resume)
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ---- tick: count and clear the pending bit ----
    .org 0x500
        l.addi  r28, r28, 1
        l.mfspr r26, r0, TTMR
        l.movhi r27, 0xefff
        l.ori   r27, r27, 0xffff
        l.and   r26, r26, r27
        l.mtspr r0, r26, TTMR
        l.rfe

    ; ---- alignment: skip ----
    .org 0x600
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ---- illegal instruction: skip ----
    .org 0x700
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ---- external interrupt: count and acknowledge ----
    .org 0x800
        l.addi  r29, r29, 1
        l.mtspr r0, r0, PICSR
        l.rfe

    ; ---- range: the op committed, skip it ----
    .org 0xb00
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ---- syscall: count; the magic value in r30 returns the user
    ;      excursion to kernel code ----
    .org 0xc00
        l.addi  r25, r25, 1
        l.movhi r26, 0xdead
        l.ori   r26, r26, 0xbeef
        l.sfeq  r30, r26
        l.bnf   sys_done
        l.nop   0
        l.addi  r30, r0, 0
        l.movhi r26, hi(after_user)
        l.ori   r26, r26, lo(after_user)
        l.mtspr r0, r26, EPCR0
        l.mfspr r26, r0, ESR0
        l.ori   r26, r26, 1
        l.mtspr r0, r26, ESR0
    sys_done:
        l.rfe

    ; ---- trap: skip ----
    .org 0xe00
        l.mfspr r26, r0, EPCR0
        l.addi  r26, r26, 4
        l.mtspr r0, r26, EPCR0
        l.rfe

    ; ================= main =================
    .org 0x1000
    main:
        ; phase A: syscalls and traps
        l.addi r1, r0, 0
    phaseA:
        l.sys  0
        l.trap 0
        l.addi r1, r1, 1
        l.sys  0
        l.trap 0
        l.sfltsi r1, 10
        l.bf   phaseA
        l.nop  0

        ; phase B: syscall in a branch delay slot
        l.addi r1, r0, 0
    phaseB:
        l.j    phaseB_cont
        l.sys  0
    phaseB_cont:
        l.addi r1, r1, 1
        l.sfltsi r1, 8
        l.bf   phaseB
        l.nop  0

        ; phase C: range exceptions on overflowing arithmetic
        l.mfspr r3, r0, SR
        l.ori   r3, r3, 0x1000
        l.mtspr r0, r3, SR
        l.addi  r1, r0, 0
        l.movhi r4, 0x7fff
        l.ori   r4, r4, 0xfff0
    phaseC:
        l.add   r5, r4, r4
        l.addi  r6, r4, 0x7fff
        l.add   r5, r4, r4
        l.addi  r6, r4, 0x7fff
        l.addi  r4, r4, 1
        l.addi  r1, r1, 1
        l.sfltsi r1, 8
        l.bf    phaseC
        l.nop   0
        l.mfspr r3, r0, SR
        l.movhi r5, 0xffff
        l.ori   r5, r5, 0xefff
        l.and   r3, r3, r5
        l.mtspr r0, r3, SR

        ; phase D: alignment faults, including one in a delay slot
        l.addi  r1, r0, 0
        l.movhi r7, hi(KDATA)
        l.ori   r7, r7, lo(KDATA)
        l.ori   r7, r7, 1
    phaseD:
        l.lwz  r8, 0(r7)
        l.lhz  r8, 0(r7)
        l.sw   0(r7), r8
        l.j    phaseD_cont
        l.lwz  r8, 2(r7)
    phaseD_cont:
        l.addi r7, r7, 4
        l.addi r1, r1, 1
        l.sfltsi r1, 8
        l.bf   phaseD
        l.nop  0

        ; phase E: illegal instruction words
        l.addi r1, r0, 0
    phaseE:
        .word 0xfc000001
        .word 0xe0000007
        l.addi r1, r1, 1
        l.sfltsi r1, 8
        l.bf   phaseE
        l.nop  0

        ; phase F: bus errors, data then fetch
        l.addi  r1, r0, 0
        l.movhi r10, 0x10
    phaseF:
        l.lwz  r11, 0(r10)
        l.sw   4(r10), r11
        l.addi r10, r10, 8
        l.addi r1, r1, 1
        l.sfltsi r1, 8
        l.bf   phaseF
        l.nop  0
        l.addi r1, r0, 0
    phaseF2:
        l.movhi r10, 0x10
        l.jr    r10
        l.nop   0
    fetch_resume:
        l.addi r1, r1, 1
        l.sfltsi r1, 6
        l.bf   phaseF2
        l.nop  0

        ; phase G: tick timer interrupts over a compute loop
        l.movhi r3, 0x6000
        l.ori   r3, r3, 40
        l.mtspr r0, r3, TTMR
        l.mfspr r4, r0, SR
        l.ori   r4, r4, 2
        l.mtspr r0, r4, SR
        l.addi  r1, r0, 0
    phaseG:
        l.addi  r5, r5, 3
        l.muli  r6, r5, 7
        l.addi  r1, r1, 1
        l.sfltsi r1, 150
        l.bf    phaseG
        l.nop   0
        l.mtspr r0, r0, TTMR
        l.mfspr r4, r0, SR
        l.xori  r5, r0, -1
        l.xori  r5, r5, 2
        l.and   r4, r4, r5
        l.mtspr r0, r4, SR

        ; phase H: external interrupts over a compute loop
        l.addi  r3, r0, 0xff
        l.mtspr r0, r3, PICMR
        l.mfspr r4, r0, SR
        l.ori   r4, r4, 4
        l.mtspr r0, r4, SR
        l.addi  r1, r0, 0
    phaseH:
        l.addi  r5, r5, 1
        l.addi  r1, r1, 1
        l.sfltsi r1, 200
        l.bf    phaseH
        l.nop   0
        l.mfspr r4, r0, SR
        l.xori  r5, r0, -1
        l.xori  r5, r5, 4
        l.and   r4, r4, r5
        l.mtspr r0, r4, SR
        l.mtspr r0, r0, PICMR

        ; phase I: user-mode excursion
        l.movhi r3, hi(UCODE)
        l.ori   r3, r3, lo(UCODE)
        l.mtspr r0, r3, EPCR0
        l.mfspr r4, r0, SR
        l.xori  r5, r0, -1
        l.xori  r5, r5, 1
        l.and   r4, r4, r5
        l.mtspr r0, r4, ESR0
        l.rfe
    after_user:

        ; phase J: SPR traffic
        l.addi r1, r0, 0
        l.addi r3, r0, 0x111
    phaseJ:
        l.mtspr r0, r3, EEAR0
        l.mfspr r4, r0, EEAR0
        l.mtspr r0, r3, EPCR0
        l.mfspr r5, r0, EPCR0
        l.mtspr r0, r3, MACLO
        l.mfspr r6, r0, MACLO
        l.mtspr r0, r3, MACHI
        l.mtspr r0, r0, MACHI
        l.mtspr r0, r0, MACLO
        l.addi  r3, r3, 0x111
        l.addi  r1, r1, 1
        l.sfltsi r1, 8
        l.bf    phaseJ
        l.nop   0

        l.nop 0xf

    ; ================= user code =================
    .org 0x8000
        l.addi r12, r0, 0
    user_loop:
        l.addi r13, r13, 5
        l.mul  r14, r13, r13
        l.sys  0
        l.lwz  r15, 0x400(r0)
        l.mfspr r16, r0, SR
        l.addi r12, r12, 1
        l.sfltsi r12, 9
        l.bf   user_loop
        l.nop  0
        l.movhi r17, 0
        l.ori   r17, r17, 0x1000
        l.jr    r17
        l.nop   0
    user_resume:
        l.movhi r30, 0xdead
        l.ori   r30, r30, 0xbeef
        l.sys   0
        l.nop   0
)";
}

std::string
basicmathSource()
{
    return wrapCompute(R"(
        l.addi r1, r0, 1
        l.addi r2, r0, 0
    bm_loop:
        l.add   r2, r2, r1
        l.mul   r3, r1, r1
        l.addi  r4, r1, 100
        l.div   r5, r4, r1
        l.divu  r6, r3, r1
        l.sub   r7, r3, r2
        l.addc  r8, r2, r3
        l.addic r10, r2, 5
        l.jal   bm_square
        l.nop   0
        l.addi  r1, r1, 1
        l.sfltsi r1, 200
        l.bf    bm_loop
        l.nop   0
        l.j     bm_done
        l.nop   0
    bm_square:
        l.mul   r11, r1, r1
        l.jr    r9
        l.nop   0
    bm_done:
)");
}

std::string
parserSource()
{
    return wrapCompute(R"(
        .equ BUF, 0x4000
        l.movhi r1, hi(BUF)
        l.ori   r1, r1, lo(BUF)
        l.addi  r2, r0, 0
    pw_loop:
        l.andi  r3, r2, 0x3f
        l.addi  r3, r3, 32
        l.add   r4, r1, r2
        l.sb    0(r4), r3
        l.addi  r2, r2, 1
        l.sfltsi r2, 96
        l.bf    pw_loop
        l.nop   0
        l.addi  r2, r0, 0
        l.addi  r5, r0, 0
    ps_loop:
        l.add   r4, r1, r2
        l.lbz   r3, 0(r4)
        l.sfeqi r3, 32
        l.bf    ps_space
        l.nop   0
        l.addi  r5, r5, 1
    ps_space:
        l.lbs   r6, 0(r4)
        l.extbz r7, r6
        l.addi  r2, r2, 1
        l.sfltsi r2, 96
        l.bf    ps_loop
        l.nop   0
)");
}

std::string
mesaSource()
{
    return wrapCompute(R"(
        l.addi r1, r0, 0
    mesa_loop:
        l.muli  r2, r1, 13
        l.slli  r3, r2, 2
        l.srai  r4, r2, 3
        l.mac   r2, r3
        l.mul   r5, r2, r4
        l.macrc r6
        l.srli  r7, r5, 1
        l.addi  r1, r1, 1
        l.sfltsi r1, 150
        l.bf    mesa_loop
        l.nop   0
)");
}

std::string
ammpSource()
{
    return wrapCompute(R"(
        .equ ARR, 0x4400
        l.movhi r1, hi(ARR)
        l.ori   r1, r1, lo(ARR)
        l.addi  r2, r0, 0
    fill:
        l.slli  r3, r2, 2
        l.add   r4, r1, r3
        l.muli  r5, r2, 37
        l.sw    0(r4), r5
        l.addi  r2, r2, 1
        l.sfltsi r2, 128
        l.bf    fill
        l.nop   0
        l.addi  r2, r0, 0
        l.addi  r6, r0, 0
    sweep:
        l.slli  r3, r2, 2
        l.add   r4, r1, r3
        l.lws   r5, 0(r4)
        l.add   r6, r6, r5
        l.lwz   r7, 4(r4)
        l.sub   r8, r7, r5
        l.sw    4(r4), r8
        l.addi  r2, r2, 2
        l.sfltsi r2, 126
        l.bf    sweep
        l.nop   0
)");
}

std::string
mcfSource()
{
    return wrapCompute(R"(
        .equ NODES, 0x5000
        ; build a 32-node singly linked list: {next, value}
        l.movhi r1, hi(NODES)
        l.ori   r1, r1, lo(NODES)
        l.addi  r2, r0, 0
    build:
        l.slli  r3, r2, 3
        l.add   r4, r1, r3
        l.addi  r5, r4, 8
        l.sw    0(r4), r5
        l.muli  r6, r2, 11
        l.sw    4(r4), r6
        l.addi  r2, r2, 1
        l.sfltsi r2, 32
        l.bf    build
        l.nop   0
        ; terminate the list
        l.slli  r3, r2, 3
        l.add   r4, r1, r3
        l.addi  r4, r4, -8
        l.sw    0(r4), r0
        ; traverse it a few times via a function pointer
        l.movhi r11, hi(chase_fn)
        l.ori   r11, r11, lo(chase_fn)
        l.addi  r10, r0, 0
    pass:
        l.jalr  r11
        l.nop   0
        l.addi  r10, r10, 1
        l.sfltsi r10, 6
        l.bf    pass
        l.nop   0
        l.j     mcf_done
        l.nop   0
    chase_fn:
        l.add   r7, r1, r0
        l.addi  r8, r0, 0
    chase:
        l.lwz   r6, 4(r7)
        l.add   r8, r8, r6
        l.lwz   r7, 0(r7)
        l.sfne  r7, r0
        l.bf    chase
        l.nop   0
        l.jr    r9
        l.nop   0
    mcf_done:
)");
}

std::string
instruSource()
{
    return wrapCompute(R"(
        l.movhi r2, 0x8765
        l.ori   r2, r2, 0x4321
        l.addi  r1, r0, 0
    ins_loop:
        l.extbs r3, r2
        l.extbz r4, r2
        l.exths r5, r2
        l.exthz r6, r2
        l.extws r7, r2
        l.extwz r8, r2
        l.ff1   r10, r2
        l.sfltsi r1, 50
        l.cmov  r11, r3, r4
        l.ror   r2, r2, r10
        l.xori  r2, r2, 0x35
        l.addi  r1, r1, 1
        l.sfltsi r1, 100
        l.bf    ins_loop
        l.nop   0
)");
}

std::string
gzipSource()
{
    return wrapCompute(R"(
        l.movhi r2, 0x1f8b
        l.ori   r2, r2, 0x0808
        l.addi  r1, r0, 0
        l.addi  r3, r0, 0
    gz_loop:
        l.slli  r4, r2, 3
        l.srli  r5, r2, 5
        l.xor   r6, r4, r5
        l.or    r3, r3, r6
        l.and   r7, r6, r2
        l.rori  r2, r6, 7
        l.sll   r8, r2, r1
        l.srl   r10, r2, r1
        l.sra   r11, r2, r1
        l.addi  r1, r1, 1
        l.andi  r1, r1, 0xff
        l.sfltsi r1, 180
        l.bf    gz_loop
        l.nop   0
)");
}

std::string
craftySource()
{
    return wrapCompute(R"(
        ; bitboard-style: 64-bit values in register pairs
        l.movhi r2, 0x0f0f
        l.ori   r2, r2, 0x0f0f
        l.movhi r3, 0x00ff
        l.ori   r3, r3, 0xff00
        l.movhi r13, hi(cf_popcnt)
        l.ori   r13, r13, lo(cf_popcnt)
        l.addi  r1, r0, 0
    cf_loop:
        l.and   r4, r2, r3
        l.or    r5, r2, r3
        l.xor   r6, r2, r3
        l.ff1   r7, r6
        l.slli  r2, r2, 1
        l.srli  r3, r3, 1
        l.or    r2, r2, r7
        l.or    r3, r3, r4
        l.jal   cf_popcnt
        l.nop   0
        l.jalr  r13
        l.nop   0
        l.addi  r1, r1, 1
        l.sfltsi r1, 80
        l.bf    cf_loop
        l.nop   0
        l.j     cf_done
        l.nop   0
    cf_popcnt:
        l.addi  r10, r0, 0
        l.add   r11, r6, r0
    cf_pop_loop:
        l.sfne  r11, r0
        l.bnf   cf_pop_done
        l.nop   0
        l.ff1   r12, r11
        l.srl   r11, r11, r12
        l.addi  r10, r10, 1
        l.j     cf_pop_loop
        l.nop   0
    cf_pop_done:
        l.jr    r9
        l.nop   0
    cf_done:
)");
}

std::string
bzipSource()
{
    return wrapCompute(R"(
        .equ SRC, 0x4000
        .equ DST, 0x4800
        l.movhi r1, hi(SRC)
        l.ori   r1, r1, lo(SRC)
        l.movhi r2, hi(DST)
        l.ori   r2, r2, lo(DST)
        l.addi  r3, r0, 0
    bz_fill:
        l.muli  r4, r3, 67
        l.andi  r4, r4, 0xff
        l.add   r5, r1, r3
        l.sb    0(r5), r4
        l.addi  r3, r3, 1
        l.sfltsi r3, 128
        l.bf    bz_fill
        l.nop   0
        l.addi  r3, r0, 0
    bz_move:
        l.add   r5, r1, r3
        l.lbz   r4, 0(r5)
        l.rori  r4, r4, 1
        l.andi  r4, r4, 0xff
        l.xori  r4, r4, 0x5a
        l.addi  r6, r0, 127
        l.sub   r7, r6, r3
        l.add   r8, r2, r7
        l.sb    0(r8), r4
        l.addi  r3, r3, 1
        l.sfltsi r3, 128
        l.bf    bz_move
        l.nop   0
)");
}

std::string
quakeSource()
{
    return wrapCompute(R"(
        .equ VEC, 0x4000
        l.movhi r1, hi(VEC)
        l.ori   r1, r1, lo(VEC)
        l.addi  r2, r0, 0
    qk_fill:
        l.slli  r3, r2, 2
        l.add   r4, r1, r3
        l.addi  r5, r2, -32
        l.muli  r5, r5, 9
        l.sw    0(r4), r5
        l.addi  r2, r2, 1
        l.sfltsi r2, 64
        l.bf    qk_fill
        l.nop   0
        ; dot products with the MAC unit
        l.addi  r2, r0, 0
    qk_dot:
        l.slli  r3, r2, 2
        l.add   r4, r1, r3
        l.lwz   r5, 0(r4)
        l.lwz   r6, 4(r4)
        l.mac   r5, r6
        l.maci  r5, 3
        l.msb   r6, r6
        l.addi  r2, r2, 1
        l.sfltsi r2, 60
        l.bf    qk_dot
        l.nop   0
        l.macrc r7
)");
}

std::string
twolfSource()
{
    return wrapCompute(R"(
        .equ VALS, 0x4000
        ; value table with signed/unsigned corner cases
        l.movhi r1, hi(VALS)
        l.ori   r1, r1, lo(VALS)
        l.sw    0(r1), r0
        l.addi  r2, r0, 5
        l.sw    4(r1), r2
        l.addi  r2, r0, -5
        l.sw    8(r1), r2
        l.movhi r2, 0x8000
        l.ori   r2, r2, 1
        l.sw    12(r1), r2
        l.movhi r2, 0x7fff
        l.ori   r2, r2, 0xffff
        l.sw    16(r1), r2
        l.addi  r2, r0, 1
        l.sw    20(r1), r2

        l.addi  r3, r0, 0          ; i
    tw_outer:
        l.slli  r5, r3, 2
        l.add   r5, r1, r5
        l.lwz   r6, 0(r5)          ; a
        l.addi  r4, r0, 0          ; j
    tw_inner:
        l.slli  r7, r4, 2
        l.add   r7, r1, r7
        l.lwz   r8, 0(r7)          ; b
        l.sfeq  r6, r8
        l.cmov  r10, r6, r8
        l.sfne  r6, r8
        l.cmov  r10, r6, r8
        l.sfgtu r6, r8
        l.cmov  r10, r6, r8
        l.sfgeu r6, r8
        l.cmov  r10, r6, r8
        l.sfltu r6, r8
        l.cmov  r10, r6, r8
        l.sfleu r6, r8
        l.cmov  r10, r6, r8
        l.sfgts r6, r8
        l.cmov  r10, r6, r8
        l.sfges r6, r8
        l.cmov  r10, r6, r8
        l.sflts r6, r8
        l.cmov  r10, r6, r8
        l.sfles r6, r8
        l.cmov  r10, r6, r8
        l.sfeqi r6, 5
        l.sfnei r6, 0
        l.sfgtui r6, 100
        l.sfgeui r6, 0
        l.sfltui r6, 1000
        l.sfleui r6, 1000
        l.sfgtsi r6, -7
        l.sfgesi r6, -7
        l.sfltsi r6, 7
        l.sflesi r6, 7
        l.addi  r4, r4, 1
        l.sfltsi r4, 6
        l.bf    tw_inner
        l.nop   0
        l.addi  r3, r3, 1
        l.sfltsi r3, 6
        l.bf    tw_outer
        l.nop   0
)");
}

std::string
vprSource()
{
    return wrapCompute(R"(
        .equ GRID, 0x4000
        l.movhi r1, hi(GRID)
        l.ori   r1, r1, lo(GRID)
        l.addi  r2, r0, 0
    vp_fill:
        l.slli  r3, r2, 1
        l.add   r4, r1, r3
        l.addi  r5, r2, -40
        l.muli  r5, r5, 3
        l.sh    0(r4), r5
        l.addi  r2, r2, 1
        l.sfltsi r2, 80
        l.bf    vp_fill
        l.nop   0
        l.addi  r2, r0, 0
        l.addi  r6, r0, 0
    vp_cost:
        l.slli  r3, r2, 1
        l.add   r4, r1, r3
        l.lhs   r5, 0(r4)
        l.lhz   r7, 2(r4)
        l.exths r8, r7
        l.add   r6, r6, r5
        l.sub   r6, r6, r8
        l.addi  r2, r2, 2
        l.sfltsi r2, 78
        l.bf    vp_cost
        l.nop   0
)");
}

std::string
piSource()
{
    return wrapCompute(R"(
        ; integer arctan-series flavour: heavy division
        l.movhi r2, 0x000f
        l.ori   r2, r2, 0x4240     ; 1,000,000
        l.addi  r3, r0, 1          ; k
        l.addi  r4, r0, 0          ; acc
    pi_loop:
        l.div   r5, r2, r3
        l.divu  r6, r2, r3
        l.mulu  r8, r5, r6
        l.andi  r7, r3, 2
        l.sfeqi r7, 0
        l.bf    pi_add
        l.nop   0
        l.sub   r4, r4, r5
        l.j     pi_next
        l.nop   0
    pi_add:
        l.add   r4, r4, r5
    pi_next:
        l.addi  r3, r3, 2
        l.sfltsi r3, 300
        l.bf    pi_loop
        l.nop   0
)");
}

std::string
bitcountSource()
{
    return wrapCompute(R"(
        l.movhi r2, 0xdead
        l.ori   r2, r2, 0xbeef
        l.addi  r1, r0, 0
        l.addi  r3, r0, 0
    bc_outer:
        l.add   r4, r2, r0
    bc_inner:
        l.sfne  r4, r0
        l.bnf   bc_next
        l.nop   0
        l.ff1   r5, r4
        l.srl   r4, r4, r5
        l.addi  r3, r3, 1
        l.j     bc_inner
        l.nop   0
    bc_next:
        l.muli  r2, r2, 17
        l.addi  r2, r2, 29
        l.addi  r1, r1, 1
        l.sfltsi r1, 40
        l.bf    bc_outer
        l.nop   0
)");
}

std::string
fftSource()
{
    return wrapCompute(R"(
        .equ RE, 0x4000
        .equ IM, 0x4400
        l.movhi r1, hi(RE)
        l.ori   r1, r1, lo(RE)
        l.movhi r2, hi(IM)
        l.ori   r2, r2, lo(IM)
        l.addi  r3, r0, 0
    ff_fill:
        l.slli  r4, r3, 2
        l.add   r5, r1, r4
        l.muli  r6, r3, 5
        l.sw    0(r5), r6
        l.add   r5, r2, r4
        l.addi  r6, r3, -16
        l.sw    0(r5), r6
        l.addi  r3, r3, 1
        l.sfltsi r3, 32
        l.bf    ff_fill
        l.nop   0
        ; butterfly passes
        l.addi  r10, r0, 0
    ff_pass:
        l.addi  r3, r0, 0
    ff_bfly:
        l.slli  r4, r3, 2
        l.add   r5, r1, r4
        l.lwz   r6, 0(r5)          ; a
        l.lwz   r7, 4(r5)          ; b
        l.add   r8, r6, r7
        l.sub   r11, r6, r7
        l.srai  r8, r8, 1
        l.srai  r11, r11, 1
        l.sw    0(r5), r8
        l.sw    4(r5), r11
        l.addi  r3, r3, 2
        l.sfltsi r3, 30
        l.bf    ff_bfly
        l.nop   0
        l.addi  r10, r10, 1
        l.sfltsi r10, 5
        l.bf    ff_pass
        l.nop   0
)");
}

std::string
helloworldSource()
{
    return wrapCompute(R"(
        .equ OUT, 0x4000
        l.movhi r1, hi(OUT)
        l.ori   r1, r1, lo(OUT)
        l.addi  r2, r0, 72         ; 'H'
        l.sb    0(r1), r2
        l.addi  r2, r0, 69         ; 'E'
        l.sb    1(r1), r2
        l.addi  r2, r0, 76         ; 'L'
        l.sb    2(r1), r2
        l.sb    3(r1), r2
        l.addi  r2, r0, 79         ; 'O'
        l.sb    4(r1), r2
        l.sys   0
)");
}

std::vector<Workload>
buildAll()
{
    std::vector<Workload> out;

    auto add = [&out](const std::string &name, std::string source,
                      cpu::CpuConfig config = cpu::CpuConfig()) {
        out.push_back(Workload{name, std::move(source), config});
    };

    cpu::CpuConfig bootCfg;
    // External interrupt lines arrive every ~100 instructions; they
    // are only taken while the boot enables IEE (phase H).
    for (uint64_t at = 100; at < 12000; at += 100)
        bootCfg.irqSchedule.push_back({at, (at / 100) % 3});

    add("vmlinux", bootSource(), bootCfg);
    add("basicmath", basicmathSource());
    add("parser", parserSource());
    add("mesa", mesaSource());
    add("ammp", ammpSource());
    add("mcf", mcfSource());
    add("instru", instruSource());
    add("gzip", gzipSource());
    add("crafty", craftySource());
    add("bzip", bzipSource());
    add("quake", quakeSource());
    add("twolf", twolfSource());
    add("vpr", vprSource());
    add("pi", piSource());
    add("bitcount", bitcountSource());
    add("fft", fftSource());
    add("helloworld", helloworldSource());
    return out;
}

} // namespace

const std::vector<Workload> &
all()
{
    static const std::vector<Workload> workloads = buildAll();
    return workloads;
}

const Workload &
byName(const std::string &name)
{
    for (const auto &w : all()) {
        if (w.name == name)
            return w;
    }
    panic("unknown workload '%s'", name.c_str());
}

void
runInto(const Workload &w, const cpu::MutationSet &mutations,
        trace::TraceSink *sink)
{
    cpu::CpuConfig config = w.config;
    config.mutations = mutations;
    cpu::Cpu cpu(config);
    cpu.loadProgram(assembler::assembleOrDie(w.source));
    cpu::RunResult result = cpu.run(sink);
    if (result.reason != cpu::HaltReason::Halted && mutations.empty()) {
        panic("workload '%s' did not halt cleanly (reason %d)",
              w.name.c_str(), int(result.reason));
    }
}

trace::TraceBuffer
run(const Workload &w, const cpu::MutationSet &mutations)
{
    trace::TraceBuffer buffer;
    runInto(w, mutations, &buffer);
    return buffer;
}

trace::ColumnarCapture
runColumnar(const Workload &w, const cpu::MutationSet &mutations)
{
    trace::ColumnarCapture capture;
    runInto(w, mutations, &capture);
    return capture;
}

std::string
randomProgram(Rng &rng, size_t length)
{
    // Leaf functions callable both forward (from the 0x1000 chunk)
    // and backward (from the 0x30000 chunk).
    const char *functions = R"(
        .org 0x3000
    fn_mix:
        l.xori  r15, r15, 0x35
        l.addi  r15, r15, 3
        l.jr    r9
        l.nop   0
    fn_rot:
        l.rori  r14, r14, 5
        l.add   r14, r14, r15
        l.jr    r9
        l.nop   0
)";

    auto chunk = [&rng](size_t n) {
        std::string body;
        auto reg = [&rng]() {
            // A wide pool excluding r6/r7 (the generator's own
            // address temporaries) and r9 (the link register).
            static const unsigned pool[] = {1,  2,  3,  4,  5,  8,
                                            10, 11, 12, 13, 14, 15,
                                            16, 17, 18, 19, 20, 21,
                                            22, 23, 24, 28, 29, 30,
                                            31};
            return format("r%u", pool[rng.below(25)]);
        };
        body += "        l.movhi r7, 0\n";
        body += "        l.ori   r7, r7, 0x4000\n";
        for (size_t i = 0; i < n; ++i) {
            switch (rng.below(16)) {
              case 0:
                body += format("        l.addi %s, %s, %d\n",
                               reg().c_str(), reg().c_str(),
                               int(rng.range(-5000, 5000)));
                break;
              case 1:
                body += format("        l.add %s, %s, %s\n",
                               reg().c_str(), reg().c_str(),
                               reg().c_str());
                break;
              case 2:
                body += format("        l.sub %s, %s, %s\n",
                               reg().c_str(), reg().c_str(),
                               reg().c_str());
                break;
              case 3:
                body += format("        l.xor %s, %s, %s\n",
                               reg().c_str(), reg().c_str(),
                               reg().c_str());
                break;
              case 4:
                body += format("        l.and %s, %s, %s\n",
                               reg().c_str(), reg().c_str(),
                               reg().c_str());
                break;
              case 5:
                body += format("        l.slli %s, %s, %u\n",
                               reg().c_str(), reg().c_str(),
                               unsigned(rng.below(31)));
                break;
              case 6:
                body += format("        l.rori %s, %s, %u\n",
                               reg().c_str(), reg().c_str(),
                               unsigned(rng.below(31)));
                break;
              case 7:
                body += format("        l.mul %s, %s, %s\n",
                               reg().c_str(), reg().c_str(),
                               reg().c_str());
                break;
              case 8: {
                // Masked store: address forced word aligned, in range.
                std::string v = reg(), x = reg();
                body += format("        l.andi r6, %s, 0x3fc\n",
                               x.c_str());
                body += "        l.add  r6, r6, r7\n";
                body += format("        l.sw   0(r6), %s\n", v.c_str());
                break;
              }
              case 9: {
                std::string d = reg(), x = reg();
                body += format("        l.andi r6, %s, 0x3fc\n",
                               x.c_str());
                body += "        l.add  r6, r6, r7\n";
                body += format("        l.lwz  %s, 0(r6)\n", d.c_str());
                break;
              }
              case 10:
                body += format("        l.sfltsi %s, %d\n",
                               reg().c_str(),
                               int(rng.range(-50, 50)));
                body += format("        l.cmov %s, %s, %s\n",
                               reg().c_str(), reg().c_str(),
                               reg().c_str());
                break;
              case 11:
                body += format("        l.%s %s, %s\n",
                               rng.chance(0.5) ? "exths" : "extbz",
                               reg().c_str(), reg().c_str());
                break;
              case 12:
                // Function calls, forward from one chunk and
                // backward from the other.
                body += format("        l.jal %s\n",
                               rng.chance(0.5) ? "fn_mix" : "fn_rot");
                body += "        l.nop  0\n";
                break;
              case 13:
                body += "        l.sys  0\n";
                break;
              case 14: {
                // Benign SPR traffic.
                static const char *const sprs[] = {"EEAR0", "EPCR0",
                                                   "MACLO"};
                const char *spr = sprs[rng.below(3)];
                std::string v = reg(), d = reg();
                body += format("        l.mtspr r0, %s, %s\n",
                               v.c_str(), spr);
                body += format("        l.mfspr %s, r0, %s\n",
                               d.c_str(), spr);
                break;
              }
              default:
                body += format("        l.ori %s, %s, 0x%x\n",
                               reg().c_str(), reg().c_str(),
                               unsigned(rng.below(0x10000)));
                break;
            }
        }
        return body;
    };

    // Two chunks: 0x1000 (calls go forward) and 0x30000 (calls go
    // backward), joined by a long jump.
    std::string out(computeHandlers);
    out += R"(
    .org 0x100
        l.j main
        l.nop 0
)";
    out += functions;
    out += "    .org 0x1000\n    main:\n";
    out += chunk(length / 2);
    out += "        l.j far_chunk\n        l.nop 0\n";
    out += "    .org 0x30000\n    far_chunk:\n";
    out += chunk(length - length / 2);
    out += "        l.nop 0xf\n";
    return out;
}

std::vector<Workload>
validationPrograms(size_t count, uint64_t seed)
{
    // One sequential random stream decides every program, so the
    // corpus is a pure function of (count, seed); only the runs of
    // the already-fixed programs fan out.
    Rng rng(seed);
    std::vector<Workload> programs(count);
    for (size_t i = 0; i < count; ++i) {
        programs[i].name = format("random-%zu", i);
        programs[i].source = randomProgram(rng, 150);
    }
    return programs;
}

std::vector<trace::TraceBuffer>
validationCorpus(size_t count, uint64_t seed,
                 support::ThreadPool *pool)
{
    std::vector<Workload> programs = validationPrograms(count, seed);
    return support::parallelMap(
        pool, programs, [](const Workload &w) { return run(w); });
}

std::vector<uint64_t>
validationCorpusToStore(const std::string &path, size_t count,
                        uint64_t seed, support::ThreadPool *pool,
                        uint32_t chunkRecords)
{
    std::vector<Workload> programs = validationPrograms(count, seed);
    std::vector<std::string> names(count);
    for (size_t i = 0; i < count; ++i)
        names[i] = programs[i].name;
    return trace::buildTraceSetParallel(
        path, chunkRecords, names,
        [&](size_t i, trace::TraceSink &sink) {
            runInto(programs[i], {}, &sink);
        },
        pool);
}

} // namespace scif::workloads
