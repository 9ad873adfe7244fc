/**
 * @file
 * Predecode front-end tests: the block cache's soundness rules.
 *
 * Every behavioural test runs the same program through the predecoded
 * and the interpreted front end and requires identical traces and
 * final state — self-modifying code (stores into the currently
 * executing block, stores into a cached delay slot), mutation-set
 * keying on a live processor, the b11 interpreted fallback, and the
 * diff-aware program reload. Unit tests poke the BlockCache API
 * directly (negative entries, page counters, graveyard).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>

#include "asm/assembler.hh"
#include "cpu/blockcache.hh"
#include "cpu/cpu.hh"

namespace scif::cpu {
namespace {

using assembler::assembleOrDie;
using assembler::Program;

std::string
prog(const std::string &body)
{
    return ".org 0x100\n" + body + "\n    l.nop 0xf\n";
}

/** Encoding of a single instruction (assembled in isolation). */
uint32_t
encodeInsn(const std::string &text)
{
    Program p = assembleOrDie(".org 0x100\n    " + text + "\n");
    return p.words.at(0x100);
}

/** "l.movhi rN, hi; l.ori rN, rN, lo" materializing @p word. */
std::string
materialize(unsigned reg, uint32_t word)
{
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "    l.movhi r%u, 0x%x\n    l.ori r%u, r%u, 0x%x\n",
                  reg, word >> 16, reg, reg, word & 0xffff);
    return buf;
}

void
expectSameTrace(const trace::TraceBuffer &a, const trace::TraceBuffer &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        const trace::Record &ra = a.records()[i];
        const trace::Record &rb = b.records()[i];
        ASSERT_EQ(ra.point.id(), rb.point.id()) << "record " << i;
        ASSERT_EQ(ra.index, rb.index) << "record " << i;
        ASSERT_EQ(ra.fused, rb.fused) << "record " << i;
        ASSERT_EQ(ra.pre, rb.pre) << "record " << i;
        ASSERT_EQ(ra.post, rb.post) << "record " << i;
    }
}

/** Run @p program on both front ends; require identical behaviour.
 *  @return the predecoded Cpu for stats assertions. */
struct BothModes
{
    explicit BothModes(const Program &program,
                       MutationSet mutations = MutationSet())
    {
        CpuConfig fast;
        fast.predecode = true;
        fast.mutations = mutations;
        CpuConfig slow = fast;
        slow.predecode = false;

        cached = std::make_unique<Cpu>(fast);
        interp = std::make_unique<Cpu>(slow);
        cached->loadProgram(program);
        interp->loadProgram(program);
        cachedResult = cached->run(&cachedTrace);
        interpResult = interp->run(&interpTrace);

        EXPECT_EQ(cachedResult.reason, interpResult.reason);
        EXPECT_EQ(cachedResult.instructions, interpResult.instructions);
        expectSameTrace(cachedTrace, interpTrace);
        for (unsigned r = 0; r < isa::numGprs; ++r)
            EXPECT_EQ(cached->gpr(r), interp->gpr(r)) << "r" << r;
        EXPECT_EQ(cached->pc(), interp->pc());
    }

    std::unique_ptr<Cpu> cached;
    std::unique_ptr<Cpu> interp;
    trace::TraceBuffer cachedTrace;
    trace::TraceBuffer interpTrace;
    RunResult cachedResult;
    RunResult interpResult;
};

// --- self-modifying code ---

TEST(Smc, StoreIntoCurrentlyExecutingBlock)
{
    // One straight-line block; the store at 0x110 overwrites the
    // instruction at 0x11c *in the same block*, three boundaries
    // before execution reaches it. The new word must execute.
    uint32_t patch = encodeInsn("l.addi r4, r0, 77");
    Program p = assembleOrDie(
        ".org 0x100\n" + materialize(1, patch) + R"(
        l.sw    0x114(r0), r1
        l.addi  r3, r0, 1
        l.addi  r3, r3, 2
        l.addi  r4, r0, 11
        l.nop 0xf
    )");
    ASSERT_EQ(p.words.at(0x114), encodeInsn("l.addi r4, r0, 11"));

    BothModes m(p);
    EXPECT_EQ(m.cached->gpr(4), 77u);
    ASSERT_NE(m.cached->cacheStats(), nullptr);
    EXPECT_GE(m.cached->cacheStats()->invalidations, 1u);
}

TEST(Smc, StoreIntoCachedDelaySlot)
{
    // The loop's bf/addi pair is one fused cached entry. After the
    // first iteration executes it, the store rewrites the delay-slot
    // word; later iterations must run the new instruction.
    uint32_t patch = encodeInsn("l.addi r5, r5, 100");
    Program p = assembleOrDie(
        ".org 0x100\n" + materialize(1, patch) + R"(
        l.addi  r2, r0, 0
    loop:
        l.addi  r2, r2, 1
        l.sfeqi r2, 3
        l.bf    done
        l.addi  r5, r5, 10
        l.sw    0x118(r0), r1
        l.j     loop
        l.nop   0
    done:
        l.nop 0xf
    )");
    ASSERT_EQ(p.words.at(0x118), encodeInsn("l.addi r5, r5, 10"));

    BothModes m(p);
    // Iteration 1 runs the original delay slot (+10); the store then
    // patches it, so iterations 2 and 3 add 100 each.
    EXPECT_EQ(m.cached->gpr(5), 210u);
    EXPECT_GE(m.cached->cacheStats()->invalidations, 1u);
}

TEST(Smc, StoreIntoNextBlock)
{
    // The loop head (ending at the bf) falls through to the body
    // block at 0x120; the head's store patches the body's first word
    // on every iteration. The rebuilt body must execute the patched
    // instruction, with a trace byte-identical to the interpreted
    // oracle.
    uint32_t patch = encodeInsn("l.addi r5, r5, 100");
    Program p = assembleOrDie(
        ".org 0x100\n" + materialize(1, patch) + R"(
        l.addi  r2, r0, 0
    loop:
        l.addi  r2, r2, 1
        l.sfeqi r2, 3
        l.sw    0x120(r0), r1
        l.bf    done
        l.nop   0
        l.addi  r5, r5, 10
        l.j     loop
        l.nop   0
    done:
        l.nop 0xf
    )");
    ASSERT_EQ(p.words.at(0x120), encodeInsn("l.addi r5, r5, 10"));

    BothModes m(p);
    // The store runs before the body is ever decoded, so every body
    // execution (iterations 1 and 2; iteration 3 branches out) adds
    // the patched 100.
    EXPECT_EQ(m.cached->gpr(5), 200u);
    EXPECT_GE(m.cached->cacheStats()->invalidations, 1u);
}

// --- block dispatch ---

TEST(Dispatch, LoopReentersCachedBlocks)
{
    // A two-block loop: every iteration after the first re-enters
    // the head and body blocks through the cache lookup, without
    // decoding them again.
    Program p = assembleOrDie(prog(R"(
        l.addi  r2, r0, 0
    loop:
        l.addi  r2, r2, 1
        l.sfeqi r2, 5
        l.bf    done
        l.nop   0
        l.addi  r5, r5, 10
        l.j     loop
        l.nop   0
    done:
        l.nop   0x0
    )"));

    BothModes m(p);
    EXPECT_EQ(m.cached->gpr(5), 40u);
    const BlockCache::Stats &stats = *m.cached->cacheStats();
    // Entry block, loop head, body and exit: four decodes for five
    // iterations.
    EXPECT_EQ(stats.builds, 4u);
    EXPECT_EQ(stats.invalidations, 0u);
    EXPECT_EQ(stats.fallbacks, 0u);
}

// --- mutation-set keying ---

/** Unsigned compare whose outcome flips under b6 (falls back to a
 *  signed compare when the operand MSBs differ). */
Program
b6Probe()
{
    return assembleOrDie(prog(R"(
        l.movhi r3, 0x8000
        l.addi  r4, r0, 1
        l.sfltu r4, r3
        l.bf    taken
        l.nop   0
        l.addi  r5, r0, 2
        l.nop 0xf
    taken:
        l.addi  r5, r0, 1
    )"));
}

TEST(Keying, LiveMutationSwitchIsolatesEntries)
{
    Program p = b6Probe();
    MutationSet b6;
    b6.add(Mutation::B6_UnsignedCmpMsb);

    CpuConfig config;
    config.predecode = true;
    Cpu cpu(config);

    // Clean: 1 <u 0x80000000 holds.
    cpu.loadProgram(p);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(cpu.gpr(5), 1u);
    const BlockCache::Stats &stats = *cpu.cacheStats();
    uint64_t cleanBuilds = stats.builds;
    // The very first load takes the clear-and-flush fast path; later
    // reloads and mutation switches must never flush again.
    uint64_t baseFlushes = stats.flushes;

    // Buggy, same processor: the signed fallback sees 1 < INT_MIN as
    // false. New cache key, so blocks rebuild rather than flush.
    cpu.setMutations(b6);
    cpu.loadProgram(p);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(cpu.gpr(5), 2u);
    EXPECT_GT(stats.builds, cleanBuilds);
    EXPECT_EQ(stats.flushes, baseFlushes);
    uint64_t buggyBuilds = stats.builds;

    // Back to clean: the first key's entries are still warm.
    cpu.setMutations(MutationSet());
    cpu.loadProgram(p);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(cpu.gpr(5), 1u);
    EXPECT_EQ(stats.builds, buggyBuilds);
    EXPECT_EQ(stats.flushes, baseFlushes);
}

TEST(Keying, BuggyRunMatchesFreshCpu)
{
    MutationSet b6;
    b6.add(Mutation::B6_UnsignedCmpMsb);
    BothModes m(b6Probe(), b6);
    EXPECT_EQ(m.cached->gpr(5), 2u);
}

TEST(Keying, B11FallsBackToInterpreted)
{
    // b11 corrupts fetched words dynamically, so predecode is unsound
    // under it: the front end must take zero cached boundaries and
    // still match the interpreted run exactly.
    MutationSet b11;
    b11.add(Mutation::B11_FetchAfterLsuStall);
    Program p = assembleOrDie(prog(R"(
        l.movhi r7, 0x1
        l.addi  r8, r0, 42
        l.sw    0(r7), r8
        l.lwz   r9, 0(r7)
        l.addi  r10, r9, 1
    )"));

    BothModes m(p, b11);
    ASSERT_NE(m.cached->cacheStats(), nullptr);
    EXPECT_EQ(m.cached->cacheStats()->hits, 0u);
}

// --- diff-aware program reload ---

TEST(Reload, SameImageKeepsCacheWarm)
{
    Program p = assembleOrDie(prog(R"(
        l.addi r1, r0, 0
    loop:
        l.addi r1, r1, 1
        l.sfltsi r1, 6
        l.bf   loop
        l.nop  0
    )"));

    CpuConfig config;
    config.predecode = true;
    Cpu cpu(config);
    cpu.loadProgram(p);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    const BlockCache::Stats &stats = *cpu.cacheStats();
    uint64_t builds = stats.builds;
    uint64_t hits = stats.hits;
    ASSERT_GT(builds, 0u);

    // Reloading the identical image must not decode anything again.
    cpu.loadProgram(p);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(cpu.gpr(1), 6u);
    EXPECT_EQ(stats.builds, builds);
    EXPECT_EQ(stats.invalidations, 0u);
    EXPECT_GT(stats.hits, hits);
}

TEST(Reload, ChangedWordInvalidatesItsBlock)
{
    Program a = assembleOrDie(prog("    l.addi r6, r0, 5"));
    Program b = assembleOrDie(prog("    l.addi r6, r0, 9"));

    CpuConfig config;
    config.predecode = true;
    Cpu cpu(config);
    cpu.loadProgram(a);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(cpu.gpr(6), 5u);

    cpu.loadProgram(b);
    ASSERT_EQ(cpu.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(cpu.gpr(6), 9u);
    EXPECT_GE(cpu.cacheStats()->invalidations, 1u);
}

TEST(Reload, RestoresMemoryExactly)
{
    // The program dirties data memory far from the image; reloading
    // must leave RAM byte-identical to a fresh load (the diff scan
    // has to zero everything the run wrote).
    Program p = assembleOrDie(prog(R"(
        l.movhi r7, 0x4
        l.movhi r8, 0xdead
        l.ori   r8, r8, 0xbeef
        l.sw    0(r7), r8
        l.sw    0x1f0(r7), r8
        l.sw    0x7fc(r7), r8
    )"));

    CpuConfig config;
    config.predecode = true;
    Cpu warm(config);
    warm.loadProgram(p);
    ASSERT_EQ(warm.run(nullptr).reason, HaltReason::Halted);
    ASSERT_TRUE(warm.memoryDirty());
    ASSERT_EQ(warm.memory().debugReadWord(0x40000), 0xdeadbeefu);
    warm.loadProgram(p);
    EXPECT_FALSE(warm.memoryDirty());

    Cpu fresh(config);
    fresh.loadProgram(p);
    ASSERT_EQ(warm.memory().size(), fresh.memory().size());
    EXPECT_EQ(std::memcmp(warm.memory().raw(), fresh.memory().raw(),
                          warm.memory().size()),
              0);
}

TEST(Reload, DifferentProgramMatchesFreshLoad)
{
    Program a = assembleOrDie(prog(R"(
        l.movhi r7, 0x2
        l.movhi r8, 0xcafe
        l.sw    0(r7), r8
        l.sw    0x100(r7), r8
    )"));
    Program b = assembleOrDie(prog("    l.addi r1, r0, 3"));

    CpuConfig config;
    config.predecode = true;
    Cpu warm(config);
    warm.loadProgram(a);
    ASSERT_EQ(warm.run(nullptr).reason, HaltReason::Halted);
    warm.loadProgram(b);
    ASSERT_EQ(warm.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(warm.gpr(1), 3u);

    Cpu fresh(config);
    fresh.loadProgram(b);
    ASSERT_EQ(fresh.run(nullptr).reason, HaltReason::Halted);
    EXPECT_EQ(std::memcmp(warm.memory().raw(), fresh.memory().raw(),
                          warm.memory().size()),
              0);
}

// --- BlockCache unit tests ---

TEST(BlockCacheUnit, NegativeEntryRevalidatesAfterStore)
{
    Memory mem(4096, 0);
    BlockCache cache(4096);

    // 0xffffffff decodes as nothing: a negative entry that still
    // covers its word in the page index.
    mem.debugWriteWord(0x100, 0xffffffffu);
    Block *neg = cache.lookupOrBuild(0x100, 0, mem, 0);
    ASSERT_NE(neg, nullptr);
    EXPECT_TRUE(neg->ops.empty());
    EXPECT_EQ(neg->bytes, 4u);

    // Overwriting the word kills the negative entry, and the rebuild
    // decodes the new instruction.
    mem.debugWriteWord(0x100, encodeInsn("l.addi r1, r0, 1"));
    cache.invalidateRange(0x100, 4);
    EXPECT_EQ(cache.stats().invalidations, 1u);
    cache.purgeDead();
    Block *rebuilt = cache.lookupOrBuild(0x100, 0, mem, 0);
    ASSERT_EQ(rebuilt->ops.size(), 1u);
    EXPECT_EQ(rebuilt->ops[0].insn.mnemonic, isa::Mnemonic::L_ADDI);
}

TEST(BlockCacheUnit, StoreOutsideCodePagesIsFastPath)
{
    Memory mem(1 << 16, 0);
    BlockCache cache(1 << 16);
    mem.debugWriteWord(0x100, encodeInsn("l.addi r1, r0, 1"));
    cache.lookupOrBuild(0x100, 0, mem, 0);

    // A store into an untouched page must not invalidate anything.
    cache.invalidateRange(0x8000, 4);
    EXPECT_EQ(cache.stats().invalidations, 0u);
    EXPECT_EQ(cache.liveBlocks(), 1u);
}

TEST(BlockCacheUnit, MutationKeysNeverAlias)
{
    Memory mem(4096, 0);
    BlockCache cache(4096);
    mem.debugWriteWord(0x100, encodeInsn("l.addi r1, r0, 1"));

    Block *k0 = cache.lookupOrBuild(0x100, 0, mem, 0);
    Block *k1 = cache.lookupOrBuild(0x100, 0x42, mem, 0);
    EXPECT_NE(k0, k1);
    EXPECT_EQ(cache.liveBlocks(), 2u);
    EXPECT_EQ(cache.lookupOrBuild(0x100, 0, mem, 0), k0);
    EXPECT_EQ(cache.lookupOrBuild(0x100, 0x42, mem, 0), k1);

    // Invalidation kills both keys' entries (same address range).
    cache.invalidateRange(0x100, 4);
    EXPECT_EQ(cache.stats().invalidations, 2u);
    EXPECT_EQ(cache.liveBlocks(), 0u);
}

TEST(BlockCacheUnit, DelaySlotPairFusesIntoOneOp)
{
    Memory mem(4096, 0);
    BlockCache cache(4096);
    mem.debugWriteWord(0x100, encodeInsn("l.j 0x8"));
    mem.debugWriteWord(0x104, encodeInsn("l.addi r2, r0, 7"));

    Block *b = cache.lookupOrBuild(0x100, 0, mem, 0);
    ASSERT_EQ(b->ops.size(), 1u);
    EXPECT_TRUE(b->ops[0].fused);
    EXPECT_EQ(b->bytes, 8u);
    EXPECT_EQ(b->ops[0].ds.mnemonic, isa::Mnemonic::L_ADDI);
    ASSERT_NE(b->ops[0].info, nullptr);
    ASSERT_NE(b->ops[0].dsInfo, nullptr);
    EXPECT_TRUE(b->ops[0].info->hasDelaySlot);
}

TEST(BlockCacheUnit, DecodeMemoCachesBothOutcomes)
{
    DecodeMemo memo;
    uint32_t word = encodeInsn("l.addi r3, r0, 9");
    const isa::DecodedInsn *a = memo.lookup(word);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->mnemonic, isa::Mnemonic::L_ADDI);
    EXPECT_EQ(memo.lookup(word), a);
    EXPECT_EQ(memo.lookup(0xffffffffu), nullptr);
    EXPECT_EQ(memo.lookup(0xffffffffu), nullptr);
}

} // namespace
} // namespace scif::cpu
