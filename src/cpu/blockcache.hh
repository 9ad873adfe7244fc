/**
 * @file
 * Predecoded basic-block cache: the fast simulation front end.
 *
 * Every interpreted step pays an `isa::decode` (an opcode-bucket
 * lookup plus a linear mask-match scan) per instruction word — twice
 * per control-flow boundary, because the delay-slot word decodes
 * inside the same trace boundary. The block cache removes that cost
 * the way QEMU-style DBT front ends do: straight-line runs of
 * instructions are decoded once into a PC-indexed cache of basic
 * blocks (a run ends at a branch/jump, a system instruction, or an
 * undecodable word; a branch and its delay slot fuse into one cached
 * entry), and execution becomes a tight dispatch loop over the
 * pre-resolved `DecodedInsn`s with all operand fields pre-extracted.
 *
 * Soundness rules:
 *
 *  - Entries are pure functions of the instruction words they were
 *    decoded from. Stores into cached code ranges (self-modifying
 *    code — the fuzzer generates it) invalidate every overlapping
 *    block through a page-granular occupancy index, so the store
 *    fast path is one counter test.
 *  - Blocks are keyed by the active mutation set: `identify`'s
 *    buggy/clean fan-out over the same program never mixes entries
 *    decoded under different processor configurations. (The key is
 *    load-bearing: b11 corrupts *fetched words*, so nothing decoded
 *    under one configuration may ever execute under another.)
 *  - Fetch protection is dynamic (supervisor bit), so entries whose
 *    words lie below the user base carry a needsSuper flag and the
 *    dispatcher falls back to the interpreted path when the flag
 *    disagrees with the current privilege.
 *  - Invalidated blocks park in a graveyard until the owning Cpu has
 *    dropped its dispatch cursor, so a store into the *currently
 *    executing* block finishes its boundary on a live object.
 */

#ifndef SCIFINDER_CPU_BLOCKCACHE_HH
#define SCIFINDER_CPU_BLOCKCACHE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cpu/memory.hh"
#include "isa/insn.hh"

namespace scif::cpu {

/**
 * Memoized pure decode: a direct-mapped word -> DecodedInsn table.
 * `isa::decode` is a pure function of the instruction word, so the
 * memo never needs invalidation. Used by the block builder and by
 * the interpreted path's delay-slot decode (which previously decoded
 * every pair's second word from scratch).
 */
class DecodeMemo
{
  public:
    /** @return the decoded instruction, or nullptr if illegal. */
    const isa::DecodedInsn *
    lookup(uint32_t word)
    {
        Entry &e = entries_[index(word)];
        if (!e.valid || e.word != word) {
            auto decoded = isa::decode(word);
            e.word = word;
            e.valid = true;
            e.ok = decoded.has_value();
            if (decoded)
                e.insn = *decoded;
        }
        return e.ok ? &e.insn : nullptr;
    }

  private:
    struct Entry
    {
        uint32_t word = 0;
        bool valid = false;
        bool ok = false;
        isa::DecodedInsn insn;
    };

    static constexpr size_t slots = 512;

    static size_t
    index(uint32_t word)
    {
        // Opcode bits select the bucket family; low bits split the
        // subcode-heavy 0xe0000000 family across slots.
        return ((word >> 26) ^ (word << 4) ^ (word >> 13)) & (slots - 1);
    }

    std::array<Entry, slots> entries_;
};

/** One predecoded trace boundary: an instruction, or a control-flow
 *  instruction fused with its delay-slot instruction. */
struct CachedOp
{
    uint32_t pc = 0;          ///< address of the (first) word
    uint32_t word = 0;        ///< instruction word (the branch word
                              ///< when fused)
    uint32_t dsWord = 0;      ///< delay-slot word (fused only)
    isa::DecodedInsn insn;    ///< pre-extracted operands
    isa::DecodedInsn ds;      ///< delay-slot instruction (fused only)
    bool fused = false;       ///< delay-slot pair in one entry
    bool needsSuper = false;  ///< fetch faults in user mode
    /** Pre-resolved isa::info() of insn / ds: the dispatcher skips
     *  the per-step table lookups. */
    const isa::InsnInfo *info = nullptr;
    const isa::InsnInfo *dsInfo = nullptr;
};

/** A decoded basic block (or a negative entry: ops empty). */
struct Block
{
    uint32_t pc = 0;     ///< first instruction address
    uint32_t bytes = 0;  ///< code bytes covered: [pc, pc + bytes)
    uint64_t key = 0;    ///< mutation key it was decoded under
    bool alive = true;   ///< false once invalidated (graveyard)

    std::vector<CachedOp> ops;
};

/** The PC-indexed, mutation-keyed cache of decoded blocks. */
class BlockCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;          ///< dispatched cached boundaries
        uint64_t builds = 0;        ///< blocks decoded
        uint64_t invalidations = 0; ///< blocks killed by code stores
        uint64_t flushes = 0;       ///< whole-cache flushes
        uint64_t fallbacks = 0;     ///< boundaries run interpreted
                                    ///< (negative entry / privilege)
    };

    explicit BlockCache(uint32_t memBytes);

    /**
     * The block starting at @p pc under mutation key @p key, decoding
     * it from @p mem on a miss. A pc where nothing can be cached
     * (misaligned, unmapped, or an undecodable first word) yields a
     * negative entry (empty ops) so repeat visits stay O(1).
     */
    Block *lookupOrBuild(uint32_t pc, uint64_t key, const Memory &mem,
                         uint32_t userBase);

    /** Kill every block overlapping [addr, addr + size). */
    void
    invalidateRange(uint32_t addr, uint32_t size)
    {
        uint32_t first = addr >> pageShift;
        uint32_t last = (addr + size - 1) >> pageShift;
        for (uint32_t p = first; p <= last && p < pageCount(); ++p) {
            if (pageBlocks_[p] != 0) {
                invalidateSlow(addr, size);
                return;
            }
        }
    }

    /** Drop everything, including the graveyard. The caller must not
     *  hold any Block pointer across this call. */
    void flush();

    /** Free invalidated blocks. The caller must not hold a pointer
     *  into the graveyard (the Cpu calls this after dropping its
     *  dispatch cursor). */
    void purgeDead();

    const Stats &stats() const { return stats_; }

    /** @return number of live cached blocks (negative entries too). */
    size_t liveBlocks() const { return blocks_.size(); }

    /** @return true when nothing is cached (live or graveyard) — the
     *  program loader skips its diff scan entirely then. */
    bool empty() const { return blocks_.empty() && graveyard_.empty(); }

    /** Count one dispatched cached boundary (kept by the owner so the
     *  hot path stays a single increment). */
    void countHit() { ++stats_.hits; }

    /** Count one boundary the dispatcher handed back to the
     *  interpreted path. */
    void countFallback() { ++stats_.fallbacks; }

    /** Longest straight-line run decoded into one block. */
    static constexpr size_t maxOps = 64;

  private:
    /** Code pages are 256 bytes: the store fast path tests one or two
     *  page counters. */
    static constexpr uint32_t pageShift = 8;

    uint32_t pageCount() const { return uint32_t(pageBlocks_.size()); }

    static uint64_t
    mapKey(uint32_t pc, uint64_t key)
    {
        // The mutation key is a 31-bit set; pc is a 32-bit address.
        return key << 32 | pc;
    }

    Block *build(uint32_t pc, uint64_t key, const Memory &mem,
                 uint32_t userBase);
    void indexPages(Block *b);
    void invalidateSlow(uint32_t addr, uint32_t size);

    std::unordered_map<uint64_t, std::unique_ptr<Block>> blocks_;
    std::vector<uint32_t> pageBlocks_; ///< blocks touching each page
    std::unordered_multimap<uint32_t, Block *> pageIndex_;
    std::vector<std::unique_ptr<Block>> graveyard_;
    DecodeMemo memo_;
    Stats stats_;
};

} // namespace scif::cpu

#endif // SCIFINDER_CPU_BLOCKCACHE_HH
