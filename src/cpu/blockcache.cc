#include "blockcache.hh"

#include <algorithm>

namespace scif::cpu {

BlockCache::BlockCache(uint32_t memBytes)
    : pageBlocks_((memBytes + (1u << pageShift) - 1) >> pageShift, 0)
{
}

Block *
BlockCache::lookupOrBuild(uint32_t pc, uint64_t key, const Memory &mem,
                          uint32_t userBase)
{
    auto it = blocks_.find(mapKey(pc, key));
    if (it != blocks_.end())
        return it->second.get();
    return build(pc, key, mem, userBase);
}

Block *
BlockCache::build(uint32_t pc, uint64_t key, const Memory &mem,
                  uint32_t userBase)
{
    auto block = std::make_unique<Block>();
    Block *b = block.get();
    b->pc = pc;
    b->key = key;
    ++stats_.builds;

    uint32_t addr = pc;
    bool mapped = pc % 4 == 0 && pc + 4 <= mem.size();
    while (mapped && b->ops.size() < maxOps && addr + 4 <= mem.size()) {
        uint32_t word = mem.debugReadWord(addr);
        const isa::DecodedInsn *dec = memo_.lookup(word);
        if (!dec)
            break; // undecodable word: that boundary runs interpreted

        CachedOp op;
        op.pc = addr;
        op.word = word;
        op.insn = *dec;
        op.needsSuper = addr < userBase;

        const isa::InsnInfo &ii = dec->info();
        op.info = &ii;
        if (ii.hasDelaySlot) {
            // Fuse the delay-slot pair into one entry. Pairs whose
            // second word faults, fails to decode, or is itself a
            // control-flow instruction stay uncached: the interpreted
            // path owns the exception bookkeeping for those.
            uint32_t dsAddr = addr + 4;
            if (dsAddr + 4 > mem.size())
                break;
            uint32_t dsWord = mem.debugReadWord(dsAddr);
            const isa::DecodedInsn *dsDec = memo_.lookup(dsWord);
            if (!dsDec || dsDec->info().hasDelaySlot)
                break;
            op.fused = true;
            op.dsWord = dsWord;
            op.ds = *dsDec;
            op.dsInfo = &dsDec->info();
            op.needsSuper = op.needsSuper || dsAddr < userBase;
            b->ops.push_back(op);
            addr += 8;
            break; // control flow ends the block
        }

        b->ops.push_back(op);
        addr += 4;
        if (dec->mnemonic == isa::Mnemonic::L_SYS ||
            dec->mnemonic == isa::Mnemonic::L_TRAP ||
            dec->mnemonic == isa::Mnemonic::L_RFE) {
            break; // syscall/trap/rfe diverts control
        }
    }

    // A pc where nothing decoded becomes a negative entry so repeat
    // visits don't re-scan; it still covers its word(s) in the page
    // index so self-modifying code revalidates it.
    b->bytes = b->ops.empty() ? (mapped ? 4 : 0) : addr - pc;
    indexPages(b);
    blocks_.emplace(mapKey(pc, key), std::move(block));
    return b;
}

void
BlockCache::indexPages(Block *b)
{
    if (b->bytes == 0)
        return;
    uint32_t first = b->pc >> pageShift;
    uint32_t last = (b->pc + b->bytes - 1) >> pageShift;
    for (uint32_t p = first; p <= last && p < pageCount(); ++p) {
        pageIndex_.emplace(p, b);
        ++pageBlocks_[p];
    }
}

void
BlockCache::invalidateSlow(uint32_t addr, uint32_t size)
{
    uint32_t first = addr >> pageShift;
    uint32_t last = (addr + size - 1) >> pageShift;

    std::vector<Block *> victims;
    for (uint32_t p = first; p <= last && p < pageCount(); ++p) {
        auto range = pageIndex_.equal_range(p);
        for (auto it = range.first; it != range.second; ++it) {
            Block *b = it->second;
            if (b->alive && addr < b->pc + b->bytes &&
                b->pc < addr + size) {
                b->alive = false;
                victims.push_back(b);
            }
        }
    }

    for (Block *b : victims) {
        uint32_t bfirst = b->pc >> pageShift;
        uint32_t blast = (b->pc + b->bytes - 1) >> pageShift;
        for (uint32_t p = bfirst; p <= blast && p < pageCount(); ++p) {
            auto range = pageIndex_.equal_range(p);
            for (auto it = range.first; it != range.second; ++it) {
                if (it->second == b) {
                    pageIndex_.erase(it);
                    --pageBlocks_[p];
                    break;
                }
            }
        }
        auto it = blocks_.find(mapKey(b->pc, b->key));
        if (it != blocks_.end()) {
            graveyard_.push_back(std::move(it->second));
            blocks_.erase(it);
        }
        ++stats_.invalidations;
    }
}

void
BlockCache::flush()
{
    blocks_.clear();
    pageIndex_.clear();
    std::fill(pageBlocks_.begin(), pageBlocks_.end(), 0);
    graveyard_.clear();
    ++stats_.flushes;
}

void
BlockCache::purgeDead()
{
    graveyard_.clear();
}

} // namespace scif::cpu
