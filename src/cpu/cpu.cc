#include "cpu.hh"

#include <algorithm>
#include <cstring>

#include "support/bits.hh"
#include "support/logging.hh"
#include "trace/capture.hh"
#include "trace/derived.hh"

namespace scif::cpu {

using isa::DecodedInsn;
using isa::Exception;
using isa::Format;
using isa::InsnKind;
using isa::Mnemonic;
using trace::Record;
using trace::VarId;

Cpu::Cpu(CpuConfig config)
    : config_(std::move(config)),
      mem_(config_.memBytes, config_.userBase)
{
    if (config_.predecode)
        cache_ = std::make_unique<BlockCache>(config_.memBytes);
    reset();
    refreshCacheMode();
}

void
Cpu::loadProgram(const assembler::Program &program)
{
    if (cache_ == nullptr || cache_->empty()) {
        // Nothing decoded yet (fresh Cpu, or the fuzzer's
        // one-program-per-Cpu pattern): plain clear-and-write.
        mem_.clear();
        for (const auto &[addr, word] : program.words)
            mem_.debugWriteWord(addr, word);
        if (cache_)
            invalidateCodeCache();
    } else {
        // Diff-aware image load: a cached block is a pure function
        // of the words it decoded, so only addresses whose contents
        // actually change invalidate. Reloading an identical image
        // (trigger replays, repeated runs of one program) keeps the
        // whole cache warm. Drop the cursor first — invalidation may
        // park the block it points into.
        curBlock_ = nullptr;
        curOp_ = 0;

        std::vector<uint32_t> addrs;
        addrs.reserve(program.words.size());
        for (const auto &[addr, word] : program.words) {
            if (mem_.debugReadWord(addr) != word) {
                cache_->invalidateRange(addr, 4);
                mem_.debugWriteWord(addr, word);
            }
            addrs.push_back(addr);
        }
        std::sort(addrs.begin(), addrs.end());
        addrs.erase(std::unique(addrs.begin(), addrs.end()),
                    addrs.end());

        // Zero every word outside the new image: eight bytes per
        // probe, a merge walk down the sorted image addresses instead
        // of per-word searches. The scan only needs to cover the
        // memory dirty watermark — every byte outside it is still
        // zero. A word is zero iff its bytes are, so the raw
        // big-endian view needs no conversion here.
        const uint8_t *raw = mem_.raw();
        uint32_t size = mem_.size();
        uint32_t lo = mem_.dirtyLo() & ~7u;
        uint32_t hi = std::min<uint64_t>(size, (uint64_t(mem_.dirtyHi()) + 7) & ~7ull);
        size_t next = 0;
        for (uint32_t a = lo; a + 8 <= hi; a += 8) {
            uint64_t chunk;
            std::memcpy(&chunk, raw + a, 8);
            if (chunk == 0)
                continue;
            for (uint32_t wa = a; wa < a + 8; wa += 4) {
                uint32_t wordBytes;
                std::memcpy(&wordBytes, raw + wa, 4);
                if (wordBytes == 0)
                    continue;
                while (next < addrs.size() && addrs[next] < wa)
                    ++next;
                if (next < addrs.size() && addrs[next] == wa)
                    continue;
                cache_->invalidateRange(wa, 4);
                mem_.debugWriteWord(wa, 0);
            }
        }
        for (uint32_t wa = hi & ~7u; wa + 4 <= hi; wa += 4) {
            uint32_t wordBytes;
            std::memcpy(&wordBytes, raw + wa, 4);
            if (wordBytes == 0)
                continue;
            while (next < addrs.size() && addrs[next] < wa)
                ++next;
            if (next < addrs.size() && addrs[next] == wa)
                continue;
            cache_->invalidateRange(wa, 4);
            mem_.debugWriteWord(wa, 0);
        }
        cache_->purgeDead();
    }
    reset();
    pc_ = program.entry;
    memDirty_ = false;
}

void
Cpu::setMutations(const MutationSet &mutations)
{
    config_.mutations = mutations;
    refreshCacheMode();
}

void
Cpu::invalidateCodeCache()
{
    curBlock_ = nullptr;
    curOp_ = 0;
    if (cache_)
        cache_->flush();
}

void
Cpu::refreshCacheMode()
{
    mutKey_ = config_.mutations.key();
    // b11 dynamically corrupts the *fetched word*, so predecoded
    // execution is unsound under it: fall back to the interpreted
    // front end whenever it is active.
    cacheOn_ = cache_ != nullptr &&
               !has(Mutation::B11_FetchAfterLsuStall);
    curBlock_ = nullptr;
    curOp_ = 0;
}

void
Cpu::reset()
{
    gpr_.fill(0);
    pc_ = isa::exceptionVector(Exception::Reset);
    ppc_ = 0;
    sr_ = isa::sr::resetValue;
    epcr_ = 0;
    eear_ = 0;
    esr_ = 0;
    mac_ = 0;
    picmr_ = 0;
    picsr_ = 0;
    ttmr_ = 0;
    ttcr_ = 0;

    roriTaint_ = false;
    lsuBusy_ = false;
    fetchCorrupted_ = false;
    lastWasMac_ = false;
    lastFetched_ = 0;
    lastLoadAddr_ = 0;
    sameAddrLoads_ = 0;
    lastStoreData_ = 0;
    lastStoreAddr_ = 0;
    storeBufferLive_ = false;
    wedged_ = false;
    retired_ = 0;
    irqCursor_ = 0;
    irqQuiet_ = false;

    // Cached blocks decode from memory, which reset() leaves alone —
    // only the dispatch cursor drops.
    curBlock_ = nullptr;
    curOp_ = 0;
}

void
Cpu::setGpr(unsigned n, uint32_t v)
{
    SCIF_ASSERT(n < isa::numGprs);
    if (n != 0)
        gpr_[n] = v;
}

uint32_t
Cpu::readSpr(uint16_t addr) const
{
    switch (addr) {
      case isa::spr::VR: return 0x12000001;  // OR1200-style version
      case isa::spr::UPR: return 0x00000001; // UP present
      case isa::spr::NPC: return pc_;
      case isa::spr::SR: return sr_;
      case isa::spr::PPC: return ppc_;
      case isa::spr::EPCR0: return epcr_;
      case isa::spr::EEAR0: return eear_;
      case isa::spr::ESR0: return esr_;
      case isa::spr::MACLO: return uint32_t(mac_);
      case isa::spr::MACHI: return uint32_t(mac_ >> 32);
      case isa::spr::PICMR: return picmr_;
      case isa::spr::PICSR: return picsr_;
      case isa::spr::TTMR: return ttmr_;
      case isa::spr::TTCR: return ttcr_;
      default: return 0;
    }
}

void
Cpu::writeSpr(uint16_t addr, uint32_t value)
{
    // An SPR write can arm the timer, raise or unmask a PIC line, or
    // set SR.IEE/TEE — any of which ends the interrupt-quiescent
    // regime the run loop relies on to skip per-insn checks.
    irqQuiet_ = false;
    switch (addr) {
      case isa::spr::SR:
        // FO always reads one.
        sr_ = value | (1u << isa::sr::FO);
        break;
      case isa::spr::EPCR0:
        epcr_ = value;
        break;
      case isa::spr::EEAR0:
        eear_ = value;
        break;
      case isa::spr::ESR0:
        esr_ = value;
        break;
      case isa::spr::MACLO:
        mac_ = (mac_ & 0xffffffff00000000ull) | value;
        break;
      case isa::spr::MACHI:
        mac_ = (mac_ & 0xffffffffull) | (uint64_t(value) << 32);
        break;
      case isa::spr::PICMR:
        picmr_ = value;
        break;
      case isa::spr::PICSR:
        picsr_ = value;
        break;
      case isa::spr::TTMR:
        ttmr_ = value;
        break;
      case isa::spr::TTCR:
        ttcr_ = value;
        break;
      default:
        // VR/UPR/NPC/PPC and unknown SPRs ignore writes.
        break;
    }
}

void
Cpu::writeGpr(unsigned n, uint32_t value, Record &rec)
{
    SCIF_ASSERT(n < isa::numGprs);
    rec.post[VarId::OPDEST] = value;
    rec.post[VarId::REGD] = n;
    rec.pre[VarId::REGD] = n;
    if (n == 0 && !has(Mutation::B10_Gpr0Writable))
        return; // GPR0 is hardwired to zero
    gpr_[n] = value;
}

void
Cpu::snapshotState(std::array<uint32_t, trace::numVars> &side)
{
    for (unsigned i = 0; i < isa::numGprs; ++i)
        side[trace::gprVar(i)] = gpr_[i];
    side[VarId::PC] = pc_;
    side[VarId::NPC] = pc_;
    side[VarId::NNPC] = pc_ + 4;
    side[VarId::PPC] = ppc_;
    side[VarId::WBPC] = ppc_;
    side[VarId::IDPC] = pc_ + 4;
    side[VarId::SR] = sr_;
    side[VarId::ESR0] = esr_;
    side[VarId::EPCR0] = epcr_;
    side[VarId::EEAR0] = eear_;
    side[VarId::MACLO] = uint32_t(mac_);
    side[VarId::MACHI] = uint32_t(mac_ >> 32);
}

uint32_t
Cpu::epcrFor(Exception e, uint32_t fault_pc, uint32_t next_pc,
             bool in_delay_slot, uint32_t branch_pc,
             uint32_t branch_target)
{
    switch (e) {
      case Exception::Syscall:
        // Resume after the syscall: past the delay slot this is the
        // branch target; otherwise the next instruction.
        return in_delay_slot ? branch_target : next_pc;
      case Exception::Tick:
      case Exception::External:
        // The interrupted instruction has not executed yet.
        return fault_pc;
      default:
        // Faults re-execute: the faulting instruction, or the branch
        // owning the delay slot.
        return in_delay_slot ? branch_pc : fault_pc;
    }
}

void
Cpu::enterException(Exception e, uint32_t fault_pc, uint32_t next_pc,
                    uint32_t eear, bool in_delay_slot,
                    uint32_t branch_pc, uint32_t branch_target)
{
    esr_ = sr_;

    uint32_t epcr = epcrFor(e, fault_pc, next_pc, in_delay_slot,
                            branch_pc, branch_target);
    // --- erratum hook points ---
    if (has(Mutation::B1_SysDelaySlotEpcr) && e == Exception::Syscall &&
        in_delay_slot) {
        epcr = branch_pc; // l.rfe will re-run the branch forever
    }
    if (has(Mutation::B5_RangeEpcrWrong) && e == Exception::Range)
        epcr = fault_pc + 4;
    if (has(Mutation::B9_IllegalEpcrWrong) && e == Exception::Illegal)
        epcr = fault_pc + 4;
    if (has(Mutation::B15_TrapEpcrWrong) && e == Exception::Trap)
        epcr = fault_pc + 4;
    if (has(Mutation::H10_SysEpcrSelf) && e == Exception::Syscall &&
        !in_delay_slot) {
        epcr = fault_pc;
    }
    if (has(Mutation::H1_IntrEpcrOff) && e == Exception::External)
        epcr += 4;
    epcr_ = epcr;

    switch (e) {
      case Exception::BusError:
      case Exception::DataPageFault:
      case Exception::InsnPageFault:
      case Exception::Alignment:
        eear_ = eear;
        break;
      default:
        break;
    }

    uint32_t sr = sr_;
    sr = setBit(sr, isa::sr::SM, true);
    sr = setBit(sr, isa::sr::TEE, false);
    sr = setBit(sr, isa::sr::IEE, false);
    bool dsx = in_delay_slot && !has(Mutation::B4_DsxNotImplemented);
    sr = setBit(sr, isa::sr::DSX, dsx);
    sr_ = sr;

    uint32_t vector = isa::exceptionVector(e);
    if (roriTaint_ && has(Mutation::B8_RoriVector))
        vector ^= 0x400; // rotate residue corrupts the vector mux
    pc_ = vector;
}

MemResult
Cpu::fetch(uint32_t addr, Record &rec)
{
    MemResult res = mem_.load(addr, 4, supervisor(), true);
    if (!res.ok())
        return res;

    rec.pre[VarId::IMEM] = res.value;
    rec.post[VarId::IMEM] = res.value;

    if (lsuBusy_ && has(Mutation::B11_FetchAfterLsuStall)) {
        // The prefetch buffer replays the stale word instead of the
        // freshly fetched one.
        res.value = lastFetched_;
        lsuBusy_ = false;
        fetchCorrupted_ = true;
    }
    lastFetched_ = res.value;
    return res;
}

void
Cpu::tickTimer(uint64_t retired)
{
    uint32_t mode = bits(ttmr_, 31, 30);
    if (mode == 0)
        return;
    ttcr_ += uint32_t(retired);
    uint32_t period = bits(ttmr_, 27, 0);
    if ((ttcr_ & 0x0fffffffu) >= period && period != 0) {
        ttmr_ = setBit(ttmr_, 28, true); // IP
        if (mode == 1)
            ttcr_ = 0; // restart
        else if (mode == 2)
            ttmr_ = insertBits(ttmr_, 31, 30, 0); // stop
    }
}

bool
Cpu::maybeInterrupt(trace::TraceSink *sink, uint64_t &emitted)
{
    // Deliver scheduled external interrupt lines.
    while (irqCursor_ < config_.irqSchedule.size() &&
           config_.irqSchedule[irqCursor_].first <= retired_) {
        picsr_ |= 1u << config_.irqSchedule[irqCursor_].second;
        ++irqCursor_;
    }

    Exception e = Exception::None;
    if (bit(ttmr_, 28) && bit(ttmr_, 29) && bit(sr_, isa::sr::TEE))
        e = Exception::Tick;
    else if ((picsr_ & picmr_) != 0 && bit(sr_, isa::sr::IEE))
        e = Exception::External;
    if (e == Exception::None)
        return false;

    Record rec;
    rec.index = retired_;
    rec.point = trace::Point::interrupt(e);
    snapshotState(rec.pre);

    uint32_t interrupted_pc = pc_;
    enterException(e, interrupted_pc, interrupted_pc, 0, false, 0, 0);

    snapshotState(rec.post);
    rec.pre[VarId::PC] = interrupted_pc;
    rec.post[VarId::PC] = interrupted_pc;
    rec.post[VarId::NPC] = pc_;
    rec.post[VarId::NNPC] = pc_ + 4;
    trace::computeDerived(rec);
    if (sink) {
        sink->record(rec);
        ++emitted;
    }
    return true;
}

Cpu::ExecResult
Cpu::execute(const DecodedInsn &insn, const isa::InsnInfo &ii,
             Record &rec)
{
    ExecResult res;
    Mnemonic m = insn.mnemonic;

    uint32_t a = gpr_[insn.ra];
    uint32_t b = gpr_[insn.rb];
    uint32_t imm = uint32_t(insn.imm);

    // Privileged instructions fault in user mode.
    bool privileged = m == Mnemonic::L_MTSPR || m == Mnemonic::L_MFSPR ||
                      m == Mnemonic::L_RFE;
    if (privileged && !supervisor()) {
        res.exception = Exception::Illegal;
        return res;
    }

    auto setFlag = [&](bool f) {
        sr_ = setBit(sr_, isa::sr::F, f);
    };
    auto setCarry = [&](bool c) {
        sr_ = setBit(sr_, isa::sr::CY, c);
    };
    // Arithmetic overflow; raises a range exception when enabled.
    auto setOverflow = [&](bool v) {
        sr_ = setBit(sr_, isa::sr::OV, v);
        if (v && bit(sr_, isa::sr::OVE))
            res.exception = Exception::Range;
    };

    auto doLoad = [&](unsigned size, bool sign_extend) {
        uint32_t addr = a + imm;
        rec.post[VarId::MEMADDR] = addr;
        rec.pre[VarId::MEMADDR] = addr;

        if (has(Mutation::H12_AlignSuppressed) && size == 2 &&
            addr % 2 != 0) {
            addr &= ~1u; // silently truncate instead of faulting
            rec.post[VarId::MEMADDR] = addr;
            rec.pre[VarId::MEMADDR] = addr;
        }

        MemResult mr = mem_.load(addr, size, supervisor());
        if (!mr.ok()) {
            res.exception = mr.fault;
            res.eear = addr;
            return;
        }
        uint32_t bus = mr.value;

        if (has(Mutation::H8_LoadRotated) && size == 4 && (addr & 0x40))
            bus = rotateRight32(bus, 8);
        if (has(Mutation::B17_StoreForwardClobber) && storeBufferLive_ &&
            addr != lastStoreAddr_ &&
            (addr & 0xfffu) == (lastStoreAddr_ & 0xfffu)) {
            // Bogus store-buffer forwarding hit on an index alias.
            bus = zeroExtend(lastStoreData_, 8 * size);
            storeBufferLive_ = false;
        }

        uint32_t value = bus;
        bool extend = sign_extend;
        if (has(Mutation::B16_LoadExtendWrong) && size < 4)
            extend = false; // sign extension dropped in the LSU
        if (extend && size < 4)
            value = signExtend(bus, 8 * size);

        rec.post[VarId::MEMBUS] = bus;
        rec.post[VarId::DMEM] = mem_.load(addr, size, true).value;
        writeGpr(insn.rd, value, rec);

        // Microarchitectural bookkeeping for b11 / h13.
        if (addr == lastLoadAddr_)
            ++sameAddrLoads_;
        else
            sameAddrLoads_ = 1;
        lastLoadAddr_ = addr;
        if (has(Mutation::H13_PrefetchStall) && sameAddrLoads_ >= 3)
            wedged_ = true;
        // A replayed (corrupted) memory op does not re-arm the stall
        // window, so b11 corrupts a single fetch per real stall.
        if (!fetchCorrupted_)
            lsuBusy_ = (addr & 0x80) != 0;
    };

    auto doStore = [&](unsigned size) {
        uint32_t addr = a + imm;
        if (has(Mutation::H3_StoreAddrBit) && size == 4 && insn.imm < 0)
            addr &= ~4u; // address bit 2 dropped
        rec.post[VarId::MEMADDR] = addr;
        rec.pre[VarId::MEMADDR] = addr;

        uint32_t data = zeroExtend(b, 8 * size);
        if (has(Mutation::B14_ByteStoreCorrupt)) {
            if (size == 1)
                data ^= 0x80;
            else if (size == 2)
                data ^= 0x8000;
        }

        MemResult mr = mem_.store(addr, size, data, supervisor());
        if (!mr.ok()) {
            res.exception = mr.fault;
            res.eear = addr;
            return;
        }
        memDirty_ = true;
        if (cache_)
            cache_->invalidateRange(addr, size); // self-modifying code
        rec.post[VarId::MEMBUS] = data;
        rec.post[VarId::DMEM] = mem_.load(addr, size, true).value;

        lastStoreData_ = data;
        lastStoreAddr_ = addr;
        storeBufferLive_ = true;
        if (!fetchCorrupted_)
            lsuBusy_ = (addr & 0x80) != 0;
    };

    auto doCompare = [&]() {
        uint32_t rhs = ii.readsRb ? b : imm;
        uint32_t flag = trace::compareOracle(m, a, rhs);

        bool msb_differ = ((a ^ rhs) >> 31) != 0;
        bool is_unsigned =
            m == Mnemonic::L_SFGTU || m == Mnemonic::L_SFGTUI ||
            m == Mnemonic::L_SFGEU || m == Mnemonic::L_SFGEUI ||
            m == Mnemonic::L_SFLTU || m == Mnemonic::L_SFLTUI ||
            m == Mnemonic::L_SFLEU || m == Mnemonic::L_SFLEUI;
        if (has(Mutation::B6_UnsignedCmpMsb) && is_unsigned &&
            msb_differ) {
            // Comparator falls back to the signed path.
            int32_t sa = int32_t(a), sb = int32_t(rhs);
            switch (m) {
              case Mnemonic::L_SFGTU: case Mnemonic::L_SFGTUI:
                flag = sa > sb; break;
              case Mnemonic::L_SFGEU: case Mnemonic::L_SFGEUI:
                flag = sa >= sb; break;
              case Mnemonic::L_SFLTU: case Mnemonic::L_SFLTUI:
                flag = sa < sb; break;
              case Mnemonic::L_SFLEU: case Mnemonic::L_SFLEUI:
                flag = sa <= sb; break;
              default: break;
            }
        }
        if (has(Mutation::B7_SfltuWrong) &&
            (m == Mnemonic::L_SFLTU || m == Mnemonic::L_SFLTUI)) {
            flag = int32_t(a) < int32_t(rhs);
        }
        if (has(Mutation::H9_SfgesEqWrong) &&
            (m == Mnemonic::L_SFGES || m == Mnemonic::L_SFGESI) &&
            a == rhs) {
            flag = 0;
        }
        setFlag(flag != 0);

        if (has(Mutation::H11_CompareClobbersReg)) {
            // Stuck write enable: the condition-code field selects a
            // GPR that receives the flag, bypassing the r0 guard.
            unsigned cond = bits(insn.raw, 25, 21) & 0xf;
            gpr_[cond] = flag;
            rec.post[VarId::OPDEST] = flag;
        }
    };

    switch (m) {
      case Mnemonic::L_NOP:
        if (imm == haltNopCode)
            res.halted = true;
        break;

      case Mnemonic::L_MOVHI:
        writeGpr(insn.rd, imm << 16, rec);
        if (has(Mutation::H2_MovhiClearsFlag))
            setFlag(false);
        break;

      case Mnemonic::L_MACRC:
        writeGpr(insn.rd, uint32_t(mac_), rec);
        mac_ = 0;
        break;

      case Mnemonic::L_SYS:
        res.exception = Exception::Syscall;
        break;

      case Mnemonic::L_TRAP:
        res.exception = Exception::Trap;
        break;

      case Mnemonic::L_RFE: {
        uint32_t restored = esr_;
        restored |= 1u << isa::sr::FO;
        if (has(Mutation::H6_RfeDropsFo))
            restored &= ~(1u << isa::sr::FO);
        if (has(Mutation::H7_RfeKeepsSm))
            restored |= 1u << isa::sr::SM;
        sr_ = restored;
        irqQuiet_ = false; // ESR may restore IEE/TEE
        res.isRfe = true;
        res.rfeTarget = epcr_;
        break;
      }

      case Mnemonic::L_J:
      case Mnemonic::L_JAL: {
        res.branchTaken = true;
        res.branchTarget =
            rec.post[VarId::PC] + (uint32_t(insn.imm) << 2);
        if (m == Mnemonic::L_JAL) {
            uint32_t lr = rec.post[VarId::PC] + 8;
            if (has(Mutation::B13_JalLargeDispLr) &&
                (insn.imm >= 0x8000 || insn.imm < -0x8000)) {
                lr -= 0x10000; // truncated link adder
            }
            writeGpr(isa::linkReg, lr, rec);
        }
        break;
      }

      case Mnemonic::L_JR:
      case Mnemonic::L_JALR: {
        res.branchTaken = true;
        res.branchTarget = b;
        if (m == Mnemonic::L_JALR) {
            uint32_t lr = rec.post[VarId::PC] + 8;
            if (has(Mutation::H4_JalrLrWrong))
                lr = rec.post[VarId::PC];
            writeGpr(isa::linkReg, lr, rec);
        }
        break;
      }

      case Mnemonic::L_BF:
      case Mnemonic::L_BNF: {
        bool flag = bit(sr_, isa::sr::F);
        bool taken = (m == Mnemonic::L_BF) ? flag : !flag;
        res.branchTaken = taken;
        if (taken) {
            res.branchTarget =
                rec.post[VarId::PC] + (uint32_t(insn.imm) << 2);
        }
        break;
      }

      case Mnemonic::L_MACI: {
        mac_ += uint64_t(int64_t(int32_t(a)) * int64_t(insn.imm));
        break;
      }

      case Mnemonic::L_MAC:
        mac_ += uint64_t(int64_t(int32_t(a)) * int64_t(int32_t(b)));
        break;

      case Mnemonic::L_MSB:
        mac_ -= uint64_t(int64_t(int32_t(a)) * int64_t(int32_t(b)));
        break;

      case Mnemonic::L_LWZ: doLoad(4, false); break;
      case Mnemonic::L_LWS: doLoad(4, true); break;
      case Mnemonic::L_LBZ: doLoad(1, false); break;
      case Mnemonic::L_LBS: doLoad(1, true); break;
      case Mnemonic::L_LHZ: doLoad(2, false); break;
      case Mnemonic::L_LHS: doLoad(2, true); break;
      case Mnemonic::L_SW: doStore(4); break;
      case Mnemonic::L_SB: doStore(1); break;
      case Mnemonic::L_SH: doStore(2); break;

      case Mnemonic::L_ADDI:
      case Mnemonic::L_ADD: {
        uint32_t rhs = (m == Mnemonic::L_ADD) ? b : imm;
        uint32_t sum = a + rhs;
        setCarry(addCarries(a, rhs));
        setOverflow(addOverflows(a, rhs));
        writeGpr(insn.rd, sum, rec);
        break;
      }

      case Mnemonic::L_ADDIC:
      case Mnemonic::L_ADDC: {
        uint32_t rhs = (m == Mnemonic::L_ADDC) ? b : imm;
        bool cin = bit(sr_, isa::sr::CY);
        uint32_t sum = a + rhs + (cin ? 1 : 0);
        setCarry(addCarries(a, rhs, cin));
        setOverflow(addOverflows(a, rhs, cin));
        writeGpr(insn.rd, sum, rec);
        break;
      }

      case Mnemonic::L_SUB: {
        uint32_t diff = a - b;
        setCarry(a < b);
        setOverflow(subOverflows(a, b));
        writeGpr(insn.rd, diff, rec);
        break;
      }

      case Mnemonic::L_AND:
        writeGpr(insn.rd, a & b, rec);
        break;
      case Mnemonic::L_ANDI:
        writeGpr(insn.rd, a & imm, rec);
        break;
      case Mnemonic::L_OR:
        writeGpr(insn.rd, a | b, rec);
        break;
      case Mnemonic::L_ORI:
        writeGpr(insn.rd, a | imm, rec);
        break;
      case Mnemonic::L_XOR:
        writeGpr(insn.rd, a ^ b, rec);
        break;
      case Mnemonic::L_XORI:
        writeGpr(insn.rd, a ^ imm, rec);
        break;

      case Mnemonic::L_MUL:
      case Mnemonic::L_MULI: {
        uint32_t rhs = (m == Mnemonic::L_MUL) ? b : imm;
        int64_t prod = int64_t(int32_t(a)) * int64_t(int32_t(rhs));
        setOverflow(prod != int64_t(int32_t(uint32_t(prod))));
        writeGpr(insn.rd, uint32_t(prod), rec);
        break;
      }

      case Mnemonic::L_MULU: {
        uint64_t prod = uint64_t(a) * uint64_t(b);
        setCarry(prod > 0xffffffffull);
        writeGpr(insn.rd, uint32_t(prod), rec);
        break;
      }

      case Mnemonic::L_DIV:
      case Mnemonic::L_DIVU: {
        if (b == 0) {
            setOverflow(true);
            break;
        }
        uint32_t q;
        if (m == Mnemonic::L_DIV) {
            // INT_MIN / -1 overflows; OR1200 returns the dividend.
            if (a == 0x80000000u && b == 0xffffffffu) {
                setOverflow(true);
                q = a;
            } else {
                q = uint32_t(int32_t(a) / int32_t(b));
            }
        } else {
            q = a / b;
        }
        rec.post[VarId::DIV] = q;
        writeGpr(insn.rd, q, rec);
        break;
      }

      case Mnemonic::L_SLL:
      case Mnemonic::L_SLLI: {
        uint32_t amt = (m == Mnemonic::L_SLL ? b : imm) & 31;
        writeGpr(insn.rd, a << amt, rec);
        break;
      }
      case Mnemonic::L_SRL:
      case Mnemonic::L_SRLI: {
        uint32_t amt = (m == Mnemonic::L_SRL ? b : imm) & 31;
        writeGpr(insn.rd, a >> amt, rec);
        break;
      }
      case Mnemonic::L_SRA:
      case Mnemonic::L_SRAI: {
        uint32_t amt = (m == Mnemonic::L_SRA ? b : imm) & 31;
        writeGpr(insn.rd, uint32_t(int32_t(a) >> amt), rec);
        break;
      }
      case Mnemonic::L_ROR:
      case Mnemonic::L_RORI: {
        uint32_t amt = (m == Mnemonic::L_ROR ? b : imm) & 31;
        uint32_t result = rotateRight32(a, amt);
        if (has(Mutation::B8_RoriVector) && m == Mnemonic::L_RORI) {
            // The logic error rotates the wrong direction...
            result = rotateRight32(a, (32 - amt) & 31);
        }
        rec.post[VarId::ROR] = result;
        writeGpr(insn.rd, result, rec);
        break;
      }

      case Mnemonic::L_EXTHS:
        writeGpr(insn.rd, signExtend(a, 16), rec);
        break;
      case Mnemonic::L_EXTBS:
        writeGpr(insn.rd, signExtend(a, 8), rec);
        break;
      case Mnemonic::L_EXTHZ:
        writeGpr(insn.rd, zeroExtend(a, 16), rec);
        break;
      case Mnemonic::L_EXTBZ:
        writeGpr(insn.rd, zeroExtend(a, 8), rec);
        break;
      case Mnemonic::L_EXTWS:
      case Mnemonic::L_EXTWZ: {
        uint32_t value = a; // word extension is the identity on or32
        if (has(Mutation::B3_ExtwWrong))
            value = a & 0xffffu; // upper half dropped
        writeGpr(insn.rd, value, rec);
        break;
      }

      case Mnemonic::L_CMOV:
        writeGpr(insn.rd, bit(sr_, isa::sr::F) ? a : b, rec);
        break;

      case Mnemonic::L_FF1: {
        uint32_t pos = 0;
        for (unsigned i = 0; i < 32; ++i) {
            if (bit(a, i)) {
                pos = i + 1;
                break;
            }
        }
        writeGpr(insn.rd, pos, rec);
        break;
      }

      case Mnemonic::L_MFSPR: {
        uint16_t addr = uint16_t(a | imm);
        uint32_t value = readSpr(addr);
        if (has(Mutation::H5_MfsprEsrAlias) && addr == isa::spr::ESR0)
            value = sr_;
        rec.post[VarId::SPRA] = addr;
        rec.pre[VarId::SPRA] = addr;
        rec.post[VarId::SPRV] = readSpr(addr);
        writeGpr(insn.rd, value, rec);
        break;
      }

      case Mnemonic::L_MTSPR: {
        uint16_t addr = uint16_t(a | imm);
        bool dropped =
            has(Mutation::B12_MtsprDropped) &&
            (addr == isa::spr::EPCR0 || addr == isa::spr::EEAR0);
        if (!dropped)
            writeSpr(addr, b);
        rec.post[VarId::SPRA] = addr;
        rec.pre[VarId::SPRA] = addr;
        rec.post[VarId::SPRV] = readSpr(addr);
        break;
      }

      default:
        // Compare family.
        if (ii.kind == InsnKind::Compare) {
            doCompare();
        } else {
            panic("unhandled mnemonic %s", ii.name);
        }
        break;
    }

    return res;
}

const CachedOp *
Cpu::nextCachedOp()
{
    // Fast path: the cursor is mid-block and control flow stayed
    // sequential (no exception, interrupt, or invalidation).
    if (curBlock_ == nullptr || !curBlock_->alive ||
        curOp_ >= curBlock_->ops.size() ||
        curBlock_->ops[curOp_].pc != pc_) {
        // The cursor was the only outstanding reference, so parked
        // invalidated blocks can be freed now.
        curBlock_ = nullptr;
        cache_->purgeDead();
        curBlock_ = cache_->lookupOrBuild(pc_, mutKey_, mem_,
                                          config_.userBase);
        curOp_ = 0;
        if (curBlock_->ops.empty() || curBlock_->ops[0].pc != pc_) {
            cache_->countFallback();
            return nullptr; // negative entry: run interpreted
        }
    }
    const CachedOp &op = curBlock_->ops[curOp_++];
    if (op.needsSuper && !supervisor()) {
        // The fetch faults at this privilege; the interpreted path
        // owns fault entry. The cursor self-heals on the pc change.
        cache_->countFallback();
        return nullptr;
    }
    cache_->countHit();
    return &op;
}

template <typename Sink>
bool
Cpu::dispatchBoundary(Sink *sink, uint64_t &retired, uint64_t &emitted)
{
    const CachedOp *op = cacheOn_ ? nextCachedOp() : nullptr;
    if (sink) {
        Record rec;
        return stepBody<true, Sink>(rec, sink, retired, emitted, op);
    }
    return stepBody<false, Sink>(scratch_, nullptr, retired, emitted,
                                 op);
}

template <bool Traced, typename Sink>
bool
Cpu::stepBody(Record &rec, Sink *sink, uint64_t &retired,
              uint64_t &emitted, const CachedOp *op)
{
    uint32_t insn_pc = pc_;
    fetchCorrupted_ = false;
    if constexpr (Traced) {
        rec.index = retired_;
        snapshotState(rec.pre);
        // PC names the executed instruction on both record sides; the
        // post side of NPC/NNPC is overwritten after execution.
        rec.pre[VarId::PC] = insn_pc;
        rec.pre[VarId::NPC] = insn_pc;
        rec.pre[VarId::NNPC] = insn_pc + 4;
    }

    auto finishRecord = [&](bool exception_entered, uint32_t next_pc) {
        if (!exception_entered)
            pc_ = next_pc;
        ppc_ = insn_pc;
        if constexpr (Traced) {
            snapshotState(rec.post);
            rec.post[VarId::PC] = insn_pc;
            rec.post[VarId::NPC] = pc_;
            rec.post[VarId::NNPC] = pc_ + 4;
            rec.post[VarId::PPC] = insn_pc;
            rec.post[VarId::WBPC] = insn_pc;
            rec.post[VarId::IDPC] = pc_ + 8;
            trace::computeDerived(rec);
            if (sink) {
                sink->record(rec);
                ++emitted;
            }
        }
    };

    // Fetch — skipped for a predecoded boundary: the dispatcher
    // guarantees the cached words match memory (invalidation), the
    // fetch cannot fault (needsSuper), and no fetch-corrupting
    // mutation is active (cacheOn_).
    uint32_t word;
    if (op != nullptr) {
        word = op->word;
        if constexpr (Traced) {
            rec.pre[VarId::IMEM] = word;
            rec.post[VarId::IMEM] = word;
        }
        lastFetched_ = word;
    } else {
        MemResult f = fetch(insn_pc, rec);
        if (!f.ok()) {
            rec.point = trace::Point::interrupt(f.fault);
            enterException(f.fault, insn_pc, insn_pc + 4, insn_pc,
                           false, 0, 0);
            finishRecord(true, 0);
            ++retired;
            ++retired_;
            return true;
        }
        word = f.value;
    }
    if constexpr (Traced) {
        rec.pre[VarId::INSN] = word;
        rec.post[VarId::INSN] = word;
    }

    DecodedInsn decodedWord;
    if (op == nullptr) {
        auto decoded = isa::decode(word);
        if (!decoded) {
            rec.point = trace::Point::interrupt(Exception::Illegal);
            enterException(Exception::Illegal, insn_pc, insn_pc + 4, 0,
                           false, 0, 0);
            finishRecord(true, 0);
            ++retired;
            ++retired_;
            return true;
        }
        decodedWord = *decoded;
    }
    const DecodedInsn &insn = op != nullptr ? op->insn : decodedWord;
    const isa::InsnInfo &ii =
        op != nullptr ? *op->info : insn.info();
    Mnemonic m = insn.mnemonic;

    // b2 / h13 wedge checks happen at issue time.
    if (m == Mnemonic::L_MACRC && lastWasMac_ &&
        has(Mutation::B2_MacrcAfterMacStall)) {
        wedged_ = true;
        if (config_.uarchTrace && sink) {
            // The microarchitectural view sees the stalled (never
            // retiring) instruction with its stall counter raised.
            rec.point = trace::Point::insn(m);
            snapshotState(rec.post);
            rec.post[VarId::PC] = insn_pc;
            rec.post[VarId::USTALL] = rec.pre[VarId::USTALL] + 1;
            trace::computeDerived(rec);
            rec.post[VarId::USTALL] = rec.pre[VarId::USTALL] + 1;
            sink->record(rec);
            ++emitted;
        }
        return false;
    }

    if constexpr (Traced) {
        rec.point = trace::Point::insn(m);
        rec.pre[VarId::IMM] = uint32_t(insn.imm);
        rec.post[VarId::IMM] = uint32_t(insn.imm);
        rec.pre[VarId::REGA] = insn.ra;
        rec.post[VarId::REGA] = insn.ra;
        rec.pre[VarId::REGB] = insn.rb;
        rec.post[VarId::REGB] = insn.rb;
        rec.pre[VarId::REGD] = ii.writesRd ? insn.rd : 0;
        rec.post[VarId::REGD] = rec.pre[VarId::REGD];
        rec.pre[VarId::OPA] = gpr_[insn.ra];
        rec.post[VarId::OPA] = gpr_[insn.ra];
        rec.pre[VarId::OPB] = gpr_[insn.rb];
        rec.post[VarId::OPB] = gpr_[insn.rb];
    }
    // execute() reads the post-side PC (branch targets, link
    // register), so this write stays on the untraced path too.
    rec.post[VarId::PC] = insn_pc;

    bool halted = false;

    if (ii.hasDelaySlot) {
        if constexpr (Traced)
            rec.fused = true;
        ExecResult br = execute(insn, ii, rec);
        SCIF_ASSERT(br.exception == Exception::None);

        // Delay slot instruction. A cached boundary carries its
        // pre-decoded delay slot; pairs whose second word faults or
        // fails to decode are never cached, so only the interpreted
        // path needs the fault handling.
        uint32_t ds_pc = insn_pc + 4;
        DecodedInsn dsLocal;
        const DecodedInsn *dsp;
        const isa::InsnInfo *dsii;
        if (op != nullptr) {
            dsp = &op->ds;
            dsii = op->dsInfo;
            lastFetched_ = op->dsWord;
            // The branch word stays in INSN/IMEM: the record
            // describes the fused pair under the branch's point.
            if constexpr (Traced) {
                rec.pre[VarId::IMEM] = rec.post[VarId::IMEM] = word;
                rec.pre[VarId::INSN] = rec.post[VarId::INSN] = word;
            }
        } else {
            MemResult df = fetch(ds_pc, rec);
            // Keep the *branch* word in INSN/IMEM: the record
            // describes the fused pair under the branch's point.
            rec.pre[VarId::IMEM] = rec.post[VarId::IMEM] =
                mem_.debugReadWord(insn_pc);
            rec.pre[VarId::INSN] = rec.post[VarId::INSN] = word;

            if (!df.ok()) {
                rec.point = trace::Point::insn(m, df.fault);
                enterException(df.fault, ds_pc, ds_pc + 4, ds_pc, true,
                               insn_pc, br.branchTarget);
                finishRecord(true, 0);
                retired += 1;
                ++retired_;
                lastWasMac_ = false;
                roriTaint_ = false;
                return true;
            }

            // Decode is pure, so the delay-slot word goes through the
            // memo instead of a second full isa::decode per pair.
            const DecodedInsn *ds_decoded = dsMemo_.lookup(df.value);
            if (ds_decoded == nullptr ||
                ds_decoded->info().hasDelaySlot) {
                // Undecodable word or control flow in the delay slot.
                rec.point = trace::Point::insn(m, Exception::Illegal);
                enterException(Exception::Illegal, ds_pc, ds_pc + 4, 0,
                               true, insn_pc, br.branchTarget);
                finishRecord(true, 0);
                retired += 1;
                ++retired_;
                lastWasMac_ = false;
                roriTaint_ = false;
                return true;
            }
            dsLocal = *ds_decoded;
            dsp = &dsLocal;
            dsii = &dsLocal.info();
        }
        const DecodedInsn &dsInsn = *dsp;

        ExecResult ds = execute(dsInsn, *dsii, rec);
        if (wedged_)
            return false;

        // The rotate residue / mac history become visible only after
        // this pair completes (enterException below must still see
        // the previous instruction's residue).
        bool new_taint = dsInsn.mnemonic == Mnemonic::L_RORI;
        bool new_mac = dsInsn.mnemonic == Mnemonic::L_MAC;

        if (ds.exception != Exception::None) {
            rec.point = trace::Point::insn(m, ds.exception);
            enterException(ds.exception, ds_pc, ds_pc + 4, ds.eear,
                           true, insn_pc, br.branchTarget);
            finishRecord(true, 0);
        } else {
            halted = ds.halted;
            uint32_t next =
                br.branchTaken ? br.branchTarget : insn_pc + 8;
            finishRecord(false, next);
        }
        roriTaint_ = new_taint;
        lastWasMac_ = new_mac;
        retired += 2;
        retired_ += 2;
    } else {
        ExecResult r = execute(insn, ii, rec);
        if (wedged_)
            return false;

        if (r.exception != Exception::None) {
            rec.point = trace::Point::insn(m, r.exception);
            enterException(r.exception, insn_pc, insn_pc + 4, r.eear,
                           false, 0, 0);
            finishRecord(true, 0);
        } else {
            halted = r.halted;
            uint32_t next = r.isRfe ? r.rfeTarget : insn_pc + 4;
            finishRecord(false, next);
        }
        roriTaint_ = m == Mnemonic::L_RORI;
        lastWasMac_ = m == Mnemonic::L_MAC;
        retired += 1;
        ++retired_;
    }

    tickTimer(1);
    return !halted;
}

RunResult
Cpu::run(trace::TraceSink *sink)
{
    // The capture-time columnar sink is the pipeline's default trace
    // destination; selecting its concrete type here once lets every
    // per-record emission inside the dispatch loop bind directly
    // (ColumnarCapture is final) instead of through the vtable.
    if (auto *columns = dynamic_cast<trace::ColumnarCapture *>(sink))
        return runLoop(columns);
    return runLoop(sink);
}

template <typename Sink>
RunResult
Cpu::runLoop(Sink *sink)
{
    RunResult result;
    uint64_t emitted = 0;

    // Wedging inside the loop is caught right after the dispatch that
    // caused it, so the per-iteration check reduces to this entry one.
    if (wedged_) {
        result.reason = HaltReason::Wedged;
        result.instructions = retired_;
        return result;
    }

    while (retired_ < config_.maxInsns) {
        if (!irqQuiet_) {
            if (maybeInterrupt(sink, emitted))
                continue;
            // Nothing is deliverable, the IRQ schedule is drained,
            // and the tick timer is stopped. Exception entry only
            // ever clears IEE/TEE, so from here only an SPR write
            // (l.mtspr, l.rfe) can make an interrupt deliverable —
            // those writers drop the flag, and until one runs the
            // per-insn interrupt check is skipped.
            irqQuiet_ = irqCursor_ >= config_.irqSchedule.size() &&
                        bits(ttmr_, 31, 30) == 0;
        }
        uint64_t before = retired_;
        bool keep_going =
            dispatchBoundary(sink, result.instructions, emitted);
        if (wedged_) {
            result.reason = HaltReason::Wedged;
            break;
        }
        // Guard against a step that makes no progress.
        SCIF_ASSERT(retired_ > before);
        if (!keep_going) {
            result.reason = HaltReason::Halted;
            break;
        }
    }
    result.records = emitted;
    if (result.reason == HaltReason::MaxInsns)
        result.instructions = retired_;
    result.instructions = retired_;
    return result;
}

StepStatus
Cpu::step(trace::TraceSink *sink)
{
    if (wedged_)
        return StepStatus::Wedged;
    if (retired_ >= config_.maxInsns)
        return StepStatus::Budget;

    uint64_t emitted = 0;
    if (maybeInterrupt(sink, emitted))
        return StepStatus::Running;

    uint64_t insns = 0;
    bool keep_going = dispatchBoundary(sink, insns, emitted);
    if (wedged_)
        return StepStatus::Wedged;
    return keep_going ? StepStatus::Running : StepStatus::Halted;
}

} // namespace scif::cpu
