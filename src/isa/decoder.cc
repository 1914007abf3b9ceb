#include "isa/decoder.hh"

#include <algorithm>
#include <functional>

#include "common/log.hh"

namespace rsn::isa {

DecoderUnit::DecoderUnit(sim::Engine &eng, Config cfg)
    : eng_(eng), cfg_(cfg)
{
    rsn_assert(cfg.fetch_fifo_depth > 0, "bad fetch FIFO depth");
}

void
DecoderUnit::attach(fu::Fu *f)
{
    const FuId id = f->id();
    rsn_assert(id.index < kMaxMaskBits, "%s outside the packet mask",
               f->name().c_str());
    fu::Fu *&slot = fus_[static_cast<int>(id.type)][id.index];
    rsn_assert(slot == nullptr, "duplicate FU %s", f->name().c_str());
    slot = f;
}

void
DecoderUnit::start(const RsnProgram &prog)
{
    rsn_assert(prog_ == nullptr, "decoder started twice");
    prog_ = &prog;
    for (int t = 0; t < kNumFuTypes; ++t) {
        pkt_ch_[t] = std::make_unique<PktChannel>(
            eng_, cfg_.fetch_fifo_depth,
            std::string(fuTypeName(static_cast<FuType>(t))) + ".pktq");
        type_tasks_[t] = typeLoop(static_cast<FuType>(t));
    }
    fetch_task_ = fetchLoop();
}

void
DecoderUnit::reset()
{
    rsn_assert(prog_ == nullptr || done(),
               "decoder reset while still issuing");
    prog_ = nullptr;
    fetch_task_ = {};
    fetch_done_ = false;
    for (int t = 0; t < kNumFuTypes; ++t) {
        type_tasks_[t] = {};
        pkt_ch_[t].reset();
        type_done_[t] = false;
        uop_cache_[t].clear();
    }
    stats_ = {};
}

sim::Task
DecoderUnit::fetchLoop()
{
    for (const RsnPacket &p : prog_->packets()) {
        co_await eng_.delay(cfg_.ticks_per_packet);
        ++stats_.packets_fetched;
        stats_.bytes_fetched += p.wireBytes();
        co_await pkt_ch_[static_cast<int>(p.opcode)]->send(&p);
    }
    // End-of-program sentinels.
    for (int t = 0; t < kNumFuTypes; ++t)
        co_await pkt_ch_[t]->send(nullptr);
    fetch_done_ = true;
}

sim::Task
DecoderUnit::typeLoop(FuType t)
{
    PktChannel &ch = *pkt_ch_[static_cast<int>(t)];
    std::vector<Uop> &cache = uop_cache_[static_cast<int>(t)];
    while (true) {
        const RsnPacket *p = co_await ch.recv();
        if (!p)
            break;
        // Expand the window once into the uOP cache (see decoder.hh);
        // the `reuse` replay passes issue straight from it.
        cache.clear();
        for (const Uop &mop : p->mops)
            expandMopInto(mop, cache);
        stats_.uop_expansions += cache.size();
        // The FU instances the packet's mask selects, in index order.
        std::array<fu::Fu *, kMaxMaskBits> targets;
        std::size_t n = 0;
        for (std::uint32_t i = 0; i < kMaxMaskBits; ++i) {
            if (!(p->mask & (1u << i)))
                continue;
            targets[n] = fus_[static_cast<int>(t)][i];
            rsn_assert(targets[n], "packet targets missing %s%u",
                       fuTypeName(t), i);
            ++n;
        }
        for (std::uint32_t pass = 0; pass < p->reuse; ++pass) {
            if (pass > 0)
                stats_.uop_cache_replays += cache.size();
            for (const Uop &u : cache) {
                for (std::size_t k = 0; k < n; ++k) {
                    co_await eng_.delay(cfg_.ticks_per_uop);
                    co_await targets[k]->uopQueue().send(u);
                    ++stats_.uops_issued;
                }
            }
        }
        if (p->last) {
            for (std::size_t k = 0; k < n; ++k) {
                co_await targets[k]->uopQueue().send(Uop{HaltUop{}});
                ++stats_.uops_issued;
            }
        }
    }
    type_done_[static_cast<int>(t)] = true;
}

bool
DecoderUnit::done() const
{
    return fetch_done_ && std::ranges::all_of(type_done_, std::identity{});
}

std::string
DecoderUnit::stateString() const
{
    std::string s;
    if (!fetch_done_)
        s += "fetch unit stalled; ";
    for (int t = 0; t < kNumFuTypes; ++t) {
        if (!type_done_[t] && pkt_ch_[t]) {
            s += std::string(fuTypeName(static_cast<FuType>(t))) +
                 " decoder pending (fifo=" +
                 std::to_string(pkt_ch_[t]->size()) + "); ";
        }
    }
    return s.empty() ? "decoder drained" : s;
}

} // namespace rsn::isa
