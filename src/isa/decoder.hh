/**
 * @file
 * The three-level instruction decoder (paper Sec. 3.3, Fig. 8).
 *
 * Level 1 (fetch / top-level): reads the single RSN packet stream and
 * forwards each packet to the second-level decoder selected by its opcode.
 * The fetch unit issues continuously until a downstream FIFO back-pressures
 * it — which is also how the paper's deadlock scenario arises when FIFOs
 * are too shallow (depth 6 is reported deadlock-free).
 *
 * Level 2 (per FU type): replays each packet's mOP window `reuse` times and
 * expands mOPs into uOPs (strided DDR/LPDDR mOPs unroll per block). Each
 * second-level decoder owns a per-mOP-window **uOP cache**: a packet's
 * window is expanded exactly once into a reusable buffer, and the
 * `reuse` replay passes issue straight from the cache instead of
 * re-expanding every pass (the buffer is recycled across packets, so
 * steady-state decoding allocates nothing). Issue order and per-uOP
 * decode delays are identical to the uncached path — the cache is a
 * host-side optimization with no simulated-timing footprint.
 *
 * Level 3 (per FU): the bounded uOP queue inside each Fu.
 */

#ifndef RSN_ISA_DECODER_HH
#define RSN_ISA_DECODER_HH

#include <array>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "fu/fu.hh"
#include "isa/packet.hh"
#include "sim/channel.hh"
#include "sim/task.hh"

namespace rsn::isa {

class DecoderUnit
{
  public:
    struct Config {
        /** Packet FIFO depth between fetch and each type decoder. */
        std::size_t fetch_fifo_depth = 6;
        /** Decode cost per packet header at the fetch unit. */
        Tick ticks_per_packet = 4;
        /** Decode cost per issued uOP at a second-level decoder. */
        Tick ticks_per_uop = 2;
    };

    DecoderUnit(sim::Engine &eng, Config cfg);

    /** Register an FU instance as a uOP sink. Call before start(). */
    void attach(fu::Fu *f);

    /**
     * Begin fetching @p prog (which must outlive the run) and issuing
     * uOPs. Spawns the fetch and second-level decoder coroutines.
     */
    void start(const RsnProgram &prog);

    /** All packets fetched, expanded, and delivered. */
    bool done() const;

    /**
     * Return to the pre-start state so a fresh program can be fetched
     * (RsnMachine::reset). Only legal before start() or once done():
     * the fetch/type coroutines must have finished before their frames
     * are destroyed.
     */
    void reset();

    /** @{ Stats for the overhead analysis (Sec. 5.1). */
    std::uint64_t packetsFetched() const { return stats_.packets_fetched; }
    std::uint64_t uopsIssued() const { return stats_.uops_issued; }
    Bytes instructionBytesFetched() const { return stats_.bytes_fetched; }
    /** @} */

    /** @{ uOP cache stats: window expansions performed vs. expansions
     *  the replay passes reused from the cache. */
    std::uint64_t uopExpansions() const { return stats_.uop_expansions; }
    std::uint64_t uopCacheReplays() const { return stats_.uop_cache_replays; }
    /** @} */

    /** Describe stalled decoder stages (deadlock diagnostics). */
    std::string stateString() const;

  private:
    sim::Task fetchLoop();
    sim::Task typeLoop(FuType t);

    sim::Engine &eng_;
    Config cfg_;
    const RsnProgram *prog_ = nullptr;
    /** Attached FUs by [type][instance index]. */
    std::array<std::array<fu::Fu *, kMaxMaskBits>, kNumFuTypes> fus_{};

    /** nullptr packet = end-of-program sentinel. */
    using PktChannel = sim::Channel<const RsnPacket *>;
    std::array<std::unique_ptr<PktChannel>, kNumFuTypes> pkt_ch_;
    std::array<sim::Task, kNumFuTypes> type_tasks_;
    std::array<bool, kNumFuTypes> type_done_{};
    sim::Task fetch_task_;
    bool fetch_done_ = false;

    /** Per-type uOP cache: the current packet's expanded mOP window.
     *  Cleared (capacity kept) per packet, replayed per pass. */
    std::array<std::vector<Uop>, kNumFuTypes> uop_cache_;

    struct {
        std::uint64_t packets_fetched = 0, uops_issued = 0;
        Bytes bytes_fetched = 0;
        std::uint64_t uop_expansions = 0, uop_cache_replays = 0;
    } stats_;
};

} // namespace rsn::isa

#endif // RSN_ISA_DECODER_HH
