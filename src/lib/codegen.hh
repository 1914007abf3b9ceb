/**
 * @file
 * RSN instruction generation: model IR -> RSN program (the RSNlib
 * backend, paper Sec. 4.5).
 *
 * For each segment the generator picks a datapath mapping:
 *  - LinearLayer: single-MM mapping on all six MMEs. Output-stationary
 *    768x1024 tiles, 128-deep K steps; LHS tiles stream DDR -> MemA0 ->
 *    MeshA (M-split across MMEs); RHS tiles stream LPDDR -> MemB0 ->
 *    MeshB (broadcast); results collect in the MemC partners and drain
 *    back through the DDR FU.
 *  - AttentionBlock (pipelined): three head lanes; lane l runs MM1 on
 *    MME_l, fuses Softmax in MemC_l, re-injects the probabilities through
 *    MeshA into MME_{3+l} for MM2 — the dynamic chain of pipelined FUs.
 *  - AttentionBlock (sequential): two passes with the score matrices
 *    spilled to DDR (the type-A baseline).
 *
 * DDR load/store interleaving is explicit: store pieces are queued and
 * drained into the load gaps of the next output tile (Sec. 4.4, Fig. 12).
 * Finally, the raw uOP stream is packed into RSN packets using
 * window/reuse compression (Sec. 3.3), which is what Fig. 9 measures.
 */

#ifndef RSN_LIB_CODEGEN_HH
#define RSN_LIB_CODEGEN_HH

#include <cstdint>
#include <deque>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "isa/packet.hh"
#include "lib/model.hh"
#include "lib/schedule.hh"

namespace rsn::lib {

/** A tensor placed in the simulated off-chip address space. */
struct TensorInfo {
    std::string name;
    Addr addr = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    bool is_weight = false;  ///< Lives behind the LPDDR channel.
};

/** The compiled artifact: program + tensor map + work accounting. */
struct CompiledModel {
    isa::RsnProgram program;
    std::vector<TensorInfo> tensors;
    std::uint64_t mm_flops = 0;  ///< GEMM FLOPs (for TFLOPS metrics).

    const TensorInfo &tensor(const std::string &name) const;
    bool hasTensor(const std::string &name) const;
};

class ProgramBuilder
{
  public:
    ProgramBuilder(core::RsnMachine &machine, ScheduleOptions opts);

    /**
     * Allocate the model's tensors in the machine's host memory and
     * generate its RSN program.
     */
    CompiledModel compile(const Model &model);

    const ScheduleOptions &options() const { return opts_; }

  private:
    struct Entry {
        FuType op;
        std::uint8_t mask;
        isa::Uop uop;
    };

    /** @{ Raw-stream emission. The DDR/LPDDR forms stamp the endpoint
     *  FU and the direction onto a block uOP. */
    void emit(FuType op, std::uint8_t mask, isa::Uop u);
    void emitDdrLoad(FuId dest, isa::DdrUop u, std::uint32_t drain);
    void queueDdrStore(FuId src, isa::DdrUop u);
    void emitLpddrLoad(FuId dest, isa::LpddrUop u);
    void flushStores();
    /** @} */

    /** @{ Tensor table. */
    TensorInfo declareTensor(const std::string &name, std::uint32_t rows,
                             std::uint32_t cols, bool weight);
    TensorInfo tensor(const std::string &name) const;
    /** @} */

    /** @{ Per-segment generators. */
    void genLinear(const LinearLayer &l);
    void genAttention(const AttentionBlock &a);
    void genAttentionPipelined(const AttentionBlock &a);
    void genAttentionSequential(const AttentionBlock &a);
    /** @} */

    /** A uOP sequence destined for the FU instances in @c mask. */
    struct UopStream {
        std::uint8_t mask;
        std::vector<isa::Uop> uops;
    };

    /**
     * A ping-pong scratchpad stream for the FU instances in @p mask:
     * @p chunks fills, fill j being @p fills[j % fills.size()] (MemB's
     * K/V alternation is a two-entry cycle), each followed by a
     * @p drain of the same chunk. With double buffering a fill also
     * drains the previous chunk from the other buffer, giving
     * [fill] [fill+drain]x(chunks-1) [drain]; without it, fill and drain
     * alternate.
     */
    template <typename U>
    UopStream pingPong(std::uint8_t mask, std::initializer_list<U> fills,
                       const U &drain, std::uint64_t chunks) const;

    /**
     * Emit several same-FU-type streams round-robin in blocks sized below
     * the per-FU uOP FIFO depth: delivering one group's whole stream
     * before the next would fill the first group's queues, stall the
     * shared second-level decoder, and starve the sibling FUs — the
     * deadlock scenario of Sec. 3.3.
     */
    void emitInterleaved(FuType op, const std::vector<UopStream> &streams);

    /**
     * The MeshA/MeshB uOP pair of a lane-parallel attention pass over
     * @p heads heads on @p lanes lanes: heads / lanes passes over every
     * lane, then one pass over the first heads % lanes lanes.
     * @p routes(upto, meshA_routes, meshB_routes) lists the routes of
     * lanes [0, upto).
     */
    template <typename RouteFn>
    void emitLaneMeshes(std::uint32_t heads, std::uint32_t lanes,
                        RouteFn routes);

    /** Pack the raw stream into packets with window/reuse compression. */
    isa::RsnProgram pack() const;

    /** Mark the start of a segment's entries. */
    void beginSegment();

    /**
     * Reorder the just-generated segment so control and data-movement
     * entries interleave in bounded per-type blocks. Fetching a long run
     * of one FU type's packets while another type's data supplier has no
     * instructions yet is exactly the fetch-stall deadlock of Sec. 3.3;
     * interleaving in program order keeps every type's FIFO fed. Within
     * one FU type the entry order is preserved.
     */
    void endSegment();

    core::RsnMachine &mach_;
    ScheduleOptions opts_;
    std::vector<Entry> entries_;
    std::deque<isa::DdrUop> pending_stores_;
    /** Store pieces held back until their producing tile has computed. */
    std::size_t store_lag_ = 0;
    std::vector<TensorInfo> tensors_;
    std::uint64_t mm_flops_ = 0;
    std::size_t segment_start_ = 0;
};

/** Convenience: compile @p model onto @p machine with @p opts. */
CompiledModel compileModel(core::RsnMachine &machine, const Model &model,
                           ScheduleOptions opts);

} // namespace rsn::lib

#endif // RSN_LIB_CODEGEN_HH
