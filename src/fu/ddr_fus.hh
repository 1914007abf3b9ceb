/**
 * @file
 * Off-chip mover FUs.
 *
 * DdrFu routes feature maps between the DDR channel and on-chip FUs in
 * *program order* — the uOP sequence is the load/store interleaving
 * (paper Sec. 4.4, Fig. 12). LpddrFu loads read-only weights, bias, and
 * LayerNorm parameters from the LPDDR channel.
 */

#ifndef RSN_FU_DDR_FUS_HH
#define RSN_FU_DDR_FUS_HH

#include "fu/fu.hh"
#include "mem/dram.hh"
#include "mem/hostmem.hh"
#include "mem/layout.hh"

namespace rsn::fu {

/** Compute the burst count of a block access under a layout. */
std::uint32_t blockBursts(std::uint32_t rows, std::uint32_t cols,
                          std::uint32_t pitch, mem::LayoutKind kind);

/**
 * What DdrFu and LpddrFu share: a DRAM channel, the host memory behind
 * it, the tensor layout, and the load path. Both execute single-block
 * uOPs only: the decoder expands every strided mOP (isa::expandMopInto).
 */
class DramFu : public Fu
{
  public:
    DramFu(sim::Engine &eng, FuId id, mem::DramChannel &chan,
           mem::HostMemory &host, mem::LayoutKind layout);

    mem::DramChannel &channel() { return chan_; }

  protected:
    /** Read @p u's block over the channel and send it to @p u.dest. */
    template <class U> sim::Task loadBlock(const U &u);

    mem::DramChannel &chan_;
    mem::HostMemory &host_;
    mem::LayoutKind layout_;
};

class DdrFu : public DramFu
{
  public:
    using DramFu::DramFu;

  protected:
    sim::Task runKernel(const isa::Uop &uop) override;

  private:
    sim::Task storeBlock(const isa::DdrUop &u);
};

class LpddrFu : public DramFu
{
  public:
    using DramFu::DramFu;

  protected:
    sim::Task runKernel(const isa::Uop &uop) override;
};

} // namespace rsn::fu

#endif // RSN_FU_DDR_FUS_HH
