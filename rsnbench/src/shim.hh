/**
 * @file
 * Timing shims around the payload-kernel dispatch table.
 *
 * The traced run installs a benchmark-owned KernelTable whose every
 * entry times the call, records it with trace::kernelCall, and forwards
 * to the table that was active before (the probed best, normally). The
 * table is installed with kernel::ScopedIsaOverride on the main thread
 * while no executor call runs, the registry's threading contract. Its
 * isa, name and exact fields are copied from the wrapped table, so the
 * library sees the same kernel selection — only slower by the timing.
 */

#ifndef RSNBENCH_SHIM_HH
#define RSNBENCH_SHIM_HH

#include <string>

#include "fu/kernel_registry.hh"

namespace rsnbench::shim {

/**
 * The timing table around @p inner. One wrapped table per process at a
 * time: a later call re-targets the same table object.
 */
const rsn::kernel::KernelTable &
timingTable(const rsn::kernel::KernelTable &inner);

/**
 * Call every entry of timingTable(inner) and of @p inner on identical
 * seeded inputs and compare the outputs byte for byte. Returns an empty
 * string when all entries forward bit-exactly, else the first entry
 * that differs. Records into the trace census; run it untraced.
 */
std::string checkForwarding(const rsn::kernel::KernelTable &inner);

} // namespace rsnbench::shim

#endif // RSNBENCH_SHIM_HH
