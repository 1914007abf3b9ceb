/**
 * @file
 * Run support: tensor initialization, reference evaluation, and result
 * extraction for compiled models.
 *
 * This plays the role of the paper's python_gold flow (Artifact Appendix):
 * deterministic input/weight data goes into the simulated off-chip memory,
 * the datapath computes through the stream network, and outputs are
 * validated segment by segment against the independent reference.
 */

#ifndef RSN_LIB_RUNNER_HH
#define RSN_LIB_RUNNER_HH

#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "lib/codegen.hh"
#include "lib/model.hh"
#include "lib/schedule.hh"
#include "ref/ref_math.hh"

namespace rsn::lib {

/**
 * Fill the model's input and weight tensors with seeded pseudo-random
 * data (activations start zeroed). No-op on timing-only machines.
 */
void initTensors(core::RsnMachine &mach, const CompiledModel &compiled,
                 std::uint32_t seed, float scale = 0.5f);

/** Read a tensor out of simulated off-chip memory as a matrix. */
ref::Matrix readTensor(core::RsnMachine &mach,
                       const CompiledModel &compiled,
                       const std::string &name);

/** FP32 reference tensors by name. */
using References = std::map<std::string, ref::Matrix>;

/**
 * Reference evaluation: replay the model on the host-memory contents with
 * the naive implementations, returning every produced activation tensor
 * by name (including per-segment intermediates).
 */
References referenceForward(core::RsnMachine &mach, const Model &model,
                            const CompiledModel &compiled);

/** Outcome of a checked run: run classification plus output check. */
struct CheckedRun {
    core::RunReport report;
    bool functional = false;   ///< Machine carried FP32 payloads.
    /** All produced tensors matched the reference (functional runs that
     *  completed; vacuously true otherwise). */
    bool outputs_ok = true;
    std::vector<std::string> mismatched;  ///< Tensors that diverged.

    /** Completed with verified outputs (or a timing-only completion). */
    bool ok() const { return report.ok() && outputs_ok; }
};

/**
 * The prepare step of a checked run, for a program already placed on
 * @p mach: seed the tensors and, on functional machines, capture the
 * FP32 reference of every produced tensor (not the seeded input).
 * Returns no references on timing-only machines.
 */
References seedAndReference(core::RsnMachine &mach, const Model &model,
                            const CompiledModel &compiled,
                            std::uint32_t seed);

/**
 * The run-and-compare step: run through the structured RunReport
 * channel and, when the run completes on a functional machine, compare
 * every produced tensor against @p refs. Never throws on a diagnosed
 * fault / deadlock / timeout; those come back classified in the report.
 */
CheckedRun runAndCompare(core::RsnMachine &mach,
                         const CompiledModel &compiled,
                         const References &refs, float rtol, float atol,
                         Tick max_ticks);

/**
 * The full checked execution flow in one call: seedAndReference, then
 * runAndCompare. This is the path rsn-sim and the chaos tier drive.
 */
CheckedRun runModelChecked(core::RsnMachine &mach, const Model &model,
                           const CompiledModel &compiled,
                           std::uint32_t seed = 2025, float rtol = 2e-3f,
                           float atol = 2e-3f,
                           Tick max_ticks =
                               core::RsnMachine::kDefaultMaxTicks);

/**
 * Compiled programs and their FP32 references, keyed by (Model,
 * ScheduleOptions), for a caller that re-runs the same shapes on one
 * machine configuration — the serving scheduler, whose fleet only ever
 * sees classes x max_batch distinct models. Compiling and referencing
 * are pure functions of (config, model, options, seed), so a hit
 * replays a cold prepare exactly; the cache is therefore bound to one
 * config (fault seed aside) and one tensor seed, both asserted on every
 * lookup. It never evicts: the caller bounds the key set.
 */
class ProgramCache
{
  public:
    struct Entry {
        Model model;
        ScheduleOptions opts;
        CompiledModel compiled;
        References refs;  ///< Empty on timing-only machines.
    };

    ProgramCache(const core::MachineConfig &cfg, std::uint32_t seed)
        : cfg_(cfg), seed_(seed)
    {}

    /**
     * Place (@p model, @p opts) on @p mach, a freshly built or reset
     * machine, with its tensors seeded — the state seedAndReference
     * leaves. A miss compiles and references; a hit re-allocates the
     * cached tensor table in order (asserting every address), which
     * leaves activations zeroed exactly as a cold compile does, and
     * re-seeds inputs and weights. The entry lives as long as the cache.
     */
    const Entry &prepare(core::RsnMachine &mach, const Model &model,
                         const ScheduleOptions &opts, std::uint32_t seed);

    /** @{ Lookup accounting: misses and hits. */
    std::uint64_t compiled() const { return compiled_; }
    std::uint64_t reused() const { return reused_; }
    /** @} */

  private:
    core::MachineConfig cfg_;
    std::uint32_t seed_;
    std::deque<Entry> entries_;  ///< deque: entries never move.
    std::uint64_t compiled_ = 0;
    std::uint64_t reused_ = 0;
};

} // namespace rsn::lib

#endif // RSN_LIB_RUNNER_HH
