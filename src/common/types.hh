/**
 * @file
 * Fundamental types shared across the RSN simulator.
 */

#ifndef RSN_COMMON_TYPES_HH
#define RSN_COMMON_TYPES_HH

#include <cstdint>
#include <string>

namespace rsn {

/** Simulated time, measured in PL (programmable-logic) clock cycles. */
using Tick = std::uint64_t;

/** A byte count. */
using Bytes = std::uint64_t;

/** A simulated off-chip address. */
using Addr = std::uint64_t;

/** Sentinel for "no tick scheduled". */
inline constexpr Tick kTickMax = ~Tick(0);

/**
 * Functional-unit categories of the RSN-XNN datapath (paper Fig. 10).
 * Each category has its own uOP control plane (paper Table 2) and its own
 * second-level decoder.
 */
enum class FuType : std::uint8_t {
    Mme,    ///< Matrix-multiply engine (virtualized AIE group).
    MemA,   ///< LHS scratchpad.
    MemB,   ///< RHS scratchpad (transpose / bias load).
    MemC,   ///< Output scratchpad (softmax / GELU / LayerNorm).
    MeshA,  ///< LHS-side router.
    MeshB,  ///< RHS-side router.
    Ddr,    ///< Off-chip DDR mover (feature maps, load + store).
    Lpddr,  ///< Off-chip LPDDR mover (weights and bias, load only).
    NumTypes,
};

/** Number of distinct FU categories. */
inline constexpr int kNumFuTypes = static_cast<int>(FuType::NumTypes);

/** Human-readable FU type name. */
const char *fuTypeName(FuType t);

/**
 * Identifies one FU instance: a type plus an index within that type
 * (e.g. {Mme, 3} is MME3). Used in uOP source/destination fields.
 */
struct FuId {
    FuType type = FuType::NumTypes;
    std::uint8_t index = 0;

    bool valid() const { return type != FuType::NumTypes; }
    bool operator==(const FuId &o) const = default;
    std::string toString() const;
};

/** Invalid / unset FU id. */
inline constexpr FuId kNoFu{};

/** @{ Instance @p i of a multi-instance FU type. */
constexpr FuId mme(int i) { return {FuType::Mme, std::uint8_t(i)}; }
constexpr FuId memA(int i) { return {FuType::MemA, std::uint8_t(i)}; }
constexpr FuId memB(int i) { return {FuType::MemB, std::uint8_t(i)}; }
constexpr FuId memC(int i) { return {FuType::MemC, std::uint8_t(i)}; }
/** @} */

/** Clock frequencies of the modeled VCK190 platform. */
struct ClockSpec {
    double plHz = 260e6;    ///< PL fabric clock (simulation tick).
    double aieHz = 1.25e9;  ///< AIE array clock.

    bool operator==(const ClockSpec &) const = default;
};

/** Convert ticks (PL cycles) to milliseconds for a given PL frequency. */
inline double
ticksToMs(Tick t, double pl_hz = 260e6)
{
    return static_cast<double>(t) / pl_hz * 1e3;
}

/** Convert milliseconds to ticks for a given PL frequency. */
inline Tick
msToTicks(double ms, double pl_hz = 260e6)
{
    return static_cast<Tick>(ms * 1e-3 * pl_hz);
}

/** SplitMix64 finalizer: the one bit mixer behind every seeded decision
 *  (fault injection, serving arrivals and retries). Pure and stateless. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Convert a GB/s bandwidth into bytes per PL tick. */
inline double
gbpsToBytesPerTick(double gbps, double pl_hz = 260e6)
{
    return gbps * 1e9 / pl_hz;
}

} // namespace rsn

#endif // RSN_COMMON_TYPES_HH
