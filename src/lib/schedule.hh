/**
 * @file
 * Schedule options: the optimization knobs the paper evaluates.
 *
 * Table 9 compares four operating points; these map onto the flags below:
 *  - "No Optimize":   everything off (atomic layer-at-a-time overlay style)
 *  - "BW Optimized":  interleave_load_store + double_buffer
 *  - "Multi MMs together": + fuse_qkv (done at model build time)
 *  - "Final":         + pipeline_attention + overlap_prolog_epilog
 */

#ifndef RSN_LIB_SCHEDULE_HH
#define RSN_LIB_SCHEDULE_HH

#include <cstdint>

namespace rsn::lib {

struct ScheduleOptions {
    /** Explicitly interleave DDR stores into load gaps (Sec. 4.4). */
    bool interleave_load_store = true;
    /** Run attention MM1 -> softmax -> MM2 on-chip (type-D mapping). */
    bool pipeline_attention = true;
    /** Overlap one segment's epilog with the next one's prolog. */
    bool overlap_prolog_epilog = true;
    /** Ping-pong scratchpads: load/recv in parallel with send/store. */
    bool double_buffer = true;

    /** Out-stationary tiling (Sec. 5.3): 768 x 1024 output tiles,
     *  K accumulated in 128-deep steps. */
    std::uint32_t out_tile_m = 768;
    std::uint32_t out_tile_n = 1024;
    std::uint32_t k_step = 128;

    /** Store pieces per MemC slab (drained one per load gap). */
    std::uint32_t store_split = 2;

    bool operator==(const ScheduleOptions &) const = default;

    static ScheduleOptions
    optimized()
    {
        return {};
    }

    /** The baseline-overlay operating point of Table 9 / Sec. 5.5. */
    static ScheduleOptions
    noOptimize()
    {
        ScheduleOptions o;
        o.interleave_load_store = false;
        o.pipeline_attention = false;
        o.overlap_prolog_epilog = false;
        o.double_buffer = false;
        o.store_split = 1;
        return o;
    }

    /** Fine-grained bandwidth mapping only. */
    static ScheduleOptions
    bwOptimized()
    {
        ScheduleOptions o;
        o.pipeline_attention = false;
        o.overlap_prolog_epilog = false;
        return o;
    }
};

} // namespace rsn::lib

#endif // RSN_LIB_SCHEDULE_HH
