/**
 * @file
 * RSNlib model IR: the operator-level description RSN programs are
 * generated from (paper Sec. 4.5, Fig. 13).
 *
 * A model is an ordered list of segments. Linear segments are GEMMs with
 * fused non-MM epilogues (bias, GELU, residual add, LayerNorm); attention
 * segments are the per-head MM1 -> Softmax -> MM2 chains. This mirrors the
 * RSNlib operator set (rsn.linear / rsn.matmul / rsn.softmax /
 * rsn.layernorm / rsn.gelu) after the library's template matching has
 * grouped operators into backend patterns.
 */

#ifndef RSN_LIB_MODEL_HH
#define RSN_LIB_MODEL_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hh"

namespace rsn::lib {

/**
 * One GEMM layer: out = epilogue(in x W + b).
 * @c m includes the batch dimension (m = batch x seq for transformers).
 */
struct LinearLayer {
    std::string name;
    std::uint32_t m = 0;
    std::uint32_t k = 0;
    std::uint32_t n = 0;
    bool bias = false;
    bool gelu = false;
    bool layernorm = false;    ///< Mean/var/norm + scale&shift epilogue.
    bool residual = false;     ///< Add @c residual_src before LayerNorm.
    std::string in_src;        ///< Input tensor ("" = previous output).
    std::string residual_src;  ///< Residual tensor name.
    std::string out_name;      ///< Output tensor name.

    std::uint64_t flops() const;

    bool operator==(const LinearLayer &) const = default;
};

/**
 * Multi-head attention: per head, scores = Q x K^T, P = softmax(scores),
 * ctx = P x V. @c heads includes the batch (heads = batch x num_heads).
 */
struct AttentionBlock {
    std::string name;
    std::uint32_t heads = 0;
    std::uint32_t heads_per_batch = 0;  ///< For Q/K/V block addressing.
    std::uint32_t seq = 0;
    std::uint32_t dhead = 0;
    /** Q/K/V source tensors; equal names with offsets = fused QKV. */
    std::string q_src, k_src, v_src;
    std::uint32_t q_col_off = 0, k_col_off = 0, v_col_off = 0;
    std::string out_name;

    std::uint64_t flops() const;

    bool operator==(const AttentionBlock &) const = default;
};

using Segment = std::variant<LinearLayer, AttentionBlock>;

/** A whole model plus its I/O tensor declarations. */
struct Model {
    std::string name;
    std::uint32_t input_rows = 0;   ///< Input feature map (m x k0).
    std::uint32_t input_cols = 0;
    std::vector<Segment> segments;

    std::uint64_t totalFlops() const;
    /** Minimum off-chip traffic: input + weights + output bytes. */
    Bytes minTrafficBytes() const;

    bool operator==(const Model &) const = default;
};

/** @{ Model builders matching the paper's evaluated workloads. */

/** BERT-Large encoder layer(s): hidden 1024, 16 heads, FF 4096. */
Model bertLargeEncoder(std::uint32_t batch, std::uint32_t seq,
                       bool fuse_qkv, std::uint32_t layers = 1);

/** ViT-Base-like encoder: hidden 768, 12 heads, FF 3072, 197 tokens. */
Model vitEncoder(std::uint32_t batch, bool fuse_qkv,
                 std::uint32_t layers = 1);

/** NCF-style MLP tower (wide embedding MLP, no attention). */
Model ncf(std::uint32_t batch);

/** Plain MLP benchmark (large dense stack). */
Model mlp(std::uint32_t batch);

/** Scaled-down encoder for functional end-to-end validation. */
Model tinyEncoder(std::uint32_t batch, std::uint32_t seq,
                  std::uint32_t hidden, std::uint32_t heads,
                  std::uint32_t ff, bool fuse_qkv);
/** @} */

} // namespace rsn::lib

#endif // RSN_LIB_MODEL_HH
