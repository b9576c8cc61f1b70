#include "src/model/lowering/allocation.h"

#include <vector>

#include "src/base/rng.h"
#include "src/base/status.h"
#include "src/model/lowering/tiling.h"
#include "src/model/runner.h"
#include "src/runtime/conv.h"

namespace gemmini::lowering {

namespace {

std::uint64_t padded_bytes(std::uint64_t elems, const GemminiConfig& cfg) {
  const std::uint64_t row = cfg.sp_row_bytes();
  const std::uint64_t bytes = elems * cfg.input_bytes();
  return (bytes + row - 1) / row * row + row;  // extra guard row
}

}  // namespace

void allocate_buffers(sim::Plan& plan, const GemminiConfig& cfg,
                      AddressSpace& as) {
  const Model& model = plan.model();
  const auto& layers = model.layers();
  GEMMINI_CHECK_MSG(plan.layers.size() == layers.size(),
                    "allocate_buffers requires placement/tiling first");
  plan.config = cfg.name;
  Rng rng(plan.seed);

  // ---- Layer outputs up front ---------------------------------------------
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const std::uint64_t bytes = padded_bytes(model.shape(i).elems(), cfg);
    plan.layers[i].output.va = as.alloc(bytes);
    plan.layers[i].output.bytes = bytes;
  }
  plan.input = plan.layers[0].output.va;
  plan.input_bytes = plan.layers[0].output.bytes;

  if (plan.functional) {
    std::vector<std::int8_t> buf(model.shape(0).elems());
    for (auto& v : buf) v = rng.next_int8();
    as.write_virt(plan.input, buf.data(), buf.size());
  }

  auto alloc_weights = [&](std::uint64_t elems) {
    plan.weight_bytes += elems * cfg.input_bytes();
    const VAddr va = as.alloc(padded_bytes(elems, cfg));
    if (plan.functional) {
      std::vector<std::int8_t> buf(elems);
      for (auto& v : buf) v = rng.next_int8();
      as.write_virt(va, buf.data(), buf.size());
    }
    return va;
  };

  // ---- Per-layer weights / bias / scratch, in layer order ------------------
  for (std::size_t i = 1; i < layers.size(); ++i) {
    const LayerSpec& l = layers[i];
    sim::PlannedLayer& pl = plan.layers[i];
    const TensorShape& in_shape = model.shape(model.producer(i));

    switch (l.kind) {
      case LayerKind::kConv:
      case LayerKind::kDepthwiseConv: {
        const bool dw = l.kind == LayerKind::kDepthwiseConv;
        const ConvShape shape = conv_shape(l, in_shape);
        const std::uint64_t kk = static_cast<std::uint64_t>(l.kh) * l.kw;
        const std::uint64_t w_elems =
            dw ? kk * shape.ic : shape.patch_cols() * shape.oc;
        pl.weights.va = alloc_weights(w_elems);
        pl.weights.bytes = padded_bytes(w_elems, cfg);
        if (l.has_bias) {
          pl.bias.va = alloc_weights(shape.oc);
          pl.bias.bytes = padded_bytes(shape.oc, cfg);
        }
        // The accelerator path stages a conv through im2col scratch unless
        // the layer is a direct 1x1/s1/p0 matmul; the CPU reference conv
        // reads the NHWC input directly and needs none.
        if (pl.target == LayerTarget::kAccel && (dw || !shape.is_direct())) {
          const std::uint64_t scratch_elems =
              dw ? shape.out_rows() * kk * shape.ic
                 : shape.out_rows() * shape.patch_cols();
          const std::uint64_t bytes = padded_bytes(scratch_elems, cfg);
          pl.scratch.va = as.alloc(bytes);
          pl.scratch.bytes = bytes;
        }
        pl.out_shift = default_out_shift(dw ? kk : shape.patch_cols());
        break;
      }

      case LayerKind::kDense: {
        const std::uint64_t in_features =
            in_shape.is_matrix
                ? in_shape.cols
                : static_cast<std::uint64_t>(in_shape.h) * in_shape.w *
                      in_shape.c;
        if (l.int4_weights) {
          // Packed nibble storage: each of the k weight rows occupies
          // ceil(n/2) bytes. The random packed bytes ARE the int4 weights;
          // the reference oracle unpacks the same nibbles.
          const std::uint64_t packed =
              in_features * ((l.out_features + 1) / 2);
          plan.weight_bytes += packed;
          pl.weights.va = as.alloc(padded_bytes(packed, cfg));
          pl.weights.bytes = padded_bytes(packed, cfg);
          if (plan.functional) {
            std::vector<std::int8_t> buf(packed);
            for (auto& v : buf) v = rng.next_int8();
            as.write_virt(pl.weights.va, buf.data(), buf.size());
          }
        } else {
          pl.weights.va = alloc_weights(in_features * l.out_features);
          pl.weights.bytes = padded_bytes(in_features * l.out_features, cfg);
        }
        if (l.has_bias) {
          pl.bias.va = alloc_weights(l.out_features);
          pl.bias.bytes = padded_bytes(l.out_features, cfg);
        }
        pl.out_shift = default_out_shift(in_features);
        break;
      }

      default:
        break;
    }

    // Finalize modeled traffic now the bias decision is known.
    if (pl.has_matmul && pl.target == LayerTarget::kAccel) {
      pl.dma_bytes = sim::matmul_dma_bytes(pl, l, cfg);
    }
  }
}

}  // namespace gemmini::lowering
