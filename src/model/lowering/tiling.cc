#include "src/model/lowering/tiling.h"

#include "src/base/status.h"
#include "src/runtime/conv.h"

namespace gemmini::lowering {

ConvShape conv_shape(const LayerSpec& layer, const TensorShape& in_shape) {
  const bool dw = layer.kind == LayerKind::kDepthwiseConv;
  ConvShape shape;
  shape.batch = 1;
  shape.ih = in_shape.h;
  shape.iw = in_shape.w;
  shape.ic = in_shape.c;
  shape.kh = layer.kh;
  shape.kw = layer.kw;
  shape.oc = dw ? in_shape.c : layer.oc;
  shape.stride = layer.stride;
  shape.padding = layer.padding;
  return shape;
}

MatmulLowering matmul_lowering(const Model& model, std::size_t layer) {
  const LayerSpec& l = model.layers()[layer];
  const TensorShape& in_shape = model.shape(model.producer(layer));
  MatmulLowering out;
  switch (l.kind) {
    case LayerKind::kConv: {
      const ConvShape shape = conv_shape(l, in_shape);
      out.dims = {shape.out_rows(), shape.patch_cols(), shape.oc};
      out.count = 1;
      return out;
    }
    case LayerKind::kDepthwiseConv: {
      const ConvShape shape = conv_shape(l, in_shape);
      // One skinny matmul per channel.
      out.dims = {shape.out_rows(),
                  static_cast<std::uint64_t>(l.kh) * l.kw, 1};
      out.count = in_shape.c;
      return out;
    }
    case LayerKind::kDense: {
      const std::uint64_t in_features =
          in_shape.is_matrix
              ? in_shape.cols
              : static_cast<std::uint64_t>(in_shape.h) * in_shape.w *
                    in_shape.c;
      const std::uint64_t rows = in_shape.is_matrix ? in_shape.rows : 1;
      out.dims = {rows, in_features, l.out_features};
      out.count = 1;
      return out;
    }
    default:
      out.count = 0;
      return out;
  }
}

void assign_tiles(sim::Plan& plan, const GemminiConfig& cfg,
                  const TilingPolicy& policy) {
  const Model& model = plan.model();
  GEMMINI_CHECK_MSG(plan.layers.size() == model.layers().size(),
                    "assign_tiles requires assign_placement first");
  plan.tiling_policy = policy.name();
  const std::size_t elem = cfg.input_bytes();

  for (std::size_t i = 1; i < plan.layers.size(); ++i) {
    sim::PlannedLayer& pl = plan.layers[i];
    const LayerSpec& l = model.layers()[i];
    if (pl.target == LayerTarget::kNone) continue;

    const MatmulLowering mm = matmul_lowering(model, i);
    if (mm.count > 0) {
      // Problem dims are recorded whichever side runs the layer (emission's
      // CPU fallback needs them too); the staging tile and DMA traffic only
      // exist for accelerator-placed matmuls.
      pl.has_matmul = true;
      pl.matmul.dims = mm.dims;
      pl.matmul.count = mm.count;
      if (pl.target != LayerTarget::kAccel) continue;
      pl.matmul.tile = policy.choose(cfg, i, mm.dims);
      // Traffic is finalized after allocation decides whether a bias buffer
      // exists; record the bias-free figure now so the plan is never
      // inconsistent mid-pipeline.
      pl.dma_bytes = sim::matmul_dma_bytes(pl, l, cfg);
      continue;
    }
    if (pl.target != LayerTarget::kAccel) continue;

    // Streaming accelerator kernels: traffic is shape-determined.
    const TensorShape& out_shape = model.shape(i);
    if (l.kind == LayerKind::kResAdd) {
      pl.dma_bytes = 3 * out_shape.elems() * elem;  // two in, one out
    } else if (l.kind == LayerKind::kMaxPool) {
      const TensorShape& in_shape = model.shape(model.producer(i));
      pl.dma_bytes = (in_shape.elems() + out_shape.elems()) * elem;
    }
  }
}

}  // namespace gemmini::lowering
