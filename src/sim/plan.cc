#include "src/sim/plan.h"

#include "src/base/status.h"
#include "src/sim/json_writer.h"

namespace gemmini::sim {

namespace {

void write_buffer(detail::JsonWriter& w, const char* key,
                  const PlannedBuffer& b) {
  w.key(key);
  w.begin_object();
  w.key("va");
  w.value(b.va);
  w.key("bytes");
  w.value(b.bytes);
  w.end_object();
}

void write_layer(detail::JsonWriter& w, const PlannedLayer& l) {
  w.begin_object();
  w.key("index");
  w.value(static_cast<std::uint64_t>(l.index));
  w.key("kind");
  w.value(l.kind);
  w.key("tag");
  w.value(l.tag);
  w.key("target");
  w.value(lowering::layer_target_name(l.target));
  if (l.has_matmul) {
    w.key("matmul");
    w.begin_object();
    w.key("m");
    w.value(l.matmul.dims.m);
    w.key("k");
    w.value(l.matmul.dims.k);
    w.key("n");
    w.value(l.matmul.dims.n);
    w.key("count");
    w.value(l.matmul.count);
    w.key("tile");
    w.begin_object();
    w.key("i");
    w.value(l.matmul.tile.i);
    w.key("k");
    w.value(l.matmul.tile.k);
    w.key("j");
    w.value(l.matmul.tile.j);
    w.end_object();
    w.end_object();
    w.key("out_shift");
    w.value(l.out_shift);
  }
  w.key("dma_bytes");
  w.value(l.dma_bytes);
  w.key("buffers");
  w.begin_object();
  write_buffer(w, "output", l.output);
  if (l.weights.va) write_buffer(w, "weights", l.weights);
  if (l.bias.va) write_buffer(w, "bias", l.bias);
  if (l.scratch.va) write_buffer(w, "scratch", l.scratch);
  w.end_object();
  w.end_object();
}

}  // namespace

std::uint64_t matmul_dma_bytes(const PlannedLayer& pl, const LayerSpec& spec,
                               const GemminiConfig& cfg) {
  return pl.matmul.count * gemmini::modeled_dma_bytes(
                               cfg, pl.matmul.dims, pl.matmul.tile,
                               pl.bias.va != 0, spec.int4_weights);
}

std::uint64_t Plan::modeled_dma_bytes() const {
  std::uint64_t total = 0;
  for (const PlannedLayer& l : layers) total += l.dma_bytes;
  return total;
}

void Plan::set_tile(std::size_t layer, TileShape tile,
                    const GemminiConfig& cfg) {
  GEMMINI_CHECK_MSG(layer < layers.size(), "set_tile: no such layer");
  PlannedLayer& l = layers[layer];
  GEMMINI_CHECK_MSG(l.has_matmul,
                    "set_tile: layer " << layer << " (" << l.kind
                                       << ") does not lower to a matmul");
  GEMMINI_CHECK_MSG(l.target == lowering::LayerTarget::kAccel,
                    "set_tile: layer " << layer
                                       << " is not accelerator-placed");
  l.matmul.tile = tile;
  l.dma_bytes = matmul_dma_bytes(l, model_.layers()[layer], cfg);
  tiling_policy = "manual-edit";
}

std::string Plan::to_json(int indent) const {
  detail::JsonWriter w(indent);
  w.begin_object();
  w.key("model");
  w.value(model_.name());
  w.key("config");
  w.value(config);
  w.key("placement_policy");
  w.value(placement_policy);
  w.key("tiling_policy");
  w.value(tiling_policy);
  w.key("functional");
  w.value(functional);
  w.key("seed");
  w.value(seed);
  w.key("core");
  w.value(core);
  w.key("input");
  w.begin_object();
  w.key("va");
  w.value(input);
  w.key("bytes");
  w.value(input_bytes);
  w.end_object();
  w.key("weight_bytes");
  w.value(weight_bytes);
  w.key("modeled_dma_bytes");
  w.value(modeled_dma_bytes());
  w.key("layers");
  w.begin_array();
  for (const PlannedLayer& l : layers) write_layer(w, l);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace gemmini::sim
