// Staged-lowering-pipeline tests: sim::Plan structure and determinism,
// pluggable placement/tiling policies (heuristic / exhaustive / manual /
// cpu-only), plan mutation + re-emission, policy sweeps through
// sim::Experiment, and the one-shot compile()'s equivalence with the
// staged build_plan + emit_stream composition.

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "src/dnn/zoo.h"
#include "src/model/lowering/pipeline.h"
#include "src/model/runner.h"
#include "src/sim/experiment.h"
#include "src/sim/plan.h"
#include "src/sim/session.h"
#include "src/soc/soc.h"

namespace gemmini {
namespace {

SocConfig test_config() {
  SocConfig cfg;
  cfg.accel.has_im2col = true;
  return cfg;
}

// ---- Plan structure ---------------------------------------------------------

TEST(Plan, RecordsEveryStageDecision) {
  sim::Session session = sim::Session::builder(test_config()).build();
  const Model m = zoo::squeezenet_v11(64);
  const sim::Plan plan = session.plan(m);

  ASSERT_EQ(plan.layers.size(), m.layers().size());
  EXPECT_EQ(plan.placement_policy, "default");
  EXPECT_EQ(plan.tiling_policy, "heuristic");
  EXPECT_EQ(plan.config, test_config().accel.name);
  EXPECT_GT(plan.weight_bytes, 0u);
  EXPECT_GT(plan.modeled_dma_bytes(), 0u);

  // The input pseudo-layer has no target; every conv is placed on the
  // accelerator with a budget-feasible tile and an allocated output.
  EXPECT_EQ(plan.layers[0].target, lowering::LayerTarget::kNone);
  const TileBudget budget = tile_budget(test_config().accel);
  unsigned matmuls = 0;
  for (const sim::PlannedLayer& l : plan.layers) {
    EXPECT_NE(l.output.va, 0u) << l.index;
    if (!l.has_matmul) continue;
    ++matmuls;
    EXPECT_EQ(l.target, lowering::LayerTarget::kAccel);
    EXPECT_GT(l.out_shift, 0u);
    EXPECT_GT(l.dma_bytes, 0u);
    EXPECT_NE(l.weights.va, 0u);
    const TileShape& t = l.matmul.tile;
    EXPECT_LE(static_cast<std::uint64_t>(t.i) * t.k, budget.max_a_blocks);
    EXPECT_LE(static_cast<std::uint64_t>(t.k) * t.j, budget.max_b_blocks);
    EXPECT_LE(static_cast<std::uint64_t>(t.i) * t.j, budget.max_c_blocks);
  }
  EXPECT_GT(matmuls, 10u);  // squeezenet: all fire-module convs + more
}

TEST(Plan, JsonIsStructured) {
  sim::Session session = sim::Session::builder(test_config()).build();
  const sim::Plan plan = session.plan(zoo::squeezenet_v11(48));
  const std::string json = plan.to_json(2);
  for (const char* key :
       {"\"model\"", "\"placement_policy\"", "\"tiling_policy\"",
        "\"layers\"", "\"tile\"", "\"out_shift\"", "\"buffers\"",
        "\"modeled_dma_bytes\"", "\"target\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Compact mode emits no newlines.
  EXPECT_EQ(plan.to_json(0).find('\n'), std::string::npos);
}

// ---- Determinism ------------------------------------------------------------

TEST(Plan, ByteIdenticalAcrossSessions) {
  const Model m = zoo::mobilenet_v2(48);
  sim::Session s1 = sim::Session::builder(test_config()).build();
  sim::Session s2 = sim::Session::builder(test_config()).build();
  EXPECT_EQ(s1.plan(m).to_json(2), s2.plan(m).to_json(2));
}

TEST(Plan, ByteIdenticalAcrossWorkerThreads) {
  // The property sim::Experiment's worker pool leans on: a plan compiled on
  // any thread (each worker with its own Session, as Sweep::run_point does)
  // is byte-identical to every other's.
  const Model m = zoo::squeezenet_v11(48);
  const unsigned kThreads = 4;
  std::vector<std::string> jsons(kThreads);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&jsons, &m, t] {
      sim::Session session = sim::Session::builder(test_config())
                                 .tiling(std::make_shared<
                                         const lowering::ExhaustiveTiling>())
                                 .build();
      jsons[t] = session.plan(m).to_json(2);
    });
  }
  for (std::thread& t : pool) t.join();
  for (unsigned t = 1; t < kThreads; ++t) {
    EXPECT_EQ(jsons[0], jsons[t]) << "thread " << t;
  }
}

TEST(Plan, FunctionalAndSeedAreRecorded) {
  sim::Session session =
      sim::Session::builder(test_config()).functional().seed(9).build();
  const sim::Plan plan = session.plan(zoo::squeezenet_v11(48));
  EXPECT_TRUE(plan.functional);
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_EQ(plan.core, 0u);
}

TEST(Plan, PerCorePlansAreValidatedAndRecorded) {
  SocConfig cfg = test_config();
  cfg.cores = 2;
  sim::Session session = sim::Session::builder(cfg).build();
  const Model m = zoo::squeezenet_v11(48);
  // Out-of-range core is rejected with the SoC named.
  EXPECT_THROW(session.plan(m, 2), RuntimeError);
  // A per-core compile record carries its core and cannot be replayed
  // standalone against core 0's page tables.
  const sim::Plan p1 = session.plan(m, 1);
  EXPECT_EQ(p1.core, 1u);
  EXPECT_NE(p1.to_json(2).find("\"core\": 1"), std::string::npos);
  EXPECT_EQ(session.plan(m, 0).core, 0u);
}

// ---- Plan-then-run == push-button run ---------------------------------------

TEST(Plan, CompiledPlanRunsIdenticallyToPushButton) {
  const Model m = zoo::squeezenet_v11(64);
  sim::Session push = sim::Session::builder(test_config()).build();
  const sim::Report direct = push.run(m);

  sim::Session staged = sim::Session::builder(test_config()).build();
  const sim::Plan plan = staged.plan(m);
  const sim::Report via_plan = staged.run(plan);
  EXPECT_EQ(direct.cycles, via_plan.cycles);
  EXPECT_EQ(direct.cycles_by_tag, via_plan.cycles_by_tag);

  // Re-running the same compiled plan stays nearly identical (the PTW's
  // PTE cache warms across runs inside one process, as with run(model)).
  const double c1 = static_cast<double>(via_plan.cycles);
  const double c2 = static_cast<double>(staged.run(plan).cycles);
  EXPECT_NEAR(c1 / c2, 1.0, 0.02);
}

// ---- Mutation ---------------------------------------------------------------

TEST(Plan, SetTileChangesEmissionDeterministically) {
  const Model m = zoo::squeezenet_v11(64);
  sim::Session session = sim::Session::builder(test_config()).build();
  sim::Plan plan = session.plan(m);
  const Cycle before = session.run(plan).cycles;

  // Find a conv with a multi-block tile and strangle it to 1x1x1.
  std::size_t victim = 0;
  for (const sim::PlannedLayer& l : plan.layers) {
    if (l.has_matmul && l.matmul.tile.i * l.matmul.tile.k * l.matmul.tile.j > 1) {
      victim = l.index;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  const std::uint64_t dma_before = plan.layers[victim].dma_bytes;
  plan.set_tile(victim, TileShape{1, 1, 1}, session.config().accel);
  EXPECT_EQ(plan.tiling_policy, "manual-edit");
  EXPECT_GE(plan.layers[victim].dma_bytes, dma_before);

  const Cycle after = session.run(plan).cycles;
  EXPECT_NE(before, after);
  EXPECT_EQ(session.run(plan).cycles, after);
}

TEST(Plan, SetTileToItsOwnTileKeepsInt4Traffic) {
  // An int4 dense layer moves its weights as packed nibbles; re-pricing the
  // layer at the tile it already has must not fall back to int8 weights.
  ModelBuilder b("int4-dense");
  b.input_matrix(4, 256);
  const int dense = b.dense(256, Activation::kNone, -1, /*int4_weights=*/true);
  sim::Session session = sim::Session::builder(test_config()).build();
  sim::Plan plan = session.plan(b.build());
  const sim::PlannedLayer& l = plan.layers[static_cast<std::size_t>(dense)];
  ASSERT_TRUE(l.has_matmul);
  const std::uint64_t dma_before = l.dma_bytes;
  plan.set_tile(l.index, l.matmul.tile, session.config().accel);
  EXPECT_EQ(l.dma_bytes, dma_before);
}

TEST(Plan, InfeasibleMutationRejectedAtEmission) {
  sim::Session session = sim::Session::builder(test_config()).build();
  sim::Plan plan = session.plan(zoo::squeezenet_v11(48));
  std::size_t victim = 0;
  for (const sim::PlannedLayer& l : plan.layers) {
    if (l.has_matmul) {
      victim = l.index;
      break;
    }
  }
  ASSERT_NE(victim, 0u);
  plan.set_tile(victim, TileShape{10000, 10000, 10000},
                session.config().accel);
  EXPECT_THROW(session.run(plan), RuntimeError);
}

// ---- Tiling policies --------------------------------------------------------

TEST(TilingPolicies, ExhaustiveNeverModelsMoreTrafficThanHeuristic) {
  const lowering::HeuristicTiling heur;
  const lowering::ExhaustiveTiling exh;
  for (const GemminiConfig& cfg :
       {GemminiConfig::paper_default(), GemminiConfig::big_sp()}) {
    for (const MatmulDims& dims :
         {MatmulDims{3136, 576, 64}, MatmulDims{64, 25088, 4096},
          MatmulDims{128, 768, 768}, MatmulDims{12544, 27, 64},
          MatmulDims{7, 9, 1}, MatmulDims{100000, 16, 16}}) {
      const std::uint64_t h =
          modeled_dma_bytes(cfg, dims, heur.choose(cfg, 0, dims));
      const std::uint64_t e =
          modeled_dma_bytes(cfg, dims, exh.choose(cfg, 0, dims));
      EXPECT_LE(e, h) << dims.m << "x" << dims.k << "x" << dims.n;
    }
  }

  // And summed over every layer of every scaled zoo model's plan.
  for (const Model& m : zoo::all_paper_models_scaled()) {
    sim::Session heur_s = sim::Session::builder(test_config()).build();
    sim::Session exh_s =
        sim::Session::builder(test_config())
            .tiling(std::make_shared<const lowering::ExhaustiveTiling>())
            .build();
    EXPECT_LE(exh_s.plan(m).modeled_dma_bytes(),
              heur_s.plan(m).modeled_dma_bytes())
        << m.name();
  }
}

TEST(TilingPolicies, ExhaustiveStaysWithinBudget) {
  const lowering::ExhaustiveTiling exh;
  const GemminiConfig cfg = GemminiConfig::paper_default();
  const TileBudget b = tile_budget(cfg);
  const TileShape t = exh.choose(cfg, 0, {100000, 100000, 100000});
  EXPECT_LE(static_cast<std::uint64_t>(t.i) * t.k, b.max_a_blocks);
  EXPECT_LE(static_cast<std::uint64_t>(t.k) * t.j, b.max_b_blocks);
  EXPECT_LE(static_cast<std::uint64_t>(t.i) * t.j, b.max_c_blocks);
}

TEST(TilingPolicies, ManualOverrideIsHonoredAndValidated) {
  const GemminiConfig cfg = GemminiConfig::paper_default();
  auto manual = std::make_shared<lowering::ManualTiling>();
  manual->set(3, TileShape{2, 2, 2});
  manual->set(4, TileShape{10000, 1, 1});  // over budget

  // Overridden layer gets exactly the manual tile...
  EXPECT_EQ(manual->choose(cfg, 3, {1000, 1000, 1000}),
            (TileShape{2, 2, 2}));
  // ...non-overridden layers fall back to the heuristic...
  EXPECT_EQ(manual->choose(cfg, 7, {1000, 1000, 1000}),
            choose_tiles(cfg, {1000, 1000, 1000}));
  // ...and infeasible overrides are rejected by the runtime budget check.
  EXPECT_THROW(manual->choose(cfg, 4, {1000, 1000, 1000}), RuntimeError);
}

TEST(TilingPolicies, ManualPolicyFlowsThroughSession) {
  const Model m = zoo::squeezenet_v11(64);
  sim::Session probe = sim::Session::builder(test_config()).build();
  const sim::Plan base = probe.plan(m);
  std::size_t victim = 0;
  for (const sim::PlannedLayer& l : base.layers) {
    if (l.has_matmul && l.matmul.tile.i * l.matmul.tile.k * l.matmul.tile.j > 1) {
      victim = l.index;
      break;
    }
  }
  ASSERT_NE(victim, 0u);

  auto manual = std::make_shared<lowering::ManualTiling>();
  manual->set(victim, TileShape{1, 1, 1});
  sim::Session session =
      sim::Session::builder(test_config()).tiling(manual).build();
  const sim::Plan plan = session.plan(m);
  EXPECT_EQ(plan.tiling_policy, "manual");
  EXPECT_EQ(plan.layers[victim].matmul.tile, (TileShape{1, 1, 1}));
  // Unoverridden layers match the heuristic baseline.
  for (const sim::PlannedLayer& l : plan.layers) {
    if (l.has_matmul && l.index != victim) {
      EXPECT_EQ(l.matmul.tile, base.layers[l.index].matmul.tile) << l.index;
    }
  }
}

// ---- Placement policies -----------------------------------------------------

TEST(PlacementPolicies, CpuOnlyRunsAndMaterializesData) {
  // The whole model on the host CPU: the Fig. 7 baseline as a runnable
  // stream. Functional mode must still produce data (reference kernels).
  SocConfig cfg = test_config();
  sim::Session session =
      sim::Session::builder(cfg)
          .functional()
          .seed(7)
          .placement(std::make_shared<const lowering::CpuOnlyPlacement>())
          .build();
  const Model m = zoo::resnet50(32);
  const sim::Report r = session.run(m);
  EXPECT_EQ(session.last_plan().placement_policy, "cpu-only");
  EXPECT_GT(r.cycles, 0u);
  // No accelerator work at all; every cycle is CPU-resident.
  EXPECT_EQ(r.per_core[0].accel.instructions, 0u);
  EXPECT_EQ(r.per_core[0].cycles, r.per_core[0].cpu_cycles);

  const std::size_t out = m.layers().size() - 1;
  std::vector<std::int8_t> logits(m.shape(out).elems());
  session.address_space().read_virt(session.last_lowered().layer_output[out],
                                    logits.data(), logits.size());
  int nonzero = 0;
  for (const auto v : logits) nonzero += (v != 0);
  EXPECT_GT(nonzero, 0);
}

TEST(PlacementPolicies, InvalidAccelPlacementIsRejected) {
  // A policy that puts a CPU-only layer kind on the accelerator fails the
  // placement stage with the layer named.
  class BadPlacement final : public lowering::PlacementPolicy {
   public:
    std::string name() const override { return "bad"; }
    lowering::LayerTarget place(const Model&, std::size_t,
                                const GemminiConfig&) const override {
      return lowering::LayerTarget::kAccel;
    }
  };
  sim::Session session = sim::Session::builder(test_config())
                             .placement(std::make_shared<const BadPlacement>())
                             .build();
  EXPECT_THROW(session.plan(zoo::bert_base(16, 1)), RuntimeError);
}

// ---- Experiment policy axes -------------------------------------------------

TEST(Experiment, TilingPoliciesExpandAsGridAxis) {
  sim::Experiment exp(test_config());
  exp.tiling_policies({std::make_shared<const lowering::HeuristicTiling>(),
                       std::make_shared<const lowering::ExhaustiveTiling>()})
      .scratchpad_sizes({128u << 10, 256u << 10})
      .model(zoo::squeezenet_v11(48));
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.points()[0].name, "sp128K-heuristic/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[1].name, "sp128K-exhaustive/squeezenet_v1.1");
  EXPECT_EQ(sweep.points()[3].name, "sp256K-exhaustive/squeezenet_v1.1");
  EXPECT_NE(sweep.points()[1].options.tiling, nullptr);
}

TEST(Experiment, PolicySweepIsParallelDeterministic) {
  // Policies are shared across the worker pool; the byte-identical-reports
  // guarantee must survive a policy axis.
  sim::Experiment exp(test_config());
  exp.tiling_policies({std::make_shared<const lowering::HeuristicTiling>(),
                       std::make_shared<const lowering::ExhaustiveTiling>()})
      .models({zoo::squeezenet_v11(48), zoo::mobilenet_v2(48)});
  const sim::Sweep sweep = exp.sweep();
  ASSERT_EQ(sweep.size(), 4u);
  const auto serial = sweep.run({.threads = 1});
  const auto parallel = sweep.run({.threads = 4});
  EXPECT_EQ(sim::reports_to_json(serial, 2),
            sim::reports_to_json(parallel, 2));
  // The exhaustive policy is actually doing something on this grid.
  EXPECT_NE(serial[0].cycles, serial[1].cycles);
}

// ---- one-shot compile vs staged composition --------------------------------

TEST(PipelineCompile, MatchesStagedBuildPlanPlusEmission) {
  // The one-shot compile() entry point must be exactly build_plan followed
  // by emit_stream — identical stream, layout, and layer stamps.
  const SocConfig cfg = test_config();
  const Model m = zoo::squeezenet_v11(48);

  Soc soc_a(cfg), soc_b(cfg);
  const LoweredModel one_shot =
      lowering::compile(m, cfg.accel, cfg.cpu, soc_a.address_space(0), {});
  const sim::Plan plan =
      lowering::build_plan(m, cfg.accel, soc_b.address_space(0), {});
  const LoweredModel staged = lowering::emit_stream(plan, cfg.accel, cfg.cpu);

  EXPECT_EQ(one_shot.layer_output, staged.layer_output);
  EXPECT_EQ(one_shot.layer_bytes, staged.layer_bytes);
  EXPECT_EQ(one_shot.weight_bytes, staged.weight_bytes);
  ASSERT_EQ(one_shot.stream.steps.size(), staged.stream.steps.size());
  EXPECT_EQ(one_shot.stream.total_instructions(),
            staged.stream.total_instructions());
  for (std::size_t i = 0; i < one_shot.stream.steps.size(); ++i) {
    EXPECT_EQ(one_shot.stream.steps[i].tag, staged.stream.steps[i].tag);
    EXPECT_EQ(one_shot.stream.steps[i].layer, staged.stream.steps[i].layer);
    EXPECT_EQ(one_shot.stream.steps[i].cpu_cycles,
              staged.stream.steps[i].cpu_cycles);
    EXPECT_EQ(one_shot.stream.steps[i].program.size(),
              staged.stream.steps[i].program.size());
  }
}

}  // namespace
}  // namespace gemmini
