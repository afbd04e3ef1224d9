#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hls/hls_flow.h"
#include "progen/progen.h"

namespace gnnhls {
namespace {

LoweredProgram mac_program() {
  Function f;
  f.name = "mac";
  f.params.push_back(Param{"a", ScalarType{32, true}, 0, false});
  f.params.push_back(Param{"b", ScalarType{32, true}, 0, false});
  f.body.push_back(decl("t", ScalarType{32, true},
                        bin(BinOpKind::kMul, var("a"), var("b"))));
  f.body.push_back(decl("u", ScalarType{32, true},
                        bin(BinOpKind::kAdd, var("t"), lit(5))));
  f.body.push_back(ret(var("u")));
  return lower_to_dfg(f);
}

/// The hand-built mac_program plus seeded progen DFG and CDFG programs: the
/// inputs of the scheduler property tests.
std::vector<LoweredProgram> property_programs() {
  std::vector<LoweredProgram> programs;
  programs.push_back(mac_program());
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    programs.push_back(lower_to_dfg(generate_dfg_program(seed)));
    programs.push_back(lower_to_cdfg(generate_cdfg_program(seed)));
  }
  return programs;
}

// ----- resource library -----

TEST(ResourceModelTest, WideMulUsesDspNarrowUsesLut) {
  ResourceLibrary lib;
  const OpCost wide = lib.cost(Opcode::kMul, 32);
  EXPECT_GT(wide.dsp, 0.0);
  EXPECT_TRUE(wide.sharable);
  const OpCost narrow = lib.cost(Opcode::kMul, 8);
  EXPECT_EQ(narrow.dsp, 0.0);
  EXPECT_GT(narrow.lut, 0.0);
}

TEST(ResourceModelTest, DivisionPrefersLuts) {
  // Paper §5.2: "divisions and bitwise operations prefer LUTs".
  ResourceLibrary lib;
  const OpCost div = lib.cost(Opcode::kSDiv, 32);
  EXPECT_EQ(div.dsp, 0.0);
  EXPECT_GT(div.lut, 50.0);
  EXPECT_GT(div.latency, 10);
}

TEST(ResourceModelTest, ConstantShiftIsFree) {
  ResourceLibrary lib;
  const OpCost var_shift = lib.cost(Opcode::kShl, 32, /*const_shift=*/false);
  const OpCost const_shift = lib.cost(Opcode::kShl, 32, /*const_shift=*/true);
  EXPECT_GT(var_shift.lut, 0.0);
  EXPECT_EQ(const_shift.lut, 0.0);
}

class ResourceMonotonicityTest : public ::testing::TestWithParam<Opcode> {};

TEST_P(ResourceMonotonicityTest, CostsNondecreasingInBitwidth) {
  ResourceLibrary lib;
  const Opcode op = GetParam();
  double prev_weight = -1.0;
  for (int w : {4, 8, 16, 32, 64, 128}) {
    const OpCost c = lib.cost(op, w);
    const double weight = c.dsp * 100.0 + c.lut + c.ff;
    EXPECT_GE(weight, prev_weight) << opcode_name(op) << " at width " << w;
    prev_weight = weight;
  }
}

INSTANTIATE_TEST_SUITE_P(
    DatapathOps, ResourceMonotonicityTest,
    ::testing::Values(Opcode::kAdd, Opcode::kMul, Opcode::kSDiv, Opcode::kAnd,
                      Opcode::kXor, Opcode::kICmp, Opcode::kSelect,
                      Opcode::kLoad, Opcode::kStore),
    [](const ::testing::TestParamInfo<Opcode>& info) {
      return std::string(opcode_name(info.param));
    });

TEST(ResourceModelTest, MuxCostGrowsWithSources) {
  ResourceLibrary lib;
  EXPECT_EQ(lib.sharing_mux_lut(32, 1), 0.0);
  EXPECT_LT(lib.sharing_mux_lut(32, 2), lib.sharing_mux_lut(32, 8));
}

// ----- scheduler -----

TEST(SchedulerTest, DependenciesNeverViolated) {
  ResourceLibrary lib;
  for (const LoweredProgram& p : property_programs()) {
    SCOPED_TRACE(p.graph.name());
    const ProgramSchedule ps = schedule_program(p, lib, HlsConfig{});
    // Cycles count from each block's entry, so only an edge within one
    // block orders its two ends.
    std::map<int, std::pair<int, const OpSchedule*>> sched;
    for (const auto& bs : ps.blocks) {
      for (const auto& os : bs.ops) sched[os.node] = {bs.block_id, &os};
    }
    for (const auto& e : p.graph.edges()) {
      if (e.is_back_edge || e.type == EdgeType::kControl) continue;
      const auto s = sched.find(e.src);
      const auto d = sched.find(e.dst);
      if (s == sched.end() || d == sched.end()) continue;
      if (s->second.first != d->second.first) continue;
      EXPECT_LE(s->second.second->end_cycle, d->second.second->start_cycle)
          << "edge " << e.src << "->" << e.dst;
    }
  }
}

TEST(SchedulerTest, TightClockIncreasesStates) {
  ResourceLibrary lib;
  for (const LoweredProgram& p : property_programs()) {
    SCOPED_TRACE(p.graph.name());
    const ProgramSchedule fast =
        schedule_program(p, lib, HlsConfig{.clock_ns = 20.0});
    const ProgramSchedule slow =
        schedule_program(p, lib, HlsConfig{.clock_ns = 3.2});
    EXPECT_GE(slow.total_states, fast.total_states);
  }
}

TEST(SchedulerTest, ChainNeverExceedsBudgetWhenSplittable) {
  // A chain of many small adds must be split across states so no state's
  // chain exceeds the effective budget (single ops may still exceed it).
  Function f;
  f.params.push_back(Param{"a", ScalarType{32, true}, 0, false});
  std::string prev = "a";
  for (int i = 0; i < 30; ++i) {
    const std::string name = "t" + std::to_string(i);
    f.body.push_back(decl(name, ScalarType{32, true},
                          bin(BinOpKind::kAdd, var(prev), lit(i + 1))));
    prev = name;
  }
  f.body.push_back(ret(var(prev)));
  LoweredProgram p = lower_to_dfg(f);
  ResourceLibrary lib;
  const HlsConfig cfg{.clock_ns = 6.0};
  const ProgramSchedule ps = schedule_program(p, lib, cfg);
  const double budget = cfg.clock_ns * (1.0 - cfg.clock_uncertainty);
  EXPECT_LE(ps.max_chain_ns, budget + 1e-9);
  EXPECT_GT(ps.total_states, 1);
  EXPECT_GT(ps.total_register_ff, 0.0);
}

TEST(SchedulerTest, MultiCycleOpsRegisterOutputs) {
  LoweredProgram p = mac_program();
  ResourceLibrary lib;
  const ProgramSchedule ps = schedule_program(p, lib, HlsConfig{});
  bool saw_multicycle = false;
  for (const auto& bs : ps.blocks) {
    for (const auto& os : bs.ops) {
      if (p.graph.node(os.node).opcode == Opcode::kMul) {
        EXPECT_GT(os.end_cycle, os.start_cycle);
        EXPECT_TRUE(os.registered);
        saw_multicycle = true;
      }
    }
  }
  EXPECT_TRUE(saw_multicycle);
}

TEST(SchedulerTest, ConstShiftDetection) {
  Function f;
  f.params.push_back(Param{"a", ScalarType{32, true}, 0, false});
  f.body.push_back(decl("x", ScalarType{32, true},
                        bin(BinOpKind::kShl, var("a"), lit(3))));
  f.body.push_back(decl("y", ScalarType{32, true},
                        bin(BinOpKind::kShr, var("a"), var("x"))));
  f.body.push_back(ret(var("y")));
  const LoweredProgram p = lower_to_dfg(f);
  int const_shifts = 0, var_shifts = 0;
  for (int i = 0; i < p.graph.num_nodes(); ++i) {
    const Opcode op = p.graph.node(i).opcode;
    if (op == Opcode::kShl || op == Opcode::kAShr) {
      (has_constant_shift_amount(p.graph, i) ? const_shifts : var_shifts)++;
    }
  }
  EXPECT_EQ(const_shifts, 1);
  EXPECT_EQ(var_shifts, 1);
}

// ----- full flow -----

TEST(HlsFlowTest, DeterministicAcrossRuns) {
  LoweredProgram p1 = mac_program();
  LoweredProgram p2 = mac_program();
  const HlsOutcome a = run_hls_flow(p1);
  const HlsOutcome b = run_hls_flow(p2);
  EXPECT_EQ(a.implemented.dsp, b.implemented.dsp);
  EXPECT_EQ(a.implemented.lut, b.implemented.lut);
  EXPECT_EQ(a.implemented.ff, b.implemented.ff);
  EXPECT_EQ(a.implemented.cp_ns, b.implemented.cp_ns);
}

TEST(HlsFlowTest, AnnotatesNodeResources) {
  LoweredProgram p = mac_program();
  run_hls_flow(p);
  bool mul_uses_dsp = false, add_uses_lut = false;
  for (const auto& n : p.graph.nodes()) {
    if (n.opcode == Opcode::kMul && n.resource.uses_dsp) mul_uses_dsp = true;
    if (n.opcode == Opcode::kAdd && n.resource.uses_lut) add_uses_lut = true;
    if (n.opcode == Opcode::kConst) {
      EXPECT_FALSE(n.resource.uses_dsp || n.resource.uses_lut ||
                   n.resource.uses_ff);
    }
  }
  EXPECT_TRUE(mul_uses_dsp);
  EXPECT_TRUE(add_uses_lut);
}

TEST(HlsFlowTest, ImplementationIncludesControlOverhead) {
  LoweredProgram p = mac_program();
  const HlsOutcome o = run_hls_flow(p);
  // FSM logic means LUT > pure datapath sum of the two ops.
  EXPECT_GT(o.implemented.lut, 0.0);
  EXPECT_GT(o.implemented.ff, 0.0);
  EXPECT_GT(o.implemented.cp_ns, 0.0);
  EXPECT_GT(o.implemented.dsp, 0.0);  // 32-bit mul
}

TEST(HlsFlowTest, ReportDivergesFromImplementationLikeVitis) {
  // Run on a loop-heavy synthetic program where sharing matters.
  Function f = generate_cdfg_program(7);
  LoweredProgram p = lower_to_cdfg(f);
  const HlsOutcome o = run_hls_flow(p);
  // Report overestimates LUT/FF (no sharing, no optimization).
  EXPECT_GT(o.reported.lut, o.implemented.lut);
  EXPECT_GT(o.reported.ff, 0.0);
  // Report claims timing ~ at the clock target.
  EXPECT_NEAR(o.reported.cp_ns, 8.575, 0.1);
}

TEST(HlsFlowTest, SharingReducesDspVersusReport) {
  // Many 32-bit multiplies in different loop iterations share DSPs in the
  // implementation but are fully counted by the report.
  Function f;
  f.params.push_back(Param{"a", ScalarType{32, true}, 0, false});
  f.body.push_back(decl("acc", ScalarType{32, true}, lit(0)));
  std::vector<StmtPtr> body;
  body.push_back(decl("p", ScalarType{32, true},
                      bin(BinOpKind::kMul, var("acc"), var("a"))));
  body.push_back(decl("q", ScalarType{32, true},
                      bin(BinOpKind::kMul, var("p"), lit(17))));
  body.push_back(assign("acc", bin(BinOpKind::kAdd, var("p"), var("q"))));
  f.body.push_back(for_stmt("i", 0, 16, 1, std::move(body)));
  f.body.push_back(ret(var("acc")));
  LoweredProgram p = lower_to_cdfg(f);
  const HlsOutcome o = run_hls_flow(p);
  EXPECT_GT(o.implemented.dsp, 0.0);
  EXPECT_LE(o.implemented.dsp, o.reported.dsp);
}

TEST(HlsFlowTest, BiggerProgramsUseMoreResources) {
  ProgenConfig small_cfg;
  small_cfg.min_ops = 8;
  small_cfg.max_ops = 12;
  ProgenConfig big_cfg;
  big_cfg.min_ops = 80;
  big_cfg.max_ops = 90;
  LoweredProgram small_p = lower_to_dfg(generate_dfg_program(3, small_cfg));
  LoweredProgram big_p = lower_to_dfg(generate_dfg_program(3, big_cfg));
  const HlsOutcome s = run_hls_flow(small_p);
  const HlsOutcome b = run_hls_flow(big_p);
  EXPECT_GT(b.implemented.lut, s.implemented.lut);
}

}  // namespace
}  // namespace gnnhls
