//===- tests/ir/SsaTest.cpp - SSA construction tests ----------------------===//
//
// Part of the Layra project, under the Apache License v2.0.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/SsaBuilder.h"

#include "IrTestHelpers.h"
#include "graph/Chordal.h"
#include "ir/Interference.h"
#include "ir/Liveness.h"
#include "ir/ProgramGen.h"
#include "ir/Target.h"

#include <gtest/gtest.h>

using namespace layra;
using namespace layra::irtest;

TEST(SsaTest, StraightLineNeedsNoPhis) {
  Function F("f");
  BlockId B = F.makeBlock();
  ValueId A = F.makeValue("a");
  op(F, B, A);
  op(F, B, A, {A}); // Redefinition.
  ret(F, B, {A});

  SsaConversion Conv = convertToSsa(F);
  EXPECT_EQ(Conv.NumPhis, 0u);
  EXPECT_TRUE(verifyFunction(Conv.Ssa, /*ExpectSsa=*/true));
  // The two defs of a became two values mapping back to a.
  EXPECT_EQ(Conv.Ssa.numValues(), 2u);
  EXPECT_EQ(Conv.OriginalOf[0], A);
  EXPECT_EQ(Conv.OriginalOf[1], A);
}

TEST(SsaTest, DiamondRedefinitionInsertsOnePhi) {
  // x defined in both arms, used at the merge: exactly one phi at merge.
  Function F("f");
  BlockId Entry = F.makeBlock(), Left = F.makeBlock(),
          Right = F.makeBlock(), Merge = F.makeBlock();
  ValueId C = F.makeValue("c"), X = F.makeValue("x");
  op(F, Entry, C);
  br(F, Entry, C);
  op(F, Left, X, {C});
  br(F, Left, C);
  op(F, Right, X, {C});
  br(F, Right, C);
  ret(F, Merge, {X});
  F.addEdge(Entry, Left);
  F.addEdge(Entry, Right);
  F.addEdge(Left, Merge);
  F.addEdge(Right, Merge);

  SsaConversion Conv = convertToSsa(F);
  EXPECT_EQ(Conv.NumPhis, 1u);
  EXPECT_TRUE(verifyFunction(Conv.Ssa, /*ExpectSsa=*/true));
  const Instruction &Phi = Conv.Ssa.block(Merge).Instrs.front();
  ASSERT_TRUE(Phi.isPhi());
  ASSERT_EQ(Phi.Uses.size(), 2u);
  EXPECT_NE(Phi.Uses[0], Phi.Uses[1]);
  // All phi inputs rename x.
  EXPECT_EQ(Conv.OriginalOf[Phi.Uses[0]], X);
  EXPECT_EQ(Conv.OriginalOf[Phi.Uses[1]], X);
}

TEST(SsaTest, PrunedSsaSkipsDeadPhis) {
  // x redefined in both arms but never used after the merge: no phi.
  Function F("f");
  BlockId Entry = F.makeBlock(), Left = F.makeBlock(),
          Right = F.makeBlock(), Merge = F.makeBlock();
  ValueId C = F.makeValue("c"), X = F.makeValue("x");
  op(F, Entry, C);
  br(F, Entry, C);
  op(F, Left, X, {C});
  br(F, Left, C);
  op(F, Right, X, {C});
  br(F, Right, C);
  ret(F, Merge, {C});
  F.addEdge(Entry, Left);
  F.addEdge(Entry, Right);
  F.addEdge(Left, Merge);
  F.addEdge(Right, Merge);

  SsaConversion Conv = convertToSsa(F);
  EXPECT_EQ(Conv.NumPhis, 0u);
}

TEST(SsaTest, LoopVariableGetsHeaderPhi) {
  // do { i = op i } while (...): i needs a phi at the loop header.
  Function F("f");
  BlockId Entry = F.makeBlock(), Body = F.makeBlock(), Exit = F.makeBlock();
  ValueId I = F.makeValue("i");
  op(F, Entry, I);
  br(F, Entry, I);
  op(F, Body, I, {I});
  br(F, Body, I);
  ret(F, Exit, {I});
  F.addEdge(Entry, Body);
  F.addEdge(Body, Body);
  F.addEdge(Body, Exit);

  SsaConversion Conv = convertToSsa(F);
  EXPECT_EQ(Conv.NumPhis, 1u);
  EXPECT_TRUE(verifyFunction(Conv.Ssa, /*ExpectSsa=*/true));
  EXPECT_TRUE(Conv.Ssa.block(Body).Instrs.front().isPhi());
}

TEST(SsaTest, GeneratedProgramsConvertToValidSsa) {
  Rng R(1234);
  for (int Round = 0; Round < 25; ++Round) {
    ProgramGenOptions Opt;
    Opt.NumVars = 6 + static_cast<unsigned>(R.nextBelow(20));
    Opt.MaxBlocks = 8 + static_cast<unsigned>(R.nextBelow(40));
    Function F = generateFunction(R, Opt);
    SsaConversion Conv = convertToSsa(F);
    std::string Error;
    EXPECT_TRUE(verifyFunction(Conv.Ssa, /*ExpectSsa=*/true, &Error))
        << "round " << Round << ": " << Error;
    // Every SSA value renames exactly one def of the original function.
    unsigned NumDefs = 0;
    for (BlockId B = 0; B < F.numBlocks(); ++B)
      for (const Instruction &I : F.block(B).Instrs)
        NumDefs += static_cast<unsigned>(I.Defs.size());
    EXPECT_EQ(Conv.Ssa.numValues(), NumDefs + Conv.NumPhis);
  }
}

TEST(SsaTest, SsaInterferenceGraphsAreChordal) {
  // The paper's foundational fact (§3.2): interference graphs of strict SSA
  // programs are chordal.  Exercise it over many random programs.
  Rng R(5678);
  unsigned TotalVertices = 0;
  for (int Round = 0; Round < 25; ++Round) {
    ProgramGenOptions Opt;
    Opt.NumVars = 6 + static_cast<unsigned>(R.nextBelow(18));
    Opt.MaxBlocks = 8 + static_cast<unsigned>(R.nextBelow(32));
    Function F = generateFunction(R, Opt);
    SsaConversion Conv = convertToSsa(F);
    Liveness Live(Conv.Ssa);
    std::vector<Weight> Costs = computeSpillCosts(Conv.Ssa, ST231);
    InterferenceInfo Info = buildInterference(Conv.Ssa, Live, Costs);
    EXPECT_TRUE(isChordal(Info.G)) << "round " << Round;
    TotalVertices += Info.G.numVertices();
  }
  EXPECT_GT(TotalVertices, 500u) << "instances too small to be meaningful";
}

TEST(SsaTest, OriginalOfMapsEveryNewValue) {
  Rng R(999);
  ProgramGenOptions Opt;
  Function F = generateFunction(R, Opt);
  SsaConversion Conv = convertToSsa(F);
  ASSERT_EQ(Conv.OriginalOf.size(), Conv.Ssa.numValues());
  for (ValueId V : Conv.OriginalOf)
    EXPECT_LT(V, F.numValues());
}

TEST(SsaTest, PhiBearingInputComesBackUnchanged) {
  // Already-SSA input with a loop-carried phi: entry defines i0, the loop
  // header merges i0 with the back-edge value i2.  A second renaming would
  // read the back-edge operand with the header's own reaching definitions.
  Function F("f");
  BlockId Entry = F.makeBlock(), Loop = F.makeBlock(), Exit = F.makeBlock();
  F.addEdge(Entry, Loop);
  F.addEdge(Loop, Loop);
  F.addEdge(Loop, Exit);
  ValueId I0 = F.makeValue("i0"), I = F.makeValue("i"),
          I2 = F.makeValue("i2");
  op(F, Entry, I0);
  br(F, Entry, I0);
  phi(F, Loop, I, {I0, I2});
  op(F, Loop, I2, {I});
  br(F, Loop, I2);
  ret(F, Exit, {I});
  ASSERT_TRUE(verifyFunction(F, /*ExpectSsa=*/true));

  SsaConversion Conv = convertToSsa(F);
  EXPECT_EQ(Conv.Ssa.toString(), F.toString());
  EXPECT_EQ(Conv.NumPhis, 0u);
  const Instruction &Phi = Conv.Ssa.block(Loop).Instrs.front();
  ASSERT_TRUE(Phi.isPhi());
  EXPECT_EQ(Phi.Uses, (std::vector<ValueId>{I0, I2}));
  ASSERT_EQ(Conv.OriginalOf.size(), F.numValues());
  for (ValueId V = 0; V < F.numValues(); ++V)
    EXPECT_EQ(Conv.OriginalOf[V], V);
}
