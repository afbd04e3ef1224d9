// CHStone-style kernels (Hara et al., JIP'09): 10 application programs used
// for C-based HLS evaluation. Integer mini versions with the original
// control/data motifs (codec quantizers, crypto rounds, soft-float
// arithmetic, a processor ALU).
#include "suites/suites.h"

#include "suites/dsl.h"

namespace gnnhls {

namespace {

using namespace suite_dsl;  // NOLINT(google-build-using-namespace)

Function ch_adpcm() {
  constexpr long n = 16;
  Function f;
  f.name = "adpcm";
  f.params = {in_array("samples", n), in_scalar("step0")};
  f.body.push_back(decl_array("encoded", ScalarType{32, true}, n));
  f.body.push_back(decl("valpred", ScalarType{32, true}, lit(0)));
  f.body.push_back(decl("step", ScalarType{32, true}, var("step0")));
  f.body.push_back(loop(
      "i", n,
      stmts(
          decl("diff", ScalarType{32, true},
               A("samples", var("i")) - var("valpred")),
          decl("sign", ScalarType{32, true},
               select(lt(var("diff"), lit(0)), lit(8), lit(0))),
          decl("absdiff", ScalarType{32, true},
               select(lt(var("diff"), lit(0)), lit(0) - var("diff"),
                      var("diff"))),
          decl("delta", ScalarType{32, true},
               (var("absdiff") << lit(2)) / (var("step") | lit(1))),
          decl("clamped", ScalarType{32, true},
               select(gt(var("delta"), lit(7)), lit(7), var("delta"))),
          assign("valpred",
                 var("valpred") +
                     select(gt(var("sign"), lit(0)),
                            lit(0) - (var("clamped") * var("step") >> lit(2)),
                            var("clamped") * var("step") >> lit(2))),
          assign("step",
                 (var("step") * (lit(8) + var("clamped"))) >> lit(3)),
          assign_array("encoded", var("i"),
                       var("sign") | var("clamped")))));
  f.body.push_back(ret(A("encoded", lit(0)) + var("valpred")));
  return f;
}

Function ch_aes_round() {
  Function f;
  f.name = "aes";
  f.params = {in_array("state", 16), in_array("key", 16),
              in_array("sbox", 256)};
  f.body.push_back(decl_array("next", ScalarType{8, true}, 16));
  f.body.push_back(loop(
      "r", 4,  // rounds
      stmts(loop("i", 16,
                 stmts(assign_array(
                     "next", var("i"),
                     A("sbox", (A("state", var("i")) ^ A("key", var("i"))) &
                                   lit(255))))),
            loop("c", 4,
                 stmts(decl("a0", ScalarType{8, true},
                            A("next", var("c") * lit(4))),
                       decl("a1", ScalarType{8, true},
                            A("next", var("c") * lit(4) + lit(1))),
                       decl("a2", ScalarType{8, true},
                            A("next", var("c") * lit(4) + lit(2))),
                       decl("a3", ScalarType{8, true},
                            A("next", var("c") * lit(4) + lit(3))),
                       assign_array("state", var("c") * lit(4),
                                    var("a0") ^ var("a1") ^
                                        ((var("a2") << lit(1)) & lit(255))),
                       assign_array("state", var("c") * lit(4) + lit(1),
                                    var("a1") ^ var("a2") ^
                                        ((var("a3") << lit(1)) & lit(255))),
                       assign_array("state", var("c") * lit(4) + lit(2),
                                    var("a2") ^ var("a3") ^
                                        ((var("a0") << lit(1)) & lit(255))),
                       assign_array("state", var("c") * lit(4) + lit(3),
                                    var("a3") ^ var("a0") ^
                                        ((var("a1") << lit(1)) &
                                         lit(255))))))));
  f.body.push_back(ret(A("state", lit(0))));
  return f;
}

Function ch_blowfish() {
  constexpr long rounds = 8;
  Function f;
  f.name = "blowfish";
  f.params = {in_scalar("xl0"), in_scalar("xr0"), in_array("p_box", rounds + 2),
              in_array("s_box", 64)};
  f.body.push_back(decl("xl", ScalarType{32, true}, var("xl0")));
  f.body.push_back(decl("xr", ScalarType{32, true}, var("xr0")));
  f.body.push_back(loop(
      "r", rounds,
      stmts(assign("xl", var("xl") ^ A("p_box", var("r"))),
            decl("a", ScalarType{32, true}, (var("xl") >> lit(24)) & lit(63)),
            decl("b", ScalarType{32, true}, (var("xl") >> lit(16)) & lit(63)),
            decl("c", ScalarType{32, true}, (var("xl") >> lit(8)) & lit(63)),
            decl("d", ScalarType{32, true}, var("xl") & lit(63)),
            decl("feistel", ScalarType{32, true},
                 ((A("s_box", var("a")) + A("s_box", var("b"))) ^
                  A("s_box", var("c"))) +
                     A("s_box", var("d"))),
            assign("xr", var("xr") ^ var("feistel")),
            // swap halves
            decl("tmp_sw", ScalarType{32, true}, var("xl")),
            assign("xl", var("xr")), assign("xr", var("tmp_sw")))));
  f.body.push_back(ret(var("xl") ^ var("xr")));
  return f;
}

Function ch_gsm_lpc() {
  constexpr long n = 16, lags = 4;
  Function f;
  f.name = "gsm";
  f.params = {in_array("s", n)};
  f.body.push_back(decl_array("acf", ScalarType{32, true}, lags));
  // Autocorrelation.
  f.body.push_back(loop(
      "k", lags,
      stmts(decl("sum", ScalarType{32, true}, lit(0)),
            loop("i", n - lags,
                 stmts(assign("sum",
                              var("sum") + A("s", var("i")) *
                                               A("s", (var("i") + var("k")) &
                                                          lit(n - 1))))),
            assign_array("acf", var("k"), var("sum")))));
  // Normalization by acf[0] (division-heavy, like the reflection pass).
  f.body.push_back(decl_array("refl", ScalarType{32, true}, lags));
  f.body.push_back(loop(
      "k2", lags,
      stmts(assign_array("refl", var("k2"),
                         (A("acf", var("k2")) << lit(8)) /
                             (A("acf", lit(0)) | lit(1))))));
  f.body.push_back(ret(A("refl", lit(lags - 1))));
  return f;
}

Function ch_jpeg_dct() {
  Function f;
  f.name = "jpeg";
  f.params = {in_array("block", 64)};
  f.body.push_back(decl_array("coef", ScalarType{32, true}, 64));
  // Row-wise 8-point DCT butterflies with fixed-point constant multipliers.
  f.body.push_back(loop(
      "r", 8,
      stmts(
          decl("s0", ScalarType{32, true},
               A("block", var("r") * lit(8)) +
                   A("block", var("r") * lit(8) + lit(7))),
          decl("s1", ScalarType{32, true},
               A("block", var("r") * lit(8) + lit(1)) +
                   A("block", var("r") * lit(8) + lit(6))),
          decl("s2", ScalarType{32, true},
               A("block", var("r") * lit(8) + lit(2)) +
                   A("block", var("r") * lit(8) + lit(5))),
          decl("s3", ScalarType{32, true},
               A("block", var("r") * lit(8) + lit(3)) +
                   A("block", var("r") * lit(8) + lit(4))),
          decl("d0", ScalarType{32, true},
               A("block", var("r") * lit(8)) -
                   A("block", var("r") * lit(8) + lit(7))),
          decl("d1", ScalarType{32, true},
               A("block", var("r") * lit(8) + lit(1)) -
                   A("block", var("r") * lit(8) + lit(6))),
          assign_array("coef", var("r") * lit(8),
                       var("s0") + var("s1") + var("s2") + var("s3")),
          assign_array("coef", var("r") * lit(8) + lit(4),
                       var("s0") - var("s3") + var("s1") - var("s2")),
          assign_array("coef", var("r") * lit(8) + lit(2),
                       ((var("s0") - var("s3")) * lit(277) +
                        (var("s1") - var("s2")) * lit(669)) >>
                           lit(9)),
          assign_array("coef", var("r") * lit(8) + lit(1),
                       (var("d0") * lit(502) + var("d1") * lit(426)) >>
                           lit(9)))));
  f.body.push_back(ret(A("coef", lit(0))));
  return f;
}

Function ch_mips() {
  constexpr long steps = 16;
  Function f;
  f.name = "mips";
  f.params = {in_array("imem", steps), in_array("reg_init", 8)};
  f.body.push_back(decl_array("regs", ScalarType{32, true}, 8));
  f.body.push_back(loop(
      "r0", 8, stmts(assign_array("regs", var("r0"),
                                  A("reg_init", var("r0"))))));
  f.body.push_back(loop(
      "pc", steps,
      stmts(
          decl("inst", ScalarType{32, true}, A("imem", var("pc"))),
          decl("op", ScalarType{32, true}, (var("inst") >> lit(9)) & lit(7)),
          decl("rs", ScalarType{32, true}, (var("inst") >> lit(6)) & lit(7)),
          decl("rt", ScalarType{32, true}, (var("inst") >> lit(3)) & lit(7)),
          decl("rd", ScalarType{32, true}, var("inst") & lit(7)),
          decl("va", ScalarType{32, true}, A("regs", var("rs"))),
          decl("vb", ScalarType{32, true}, A("regs", var("rt"))),
          decl("alu", ScalarType{32, true}, lit(0)),
          if_stmt(eq(var("op"), lit(0)),
                  stmts(assign("alu", var("va") + var("vb"))),
                  stmts(if_stmt(
                      eq(var("op"), lit(1)),
                      stmts(assign("alu", var("va") - var("vb"))),
                      stmts(if_stmt(
                          eq(var("op"), lit(2)),
                          stmts(assign("alu", var("va") & var("vb"))),
                          stmts(if_stmt(
                              eq(var("op"), lit(3)),
                              stmts(assign("alu", var("va") | var("vb"))),
                              stmts(if_stmt(
                                  eq(var("op"), lit(4)),
                                  stmts(assign("alu",
                                               var("va") ^ var("vb"))),
                                  stmts(assign(
                                      "alu",
                                      select(lt(var("va"), var("vb")),
                                             lit(1), lit(0))))))))))))),
          assign_array("regs", var("rd"), var("alu")))));
  f.body.push_back(ret(A("regs", lit(7))));
  return f;
}

Function ch_motion() {
  constexpr long block = 4, search = 4;
  Function f;
  f.name = "motion";
  f.params = {in_array("ref", 64), in_array("cur", block * block)};
  f.body.push_back(decl("best_sad", ScalarType{32, true}, lit(1 << 20)));
  f.body.push_back(decl("best_pos", ScalarType{32, true}, lit(0)));
  f.body.push_back(loop(
      "p", search * search,
      stmts(
          decl("sad", ScalarType{32, true}, lit(0)),
          loop("y", block,
               stmts(loop(
                   "x", block,
                   stmts(decl("dpix", ScalarType{32, true},
                              A("cur", idx2("y", "x", block)) -
                                  A("ref", (var("p") + var("y") * lit(8) +
                                            var("x")) &
                                               lit(63))),
                         assign("sad",
                                var("sad") +
                                    select(lt(var("dpix"), lit(0)),
                                           lit(0) - var("dpix"),
                                           var("dpix"))))))),
          if_stmt(lt(var("sad"), var("best_sad")),
                  stmts(assign("best_sad", var("sad")),
                        assign("best_pos", var("p")))))));
  f.body.push_back(ret(var("best_pos") + var("best_sad")));
  return f;
}

Function ch_sha() {
  constexpr long words = 16, rounds = 16;
  Function f;
  f.name = "sha";
  f.params = {in_array("w", words)};
  f.body.push_back(decl("a", ScalarType{32, true}, lit(0x6745)));
  f.body.push_back(decl("b", ScalarType{32, true}, lit(0xefcd)));
  f.body.push_back(decl("c", ScalarType{32, true}, lit(0x98ba)));
  f.body.push_back(decl("d", ScalarType{32, true}, lit(0x1032)));
  f.body.push_back(decl("e", ScalarType{32, true}, lit(0xc3d2)));
  f.body.push_back(loop(
      "t", rounds,
      stmts(
          // rotl5(a) + f(b,c,d) + e + w[t]
          decl("rot", ScalarType{32, true},
               ((var("a") << lit(5)) | (var("a") >> lit(27)))),
          decl("fbcd", ScalarType{32, true},
               (var("b") & var("c")) | ((var("b") ^ lit(-1)) & var("d"))),
          decl("tempv", ScalarType{32, true},
               var("rot") + var("fbcd") + var("e") +
                   A("w", var("t") & lit(words - 1)) + lit(0x5a82)),
          assign("e", var("d")), assign("d", var("c")),
          assign("c", (var("b") << lit(30)) | (var("b") >> lit(2))),
          assign("b", var("a")), assign("a", var("tempv")))));
  f.body.push_back(ret(var("a") ^ var("b") ^ var("c") ^ var("d") ^ var("e")));
  return f;
}

Function ch_dfadd() {
  Function f;
  f.name = "dfadd";
  f.params = {in_scalar("a_mant", 64), in_scalar("a_exp"),
              in_scalar("b_mant", 64), in_scalar("b_exp")};
  // Soft-float addition: align mantissas, add, renormalize.
  f.body.push_back(decl("exp_diff", ScalarType{32, true},
                        var("a_exp") - var("b_exp")));
  f.body.push_back(decl("shift", ScalarType{32, true},
                        select(lt(var("exp_diff"), lit(0)),
                               lit(0) - var("exp_diff"), var("exp_diff"))));
  f.body.push_back(decl("shift_clamped", ScalarType{32, true},
                        select(gt(var("shift"), lit(52)), lit(52),
                               var("shift"))));
  f.body.push_back(decl(
      "b_aligned", ScalarType{64, true},
      select(gt(var("exp_diff"), lit(0)),
             cast(var("b_mant"), 64) >> var("shift_clamped"),
             cast(var("b_mant"), 64))));
  f.body.push_back(decl(
      "a_aligned", ScalarType{64, true},
      select(lt(var("exp_diff"), lit(0)),
             cast(var("a_mant"), 64) >> var("shift_clamped"),
             cast(var("a_mant"), 64))));
  f.body.push_back(decl("sum", ScalarType{64, true},
                        var("a_aligned") + var("b_aligned")));
  f.body.push_back(decl("res_exp", ScalarType{32, true},
                        select(gt(var("exp_diff"), lit(0)), var("a_exp"),
                               var("b_exp"))));
  // Renormalize: up to 4 shift steps (unrolled loop with branches).
  f.body.push_back(decl("mant", ScalarType{64, true}, var("sum")));
  f.body.push_back(decl("norm_exp", ScalarType{32, true}, var("res_exp")));
  std::vector<StmtPtr> norm = stmts(
      if_stmt(gt(var("mant"), lit(1L << 53, 64)),
              stmts(assign("mant", var("mant") >> lit(1)),
                    assign("norm_exp", var("norm_exp") + lit(1)))));
  f.body.push_back(loop("n", 4, std::move(norm)));
  f.body.push_back(ret(cast(var("mant"), 32) ^ var("norm_exp")));
  return f;
}

Function ch_dfmul() {
  Function f;
  f.name = "dfmul";
  f.params = {in_scalar("a_mant", 64), in_scalar("a_exp"),
              in_scalar("b_mant", 64), in_scalar("b_exp")};
  // Soft-float multiply: wide mantissa product + exponent arithmetic.
  f.body.push_back(decl("hi_a", ScalarType{32, true},
                        cast(var("a_mant") >> lit(26), 32)));
  f.body.push_back(decl("lo_a", ScalarType{32, true},
                        cast(var("a_mant") & lit((1L << 26) - 1, 64), 32)));
  f.body.push_back(decl("hi_b", ScalarType{32, true},
                        cast(var("b_mant") >> lit(26), 32)));
  f.body.push_back(decl("lo_b", ScalarType{32, true},
                        cast(var("b_mant") & lit((1L << 26) - 1, 64), 32)));
  f.body.push_back(decl("hh", ScalarType{64, true},
                        cast(var("hi_a") * var("hi_b"), 64)));
  f.body.push_back(decl("hl", ScalarType{64, true},
                        cast(var("hi_a") * var("lo_b"), 64)));
  f.body.push_back(decl("lh", ScalarType{64, true},
                        cast(var("lo_a") * var("hi_b"), 64)));
  f.body.push_back(decl(
      "prod", ScalarType{64, true},
      (var("hh") << lit(12)) + ((var("hl") + var("lh")) >> lit(14))));
  f.body.push_back(decl("pexp", ScalarType{32, true},
                        var("a_exp") + var("b_exp") - lit(1023)));
  // Renormalization loop (the original dfmul normalizes and rounds).
  f.body.push_back(decl("mant", ScalarType{64, true}, var("prod")));
  std::vector<StmtPtr> norm = stmts(
      if_stmt(gt(var("mant"), lit(1L << 53, 64)),
              stmts(assign("mant", var("mant") >> lit(1)),
                    assign("pexp", var("pexp") + lit(1)))));
  f.body.push_back(loop("n", 3, std::move(norm)));
  f.body.push_back(ret(cast(var("mant"), 32) ^ var("pexp")));
  return f;
}

}  // namespace

std::vector<SuiteProgram> chstone_all() {
  std::vector<SuiteProgram> v;
  const auto add = [&v](Function f) {
    v.push_back(SuiteProgram{"chstone", f.name, std::move(f)});
  };
  add(ch_adpcm());
  add(ch_aes_round());
  add(ch_blowfish());
  add(ch_dfadd());
  add(ch_dfmul());
  add(ch_gsm_lpc());
  add(ch_jpeg_dct());
  add(ch_mips());
  add(ch_motion());
  add(ch_sha());
  return v;
}

}  // namespace gnnhls
