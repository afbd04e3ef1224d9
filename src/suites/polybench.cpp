// PolyBench/C-style kernels (Pouchet & Yuki): 30 polyhedral loop nests.
// Integer mini versions at size N=6..8; fixed-point shifts replace float
// scaling, integer division appears where the originals divide.
#include "suites/suites.h"

#include "suites/dsl.h"

namespace gnnhls {

namespace {

using namespace suite_dsl;  // NOLINT(google-build-using-namespace)

constexpr long N = 6;

/// Shared skeleton: C[i,j] (+)= sum_k A[i,k]*B[k,j], optionally scaled.
StmtPtr matmul_loop(const char* out, const char* a, const char* b,
                    bool accumulate, long shift = 0) {
  auto inner_val = A(a, idx2("i", "k", N)) * A(b, idx2("k", "j", N));
  std::vector<StmtPtr> kbody =
      stmts(assign("sum_acc", var("sum_acc") + std::move(inner_val)));
  ExprPtr result = shift > 0
                       ? var("sum_acc") >> lit(shift)
                       : var("sum_acc");
  if (accumulate) {
    result = A(out, idx2("i", "j", N)) + std::move(result);
  }
  return loop(
      "i", N,
      stmts(loop("j", N,
                 stmts(decl("sum_acc", ScalarType{32, true}, lit(0)),
                       loop("k", N, std::move(kbody)),
                       assign_array(out, idx2("i", "j", N),
                                    std::move(result))))));
}

Function pb_gemm() {
  Function f;
  f.name = "gemm";
  f.params = {in_array("Am", N * N), in_array("Bm", N * N),
              in_scalar("alpha"), in_scalar("beta")};
  f.body.push_back(decl_array("Cm", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop("j", N,
                 stmts(decl("sum_acc", ScalarType{32, true}, lit(0)),
                       loop("k", N,
                            stmts(assign("sum_acc",
                                         var("sum_acc") +
                                             A("Am", idx2("i", "k", N)) *
                                                 A("Bm", idx2("k", "j", N))))),
                       assign_array("Cm", idx2("i", "j", N),
                                    (var("beta") * A("Cm", idx2("i", "j", N)) +
                                     var("alpha") * var("sum_acc")) >>
                                        lit(8)))))));
  f.body.push_back(ret(A("Cm", lit(0))));
  return f;
}

Function pb_2mm() {
  Function f;
  f.name = "2mm";
  f.params = {in_array("Am", N * N), in_array("Bm", N * N),
              in_array("Cm", N * N)};
  f.body.push_back(decl_array("tmp", ScalarType{32, true}, N * N));
  f.body.push_back(decl_array("Dm", ScalarType{32, true}, N * N));
  f.body.push_back(matmul_loop("tmp", "Am", "Bm", false));
  f.body.push_back(matmul_loop("Dm", "tmp", "Cm", true, 4));
  f.body.push_back(ret(A("Dm", lit(0))));
  return f;
}

Function pb_3mm() {
  Function f;
  f.name = "3mm";
  f.params = {in_array("Am", N * N), in_array("Bm", N * N),
              in_array("Cm", N * N), in_array("Dm", N * N)};
  f.body.push_back(decl_array("E", ScalarType{32, true}, N * N));
  f.body.push_back(decl_array("F", ScalarType{32, true}, N * N));
  f.body.push_back(decl_array("G", ScalarType{32, true}, N * N));
  f.body.push_back(matmul_loop("E", "Am", "Bm", false));
  f.body.push_back(matmul_loop("F", "Cm", "Dm", false));
  f.body.push_back(matmul_loop("G", "E", "F", false, 4));
  f.body.push_back(ret(A("G", lit(0))));
  return f;
}

Function pb_atax() {
  Function f;
  f.name = "atax";
  f.params = {in_array("Am", N * N), in_array("x", N)};
  f.body.push_back(decl_array("tmp", ScalarType{32, true}, N));
  f.body.push_back(decl_array("y", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(decl("t", ScalarType{32, true}, lit(0)),
            loop("j", N, stmts(assign("t", var("t") +
                                               A("Am", idx2("i", "j", N)) *
                                                   A("x", var("j"))))),
            assign_array("tmp", var("i"), var("t")))));
  f.body.push_back(loop(
      "j2", N,
      stmts(decl("t2", ScalarType{32, true}, lit(0)),
            loop("i2", N,
                 stmts(assign("t2", var("t2") +
                                        A("Am", idx2("i2", "j2", N)) *
                                            A("tmp", var("i2"))))),
            assign_array("y", var("j2"), var("t2")))));
  f.body.push_back(ret(A("y", lit(0))));
  return f;
}

Function pb_bicg() {
  Function f;
  f.name = "bicg";
  f.params = {in_array("Am", N * N), in_array("p", N), in_array("r", N)};
  f.body.push_back(decl_array("q", ScalarType{32, true}, N));
  f.body.push_back(decl_array("s", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(decl("qa", ScalarType{32, true}, lit(0)),
            loop("j", N,
                 stmts(assign_array("s", var("j"),
                                    A("s", var("j")) +
                                        A("r", var("i")) *
                                            A("Am", idx2("i", "j", N))),
                       assign("qa", var("qa") +
                                        A("Am", idx2("i", "j", N)) *
                                            A("p", var("j"))))),
            assign_array("q", var("i"), var("qa")))));
  f.body.push_back(ret(A("q", lit(0)) + A("s", lit(0))));
  return f;
}

Function pb_mvt() {
  Function f;
  f.name = "mvt";
  f.params = {in_array("Am", N * N), in_array("y1", N), in_array("y2", N)};
  f.body.push_back(decl_array("x1", ScalarType{32, true}, N));
  f.body.push_back(decl_array("x2", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop("j", N,
                 stmts(assign_array("x1", var("i"),
                                    A("x1", var("i")) +
                                        A("Am", idx2("i", "j", N)) *
                                            A("y1", var("j"))))))));
  f.body.push_back(loop(
      "i2", N,
      stmts(loop("j2", N,
                 stmts(assign_array("x2", var("i2"),
                                    A("x2", var("i2")) +
                                        A("Am", idx2("j2", "i2", N)) *
                                            A("y2", var("j2"))))))));
  f.body.push_back(ret(A("x1", lit(0)) + A("x2", lit(0))));
  return f;
}

Function pb_gemver() {
  Function f;
  f.name = "gemver";
  f.params = {in_array("Am", N * N), in_array("u1", N), in_array("v1", N),
              in_array("u2", N), in_array("v2", N), in_array("y", N)};
  f.body.push_back(decl_array("x", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop("j", N,
                 stmts(assign_array(
                     "Am", idx2("i", "j", N),
                     A("Am", idx2("i", "j", N)) +
                         A("u1", var("i")) * A("v1", var("j")) +
                         A("u2", var("i")) * A("v2", var("j"))))))));
  f.body.push_back(loop(
      "i2", N,
      stmts(loop("j2", N,
                 stmts(assign_array("x", var("i2"),
                                    (A("x", var("i2")) +
                                     A("Am", idx2("j2", "i2", N)) *
                                         A("y", var("j2"))) >>
                                        lit(2)))))));
  f.body.push_back(ret(A("x", lit(0))));
  return f;
}

Function pb_gesummv() {
  Function f;
  f.name = "gesummv";
  f.params = {in_array("Am", N * N), in_array("Bm", N * N), in_array("x", N),
              in_scalar("alpha"), in_scalar("beta")};
  f.body.push_back(decl_array("y", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(decl("ta", ScalarType{32, true}, lit(0)),
            decl("tb", ScalarType{32, true}, lit(0)),
            loop("j", N,
                 stmts(assign("ta", var("ta") + A("Am", idx2("i", "j", N)) *
                                                    A("x", var("j"))),
                       assign("tb", var("tb") + A("Bm", idx2("i", "j", N)) *
                                                    A("x", var("j"))))),
            assign_array("y", var("i"),
                         (var("alpha") * var("ta") +
                          var("beta") * var("tb")) >>
                             lit(8)))));
  f.body.push_back(ret(A("y", lit(0))));
  return f;
}

Function pb_syrk() {
  Function f;
  f.name = "syrk";
  f.params = {in_array("Am", N * N), in_scalar("alpha"), in_scalar("beta")};
  f.body.push_back(decl_array("Cm", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop(
          "j", N,
          stmts(decl("acc", ScalarType{32, true},
                     var("beta") * A("Cm", idx2("i", "j", N)) >> lit(4)),
                loop("k", N,
                     stmts(assign("acc",
                                  (var("acc") +
                                   var("alpha") * A("Am", idx2("i", "k", N)) *
                                       A("Am", idx2("j", "k", N))) >>
                                      lit(4)))),
                assign_array("Cm", idx2("i", "j", N), var("acc")))))));
  f.body.push_back(ret(A("Cm", lit(0))));
  return f;
}

Function pb_syr2k() {
  Function f;
  f.name = "syr2k";
  f.params = {in_array("Am", N * N), in_array("Bm", N * N)};
  f.body.push_back(decl_array("Cm", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop(
          "j", N,
          stmts(decl("acc", ScalarType{32, true},
                     A("Cm", idx2("i", "j", N))),
                loop("k", N,
                     stmts(assign(
                         "acc",
                         var("acc") +
                             A("Am", idx2("i", "k", N)) *
                                 A("Bm", idx2("j", "k", N)) +
                             A("Bm", idx2("i", "k", N)) *
                                 A("Am", idx2("j", "k", N))))),
                assign_array("Cm", idx2("i", "j", N), var("acc")))))));
  f.body.push_back(ret(A("Cm", lit(0))));
  return f;
}

Function pb_symm() {
  Function f;
  f.name = "symm";
  f.params = {in_array("Am", N * N), in_array("Bm", N * N)};
  f.body.push_back(decl_array("Cm", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop(
          "j", N,
          stmts(decl("temp2", ScalarType{32, true}, lit(0)),
                loop("k", N,
                     stmts(if_stmt(
                         lt(var("k"), var("i")),
                         stmts(assign_array(
                                   "Cm", idx2("k", "j", N),
                                   A("Cm", idx2("k", "j", N)) +
                                       A("Am", idx2("i", "k", N)) *
                                           A("Bm", idx2("i", "j", N))),
                               assign("temp2",
                                      var("temp2") +
                                          A("Bm", idx2("k", "j", N)) *
                                              A("Am", idx2("i", "k", N))))))),
                assign_array("Cm", idx2("i", "j", N),
                             A("Cm", idx2("i", "j", N)) +
                                 A("Bm", idx2("i", "j", N)) +
                                 var("temp2")))))));
  f.body.push_back(ret(A("Cm", lit(0))));
  return f;
}

Function pb_trmm() {
  Function f;
  f.name = "trmm";
  f.params = {in_array("Am", N * N)};
  f.body.push_back(decl_array("Bm", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop(
          "j", N,
          stmts(decl("acc", ScalarType{32, true},
                     A("Bm", idx2("i", "j", N))),
                loop("k", N,
                     stmts(if_stmt(gt(var("k"), var("i")),
                                   stmts(assign(
                                       "acc",
                                       var("acc") +
                                           A("Am", idx2("k", "i", N)) *
                                               A("Bm", idx2("k", "j", N))))))),
                assign_array("Bm", idx2("i", "j", N), var("acc")))))));
  f.body.push_back(ret(A("Bm", lit(0))));
  return f;
}

Function pb_trisolv() {
  Function f;
  f.name = "trisolv";
  f.params = {in_array("L", N * N), in_array("b", N)};
  f.body.push_back(decl_array("x", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(decl("acc", ScalarType{32, true}, A("b", var("i")) << lit(8)),
            loop("j", N,
                 stmts(if_stmt(lt(var("j"), var("i")),
                               stmts(assign("acc",
                                            var("acc") -
                                                A("L", idx2("i", "j", N)) *
                                                    A("x", var("j"))))))),
            assign_array("x", var("i"),
                         var("acc") / (A("L", idx2("i", "i", N)) | lit(1))))));
  f.body.push_back(ret(A("x", lit(N - 1))));
  return f;
}

Function pb_lu() {
  Function f;
  f.name = "lu";
  f.params = {in_array("Am", N * N)};
  f.body.push_back(loop(
      "i", N,
      stmts(loop("j", N,
                 stmts(if_stmt(
                     lt(var("j"), var("i")),
                     stmts(decl("acc", ScalarType{32, true},
                                A("Am", idx2("i", "j", N))),
                           loop("k", N,
                                stmts(if_stmt(
                                    lt(var("k"), var("j")),
                                    stmts(assign(
                                        "acc",
                                        (var("acc") -
                                         A("Am", idx2("i", "k", N)) *
                                             A("Am", idx2("k", "j", N))) >>
                                            lit(4)))))),
                           assign_array(
                               "Am", idx2("i", "j", N),
                               var("acc") /
                                   (A("Am", idx2("j", "j", N)) | lit(1)))),
                     stmts(decl("acc2", ScalarType{32, true},
                                A("Am", idx2("i", "j", N))),
                           loop("k2", N,
                                stmts(if_stmt(
                                    lt(var("k2"), var("i")),
                                    stmts(assign(
                                        "acc2",
                                        (var("acc2") -
                                         A("Am", idx2("i", "k2", N)) *
                                             A("Am", idx2("k2", "j", N))) >>
                                            lit(4)))))),
                           assign_array("Am", idx2("i", "j", N),
                                        var("acc2")))))))));
  f.body.push_back(ret(A("Am", lit(0))));
  return f;
}

Function pb_ludcmp() {
  Function f;
  f.name = "ludcmp";
  f.params = {in_array("Am", N * N), in_array("b", N)};
  f.body.push_back(decl_array("y", ScalarType{32, true}, N));
  f.body.push_back(loop(
      "i", N,
      stmts(decl("acc", ScalarType{32, true}, A("b", var("i"))),
            loop("j", N,
                 stmts(if_stmt(lt(var("j"), var("i")),
                               stmts(assign("acc",
                                            (var("acc") -
                                             A("Am", idx2("i", "j", N)) *
                                                 A("y", var("j"))) >>
                                                lit(4)))))),
            assign_array("y", var("i"), var("acc")))));
  f.body.push_back(decl("det", ScalarType{32, true}, lit(1 << 8)));
  f.body.push_back(loop(
      "i2", N,
      stmts(assign("det", var("det") * A("Am", idx2("i2", "i2", N)) >>
                              lit(8)))));
  f.body.push_back(ret(A("y", lit(N - 1)) + var("det")));
  return f;
}

Function pb_cholesky() {
  Function f;
  f.name = "cholesky";
  f.params = {in_array("Am", N * N)};
  f.body.push_back(loop(
      "i", N,
      stmts(
          loop("j", N,
               stmts(if_stmt(
                   lt(var("j"), var("i")),
                   stmts(decl("acc", ScalarType{32, true},
                              A("Am", idx2("i", "j", N))),
                         loop("k", N,
                              stmts(if_stmt(
                                  lt(var("k"), var("j")),
                                  stmts(assign(
                                      "acc",
                                      (var("acc") -
                                       A("Am", idx2("i", "k", N)) *
                                           A("Am", idx2("j", "k", N))) >>
                                          lit(4)))))),
                         assign_array(
                             "Am", idx2("i", "j", N),
                             var("acc") /
                                 (A("Am", idx2("j", "j", N)) | lit(1))))))),
          // diagonal: integer "sqrt" via Newton step
          decl("diag", ScalarType{32, true}, A("Am", idx2("i", "i", N))),
          decl("root", ScalarType{32, true},
               (var("diag") + lit(256)) >> lit(1)),
          assign("root",
                 (var("root") + var("diag") / (var("root") | lit(1))) >>
                     lit(1)),
          assign_array("Am", idx2("i", "i", N), var("root")))));
  f.body.push_back(ret(A("Am", lit(0))));
  return f;
}

Function pb_gramschmidt() {
  Function f;
  f.name = "gramschmidt";
  f.params = {in_array("Am", N * N)};
  f.body.push_back(decl_array("R", ScalarType{32, true}, N * N));
  f.body.push_back(decl_array("Q", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "k", N,
      stmts(
          decl("nrm", ScalarType{32, true}, lit(0)),
          loop("i", N,
               stmts(assign("nrm", (var("nrm") +
                                        A("Am", idx2("i", "k", N)) *
                                            A("Am", idx2("i", "k", N))) >>
                                       lit(4)))),
          decl("root", ScalarType{32, true},
               (var("nrm") + lit(256)) >> lit(1)),
          assign("root",
                 (var("root") + var("nrm") / (var("root") | lit(1))) >>
                     lit(1)),
          assign_array("R", idx2("k", "k", N), var("root")),
          loop("i2", N,
               stmts(assign_array(
                   "Q", idx2("i2", "k", N),
                   (A("Am", idx2("i2", "k", N)) << lit(8)) /
                       (var("root") | lit(1))))))));
  f.body.push_back(ret(A("Q", lit(0)) + A("R", lit(0))));
  return f;
}

Function pb_durbin() {
  Function f;
  f.name = "durbin";
  f.params = {in_array("r", N)};
  f.body.push_back(decl_array("y", ScalarType{32, true}, N));
  f.body.push_back(decl("alpha", ScalarType{32, true},
                        lit(0) - A("r", lit(0))));
  f.body.push_back(decl("beta", ScalarType{32, true}, lit(1 << 8)));
  f.body.push_back(loop(
      "k", N - 1,
      stmts(
          assign("beta",
                 (var("beta") * (lit(1 << 8) -
                                 (var("alpha") * var("alpha") >> lit(8)))) >>
                     lit(8)),
          decl("sum", ScalarType{32, true}, lit(0)),
          loop("i", N,
               stmts(if_stmt(
                   lt(var("i"), var("k") + lit(1)),
                   stmts(assign("sum",
                                (var("sum") +
                                 A("r", (var("k") - var("i")) &
                                            lit(N - 1)) *
                                     A("y", var("i"))) >>
                                    lit(8)))))),
          assign("alpha",
                 (lit(0) - (A("r", var("k") + lit(1)) + var("sum")) <<
                  lit(8)) /
                     (var("beta") | lit(1))),
          assign_array("y", var("k") + lit(1), var("alpha")))));
  f.body.push_back(ret(A("y", lit(N - 1))));
  return f;
}

Function pb_jacobi1d() {
  constexpr long n = 16, steps = 4;
  Function f;
  f.name = "jacobi_1d";
  f.params = {in_array("Aa", n)};
  f.body.push_back(decl_array("Bb", ScalarType{32, true}, n));
  f.body.push_back(loop(
      "t", steps,
      stmts(loop("i", n - 2,
                 stmts(assign_array(
                     "Bb", var("i") + lit(1),
                     (A("Aa", var("i")) + A("Aa", var("i") + lit(1)) +
                      A("Aa", var("i") + lit(2))) /
                         lit(3)))),
            loop("i2", n - 2,
                 stmts(assign_array("Aa", var("i2") + lit(1),
                                    A("Bb", var("i2") + lit(1))))))));
  f.body.push_back(ret(A("Aa", lit(1))));
  return f;
}

Function pb_jacobi2d() {
  constexpr long n = 6, steps = 2;
  Function f;
  f.name = "jacobi_2d";
  f.params = {in_array("Aa", n * n)};
  f.body.push_back(decl_array("Bb", ScalarType{32, true}, n * n));
  f.body.push_back(loop(
      "t", steps,
      stmts(loop(
                "i", n - 2,
                stmts(loop(
                    "j", n - 2,
                    stmts(assign_array(
                        "Bb", (var("i") + lit(1)) * lit(n) + var("j") + lit(1),
                        (A("Aa", (var("i") + lit(1)) * lit(n) + var("j") +
                                     lit(1)) +
                         A("Aa", (var("i") + lit(1)) * lit(n) + var("j")) +
                         A("Aa", (var("i") + lit(1)) * lit(n) + var("j") +
                                     lit(2)) +
                         A("Aa", var("i") * lit(n) + var("j") + lit(1)) +
                         A("Aa", (var("i") + lit(2)) * lit(n) + var("j") +
                                     lit(1))) /
                            lit(5)))))),
            loop("i2", n - 2,
                 stmts(loop("j2", n - 2,
                            stmts(assign_array(
                                "Aa",
                                (var("i2") + lit(1)) * lit(n) + var("j2") +
                                    lit(1),
                                A("Bb", (var("i2") + lit(1)) * lit(n) +
                                            var("j2") + lit(1))))))))));
  f.body.push_back(ret(A("Aa", lit(n + 1))));
  return f;
}

Function pb_seidel2d() {
  constexpr long n = 6, steps = 2;
  Function f;
  f.name = "seidel_2d";
  f.params = {in_array("Aa", n * n)};
  ExprPtr nine_point =
      A("Aa", var("i") * lit(n) + var("j")) +
      A("Aa", var("i") * lit(n) + var("j") + lit(1)) +
      A("Aa", var("i") * lit(n) + var("j") + lit(2)) +
      A("Aa", (var("i") + lit(1)) * lit(n) + var("j")) +
      A("Aa", (var("i") + lit(1)) * lit(n) + var("j") + lit(1)) +
      A("Aa", (var("i") + lit(1)) * lit(n) + var("j") + lit(2)) +
      A("Aa", (var("i") + lit(2)) * lit(n) + var("j")) +
      A("Aa", (var("i") + lit(2)) * lit(n) + var("j") + lit(1)) +
      A("Aa", (var("i") + lit(2)) * lit(n) + var("j") + lit(2));
  auto j_body = stmts(assign_array(
      "Aa", (var("i") + lit(1)) * lit(n) + var("j") + lit(1),
      std::move(nine_point) / lit(9)));
  auto i_body = stmts(loop("j", n - 2, std::move(j_body)));
  f.body.push_back(
      loop("t", steps, stmts(loop("i", n - 2, std::move(i_body)))));
  f.body.push_back(ret(A("Aa", lit(n + 1))));
  return f;
}

Function pb_heat3d() {
  constexpr long n = 4, steps = 2;
  Function f;
  f.name = "heat_3d";
  f.params = {in_array("Aa", n * n * n)};
  f.body.push_back(decl_array("Bb", ScalarType{32, true}, n * n * n));
  f.body.push_back(loop(
      "t", steps,
      stmts(loop(
          "i", n - 2,
          stmts(loop(
              "j", n - 2,
              stmts(loop(
                  "k", n - 2,
                  stmts(assign_array(
                      "Bb",
                      (var("i") + lit(1)) * lit(n * n) +
                          (var("j") + lit(1)) * lit(n) + var("k") + lit(1),
                      (A("Aa", var("i") * lit(n * n) +
                                   (var("j") + lit(1)) * lit(n) + var("k") +
                                   lit(1)) +
                       A("Aa", (var("i") + lit(2)) * lit(n * n) +
                                   (var("j") + lit(1)) * lit(n) + var("k") +
                                   lit(1)) +
                       A("Aa", (var("i") + lit(1)) * lit(n * n) +
                                   var("j") * lit(n) + var("k") + lit(1)) +
                       A("Aa", (var("i") + lit(1)) * lit(n * n) +
                                   (var("j") + lit(2)) * lit(n) + var("k") +
                                   lit(1)) +
                       A("Aa", (var("i") + lit(1)) * lit(n * n) +
                                   (var("j") + lit(1)) * lit(n) + var("k")) +
                       A("Aa", (var("i") + lit(1)) * lit(n * n) +
                                   (var("j") + lit(1)) * lit(n) + var("k") +
                                   lit(2))) /
                          lit(6)))))))))));
  f.body.push_back(ret(A("Bb", lit(n * n + n + 1))));
  return f;
}

Function pb_fdtd2d() {
  constexpr long n = 6, steps = 2;
  Function f;
  f.name = "fdtd_2d";
  f.params = {in_array("ex", n * n), in_array("ey", n * n),
              in_array("hz", n * n)};
  auto ey_update = stmts(assign_array(
      "ey", var("i") * lit(n) + var("j") + lit(1),
      A("ey", var("i") * lit(n) + var("j") + lit(1)) -
          ((A("hz", var("i") * lit(n) + var("j") + lit(1)) -
            A("hz", var("i") * lit(n) + var("j"))) >>
           lit(1))));
  auto ex_update = stmts(assign_array(
      "ex", (var("i2") + lit(1)) * lit(n) + var("j2"),
      A("ex", (var("i2") + lit(1)) * lit(n) + var("j2")) -
          ((A("hz", (var("i2") + lit(1)) * lit(n) + var("j2")) -
            A("hz", var("i2") * lit(n) + var("j2"))) >>
           lit(1))));
  auto hz_update = stmts(assign_array(
      "hz", var("i3") * lit(n) + var("j3"),
      A("hz", var("i3") * lit(n) + var("j3")) -
          ((A("ex", (var("i3") + lit(1)) * lit(n) + var("j3")) -
            A("ex", var("i3") * lit(n) + var("j3")) +
            A("ey", var("i3") * lit(n) + var("j3") + lit(1)) -
            A("ey", var("i3") * lit(n) + var("j3"))) >>
           lit(1))));
  auto t_body = stmts(
      loop("i", n, stmts(loop("j", n - 1, std::move(ey_update)))),
      loop("i2", n - 1, stmts(loop("j2", n, std::move(ex_update)))),
      loop("i3", n - 1, stmts(loop("j3", n - 1, std::move(hz_update)))));
  f.body.push_back(loop("t", steps, std::move(t_body)));
  f.body.push_back(ret(A("hz", lit(0))));
  return f;
}

Function pb_adi() {
  constexpr long n = 6, steps = 2;
  Function f;
  f.name = "adi";
  f.params = {in_array("u", n * n)};
  f.body.push_back(decl_array("v", ScalarType{32, true}, n * n));
  f.body.push_back(decl_array("p", ScalarType{32, true}, n * n));
  f.body.push_back(decl_array("q", ScalarType{32, true}, n * n));
  // Column sweep: tridiagonal forward recurrence on p/q.
  auto sweep_body = stmts(
      assign_array("p", idx2("i", "j", n),
                   (lit(64) << lit(8)) /
                       (((A("p", var("i") * lit(n) + var("j")) >> lit(2)) +
                         lit(128)) |
                        lit(1))),
      assign_array("q", idx2("i", "j", n),
                   A("u", idx2("j", "i", n)) +
                       (A("q", var("i") * lit(n) + var("j")) >> lit(2))));
  auto back_body = stmts(assign_array(
      "v", idx2("i2", "j2", n),
      A("p", idx2("i2", "j2", n)) * A("q", idx2("i2", "j2", n)) >> lit(8)));
  auto copy_body = stmts(assign_array("u", idx2("i3", "j3", n),
                                      A("v", idx2("j3", "i3", n))));
  auto t_body = stmts(
      loop("i", n - 2, stmts(loop("j", n - 2, std::move(sweep_body)))),
      loop("i2", n - 2, stmts(loop("j2", n - 2, std::move(back_body)))),
      loop("i3", n - 2, stmts(loop("j3", n - 2, std::move(copy_body)))));
  f.body.push_back(loop("t", steps, std::move(t_body)));
  f.body.push_back(ret(A("u", lit(0))));
  return f;
}

Function pb_correlation() {
  Function f;
  f.name = "correlation";
  f.params = {in_array("data", N * N)};
  f.body.push_back(decl_array("mean", ScalarType{32, true}, N));
  f.body.push_back(decl_array("corr", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "j", N,
      stmts(decl("m", ScalarType{32, true}, lit(0)),
            loop("i", N, stmts(assign("m", var("m") +
                                               A("data", idx2("i", "j", N))))),
            assign_array("mean", var("j"), var("m") / lit(N)))));
  f.body.push_back(loop(
      "j1", N,
      stmts(loop(
          "j2", N,
          stmts(decl("acc", ScalarType{32, true}, lit(0)),
                loop("i2", N,
                     stmts(assign(
                         "acc",
                         (var("acc") +
                          (A("data", idx2("i2", "j1", N)) -
                           A("mean", var("j1"))) *
                              (A("data", idx2("i2", "j2", N)) -
                               A("mean", var("j2")))) >>
                             lit(4)))),
                assign_array("corr", idx2("j1", "j2", N), var("acc")))))));
  f.body.push_back(ret(A("corr", lit(0))));
  return f;
}

Function pb_covariance() {
  Function f;
  f.name = "covariance";
  f.params = {in_array("data", N * N)};
  f.body.push_back(decl_array("mean", ScalarType{32, true}, N));
  f.body.push_back(decl_array("cov", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "j", N,
      stmts(decl("m", ScalarType{32, true}, lit(0)),
            loop("i", N, stmts(assign("m", var("m") +
                                               A("data", idx2("i", "j", N))))),
            assign_array("mean", var("j"), var("m") / lit(N)))));
  f.body.push_back(loop(
      "i2", N,
      stmts(loop("j2", N,
                 stmts(assign_array(
                     "data", idx2("i2", "j2", N),
                     A("data", idx2("i2", "j2", N)) -
                         A("mean", var("j2"))))))));
  f.body.push_back(loop(
      "j3", N,
      stmts(loop(
          "j4", N,
          stmts(decl("acc", ScalarType{32, true}, lit(0)),
                loop("i3", N,
                     stmts(assign("acc",
                                  (var("acc") +
                                   A("data", idx2("i3", "j3", N)) *
                                       A("data", idx2("i3", "j4", N))) >>
                                      lit(4)))),
                assign_array("cov", idx2("j3", "j4", N),
                             var("acc") / lit(N - 1)))))));
  f.body.push_back(ret(A("cov", lit(0))));
  return f;
}

Function pb_floyd_warshall() {
  Function f;
  f.name = "floyd_warshall";
  f.params = {in_array("path", N * N)};
  f.body.push_back(loop(
      "k", N,
      stmts(loop(
          "i", N,
          stmts(loop(
              "j", N,
              stmts(decl("through", ScalarType{32, true},
                         A("path", idx2("i", "k", N)) +
                             A("path", idx2("k", "j", N))),
                    assign_array(
                        "path", idx2("i", "j", N),
                        select(lt(var("through"),
                                  A("path", idx2("i", "j", N))),
                               var("through"),
                               A("path", idx2("i", "j", N)))))))))));
  f.body.push_back(ret(A("path", lit(N - 1))));
  return f;
}

Function pb_nussinov() {
  Function f;
  f.name = "nussinov";
  f.params = {in_array("seq", N)};
  f.body.push_back(decl_array("table", ScalarType{32, true}, N * N));
  f.body.push_back(loop(
      "i", N,
      stmts(loop(
          "j", N,
          stmts(if_stmt(
              gt(var("j"), var("i")),
              stmts(
                  decl("best", ScalarType{32, true},
                       A("table", idx2("i", "j", N))),
                  decl("pair_bonus", ScalarType{32, true},
                       select(eq(A("seq", var("i")) + A("seq", var("j")),
                                 lit(3)),
                              lit(1), lit(0))),
                  decl("diag", ScalarType{32, true},
                       A("table", (var("i") + lit(1)) * lit(N) + var("j") -
                                      lit(1)) +
                           var("pair_bonus")),
                  assign("best", select(gt(var("diag"), var("best")),
                                        var("diag"), var("best"))),
                  loop("k", N,
                       stmts(if_stmt(
                           lt(var("k"), var("j") - var("i")),
                           stmts(
                               decl("split", ScalarType{32, true},
                                    A("table", var("i") * lit(N) + var("i") +
                                                   var("k")) +
                                        A("table",
                                          (var("i") + var("k") + lit(1)) *
                                                  lit(N) +
                                              var("j"))),
                               assign("best",
                                      select(gt(var("split"), var("best")),
                                             var("split"), var("best"))))))),
                  assign_array("table", idx2("i", "j", N),
                               var("best")))))))));
  f.body.push_back(ret(A("table", lit(N - 1))));
  return f;
}

Function pb_deriche() {
  constexpr long n = 16;
  Function f;
  f.name = "deriche";
  f.params = {in_array("img", n), in_scalar("a1"), in_scalar("a2")};
  f.body.push_back(decl_array("y1", ScalarType{32, true}, n));
  f.body.push_back(decl_array("y2", ScalarType{32, true}, n));
  // Forward IIR pass.
  f.body.push_back(decl("ym1", ScalarType{32, true}, lit(0)));
  f.body.push_back(decl("xm1", ScalarType{32, true}, lit(0)));
  f.body.push_back(loop(
      "i", n,
      stmts(decl("yv", ScalarType{32, true},
                 (var("a1") * A("img", var("i")) + var("a2") * var("xm1") +
                  lit(200) * var("ym1")) >>
                     lit(8)),
            assign("xm1", A("img", var("i"))), assign("ym1", var("yv")),
            assign_array("y1", var("i"), var("yv")))));
  // Backward IIR pass.
  f.body.push_back(decl("yp1", ScalarType{32, true}, lit(0)));
  f.body.push_back(loop(
      "i2", n,
      stmts(decl("ridx", ScalarType{32, true},
                 lit(n - 1) - var("i2")),
            decl("yv2", ScalarType{32, true},
                 (var("a2") * A("img", var("ridx")) +
                  lit(200) * var("yp1")) >>
                     lit(8)),
            assign("yp1", var("yv2")),
            assign_array("y2", var("ridx"), var("yv2")))));
  f.body.push_back(decl("total", ScalarType{32, true}, lit(0)));
  f.body.push_back(loop(
      "i3", n,
      stmts(assign("total", var("total") + A("y1", var("i3")) +
                                A("y2", var("i3"))))));
  f.body.push_back(ret(var("total")));
  return f;
}

Function pb_doitgen() {
  constexpr long nq = 4, np = 4;
  Function f;
  f.name = "doitgen";
  f.params = {in_array("Aa", nq * np), in_array("c4", np * np)};
  f.body.push_back(decl_array("sum", ScalarType{32, true}, np));
  f.body.push_back(loop(
      "q", nq,
      stmts(loop("p", np,
                 stmts(decl("acc", ScalarType{32, true}, lit(0)),
                       loop("s", np,
                            stmts(assign("acc",
                                         var("acc") +
                                             A("Aa", idx2("q", "s", np)) *
                                                 A("c4",
                                                   idx2("s", "p", np))))),
                       assign_array("sum", var("p"), var("acc")))),
            loop("p2", np,
                 stmts(assign_array("Aa", idx2("q", "p2", np),
                                    A("sum", var("p2"))))))));
  f.body.push_back(ret(A("Aa", lit(0))));
  return f;
}

}  // namespace

std::vector<SuiteProgram> polybench_all() {
  std::vector<SuiteProgram> v;
  const auto add = [&v](Function f) {
    v.push_back(SuiteProgram{"polybench", f.name, std::move(f)});
  };
  add(pb_2mm());
  add(pb_3mm());
  add(pb_adi());
  add(pb_atax());
  add(pb_bicg());
  add(pb_cholesky());
  add(pb_correlation());
  add(pb_covariance());
  add(pb_deriche());
  add(pb_doitgen());
  add(pb_durbin());
  add(pb_fdtd2d());
  add(pb_floyd_warshall());
  add(pb_gemm());
  add(pb_gemver());
  add(pb_gesummv());
  add(pb_gramschmidt());
  add(pb_heat3d());
  add(pb_jacobi1d());
  add(pb_jacobi2d());
  add(pb_lu());
  add(pb_ludcmp());
  add(pb_mvt());
  add(pb_nussinov());
  add(pb_seidel2d());
  add(pb_symm());
  add(pb_syr2k());
  add(pb_syrk());
  add(pb_trisolv());
  add(pb_trmm());
  return v;
}

std::vector<SuiteProgram> all_real_world() {
  std::vector<SuiteProgram> v = machsuite_all();
  for (auto& p : chstone_all()) v.push_back(std::move(p));
  for (auto& p : polybench_all()) v.push_back(std::move(p));
  return v;
}

}  // namespace gnnhls
