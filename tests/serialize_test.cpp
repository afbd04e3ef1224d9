#include <sstream>

#include <gtest/gtest.h>

#include "dataset/serialize.h"
#include "graph/dot_export.h"

namespace gnnhls {
namespace {

std::vector<Sample> tiny_dataset(GraphKind kind) {
  SyntheticDatasetConfig cfg;
  cfg.kind = kind;
  cfg.num_graphs = 6;
  cfg.seed = 5150;
  return build_synthetic_dataset(cfg);
}

/// The rebuilt tensors carry the same edges and relation views.
void expect_same_edges(const GraphTensors& a, const GraphTensors& b) {
  EXPECT_EQ(a.src.ids(), b.src.ids());
  EXPECT_EQ(a.dst.ids(), b.dst.ids());
  ASSERT_EQ(a.relations.size(), b.relations.size());
  for (std::size_t r = 0; r < a.relations.size(); ++r) {
    EXPECT_EQ(a.relations[r].src.ids(), b.relations[r].src.ids());
    EXPECT_EQ(a.relations[r].dst.ids(), b.relations[r].dst.ids());
  }
}

TEST(SerializeTest, RoundTripPreservesEverything) {
  const auto samples = tiny_dataset(GraphKind::kCdfg);
  std::stringstream buffer;
  write_benchmark(buffer, samples);
  const auto records = read_benchmark(buffer);
  ASSERT_EQ(records.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const IrGraph& a = samples[i].graph();
    const IrGraph& b = records[i].graph;
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    EXPECT_EQ(a.kind(), b.kind());
    EXPECT_EQ(records[i].origin, samples[i].origin);
    for (int v = 0; v < a.num_nodes(); ++v) {
      EXPECT_EQ(a.node(v).opcode, b.node(v).opcode);
      EXPECT_EQ(a.node(v).bitwidth, b.node(v).bitwidth);
      EXPECT_EQ(a.node(v).cluster_group, b.node(v).cluster_group);
      EXPECT_EQ(a.node(v).is_start_of_path, b.node(v).is_start_of_path);
      EXPECT_EQ(a.node(v).resource.uses_dsp, b.node(v).resource.uses_dsp);
      EXPECT_FLOAT_EQ(a.node(v).resource.lut, b.node(v).resource.lut);
    }
    for (int e = 0; e < a.num_edges(); ++e) {
      EXPECT_EQ(a.edge(e).src, b.edge(e).src);
      EXPECT_EQ(a.edge(e).dst, b.edge(e).dst);
      EXPECT_EQ(a.edge(e).type, b.edge(e).type);
      EXPECT_EQ(a.edge(e).is_back_edge, b.edge(e).is_back_edge);
    }
    EXPECT_DOUBLE_EQ(samples[i].truth.lut, records[i].truth.lut);
    EXPECT_DOUBLE_EQ(samples[i].truth.cp_ns, records[i].truth.cp_ns);
    EXPECT_DOUBLE_EQ(samples[i].hls_report.ff, records[i].hls_report.ff);
    // Tensors rebuilt identically.
    expect_same_edges(samples[i].tensors, records[i].tensors);
  }
}

TEST(SerializeTest, DfgRoundTrip) {
  const auto samples = tiny_dataset(GraphKind::kDfg);
  std::stringstream buffer;
  write_benchmark(buffer, samples);
  const auto records = read_benchmark(buffer);
  ASSERT_EQ(records.size(), samples.size());
  EXPECT_EQ(records[0].graph.kind(), GraphKind::kDfg);
  EXPECT_EQ(records[0].graph.count_back_edges(), 0);
}

TEST(SerializeTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-benchmark\n");
  EXPECT_THROW(read_benchmark(buffer), std::invalid_argument);
}

TEST(SerializeTest, RejectsTruncatedRecord) {
  const auto samples = tiny_dataset(GraphKind::kDfg);
  std::stringstream buffer;
  write_benchmark(buffer, samples);
  std::string content = buffer.str();
  content.resize(content.size() / 2);  // cut mid-record
  std::stringstream cut(content);
  EXPECT_THROW(read_benchmark(cut), std::invalid_argument);
}

TEST(SerializeTest, RejectsCorruptOpcode) {
  std::stringstream buffer;
  buffer << "gnnhls-benchmark v1\n"
         << "graph g dfg 1 0\n"
         << "qor 0 1 1 5\n"
         << "report 0 1 1 5\n"
         << "node 0 9999 32 0 0 0 0 0 0 0 0 0\n"
         << "end\n";
  EXPECT_THROW(read_benchmark(buffer), std::invalid_argument);
}

// ----- typed negative paths: corrupted/truncated/hostile buffers must
// surface as ParseStatus values, never abort, so the serving wire path can
// answer with a reject frame. -----

/// One well-formed single-record payload to corrupt line-by-line.
std::string good_payload() {
  const auto samples = tiny_dataset(GraphKind::kDfg);
  return encode_sample_payload(samples[0]);
}

ParseStatus status_of(const std::string& text) {
  std::istringstream is(text);
  const ParseResult r = try_read_benchmark(is);
  // On failure no partial records may leak out.
  if (!r.ok()) EXPECT_TRUE(r.records.empty());
  return r.status;
}

TEST(SerializeNegativeTest, TypedStatusPerCorruption) {
  EXPECT_EQ(status_of(""), ParseStatus::kBadHeader);
  EXPECT_EQ(status_of("gnnhls-benchmark v2\n"), ParseStatus::kBadHeader);
  EXPECT_EQ(status_of("gnnhls-benchmark v1\nnonsense line\n"),
            ParseStatus::kBadGraphHeader);
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g pdg 1 0\n"),
            ParseStatus::kBadGraphHeader);  // unknown graph kind
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g dfg -3 0\n"),
            ParseStatus::kBadGraphHeader);  // negative dimensions
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g dfg 1 0\nqor a b c d\n"),
            ParseStatus::kBadQor);
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g dfg 1 0\n"
                      "qor 0 1 1 5\nreport 0 1 1 5\n"
                      "node 99 0 32 0 0 0 0 0 0 0 0 0\nend\n"),
            ParseStatus::kBadNode);  // node type out of range
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g dfg 2 1\n"
                      "qor 0 1 1 5\nreport 0 1 1 5\n"
                      "node 0 0 32 0 0 0 0 0 0 0 0 0\n"
                      "node 0 0 32 0 0 0 0 0 0 0 0 0\n"
                      "edge 0 7 0 0\nend\n"),
            ParseStatus::kBadEdge);  // edge endpoint out of range
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g dfg 2 1\n"
                      "qor 0 1 1 5\nreport 0 1 1 5\n"
                      "node 0 0 32 0 0 0 0 0 0 0 0 0\n"
                      "node 0 0 32 0 0 0 0 0 0 0 0 0\n"
                      "edge 0 1 9 0\nend\n"),
            ParseStatus::kBadEdge);  // edge type out of range
  EXPECT_EQ(status_of("gnnhls-benchmark v1\ngraph g dfg 1 0\nqor 0 1 1 5\n"),
            ParseStatus::kTruncated);  // ends before report line
}

TEST(SerializeNegativeTest, TruncationAtEveryLineIsTyped) {
  // Cut a valid payload after every line: every prefix must fail with a
  // typed status (never succeed, never abort). The header-only prefix is
  // the empty benchmark — valid with zero records.
  const std::string payload = good_payload();
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] == '\n') {
      lines.push_back(payload.substr(start, i - start + 1));
      start = i + 1;
    }
  }
  ASSERT_GT(lines.size(), 4U);
  std::string prefix;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    prefix += lines[i];
    std::istringstream is(prefix);
    const ParseResult r = try_read_benchmark(is);
    if (i == 0) {
      EXPECT_TRUE(r.ok());  // just the magic line: empty benchmark
      EXPECT_TRUE(r.records.empty());
    } else {
      EXPECT_FALSE(r.ok()) << "prefix of " << i + 1 << " lines";
      EXPECT_TRUE(r.records.empty());
      EXPECT_FALSE(r.message.empty());
    }
  }
}

TEST(SerializeNegativeTest, StructuralCycleIsTyped) {
  // Line-level syntax fine, whole-graph invariant broken: a forward-edge
  // cycle must surface as kBadStructure (finalize re-typed, not a crash).
  const std::string cyclic =
      "gnnhls-benchmark v1\n"
      "graph g dfg 2 2\n"
      "qor 0 1 1 5\nreport 0 1 1 5\n"
      "node 0 0 32 0 0 0 0 0 0 0 0 0\n"
      "node 0 0 32 0 0 0 0 0 0 0 0 0\n"
      "edge 0 1 0 0\n"
      "edge 1 0 0 0\n"
      "end\n";
  EXPECT_EQ(status_of(cyclic), ParseStatus::kBadStructure);
  // The throwing API reports the same typed status.
  std::istringstream is(cyclic);
  try {
    read_benchmark(is);
    FAIL() << "expected BenchmarkParseError";
  } catch (const BenchmarkParseError& e) {
    EXPECT_EQ(e.status(), ParseStatus::kBadStructure);
  }
}

TEST(SerializeNegativeTest, DecodeSamplePayloadRoundTripAndRejects) {
  const auto samples = tiny_dataset(GraphKind::kCdfg);
  const std::string payload = encode_sample_payload(samples[0]);

  const DecodedSample ok = decode_sample_payload(payload);
  ASSERT_TRUE(ok.ok()) << ok.message;
  ASSERT_NE(ok.sample, nullptr);
  // Decoded sample is inference-ready and re-encodes bit-identically.
  EXPECT_EQ(encode_sample_payload(*ok.sample), payload);
  expect_same_edges(ok.sample->tensors, samples[0].tensors);
  // Fresh identity: the decoded sample builds its own features, same bits.
  EXPECT_NE(&ok.sample->features(Approach::kOffTheShelf),
            &samples[0].features(Approach::kOffTheShelf));
  EXPECT_TRUE(ok.sample->features(Approach::kOffTheShelf) ==
              samples[0].features(Approach::kOffTheShelf));

  const DecodedSample garbage = decode_sample_payload("garbage");
  EXPECT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.sample, nullptr);
  EXPECT_EQ(garbage.status, ParseStatus::kBadHeader);

  // A multi-record stream is a valid benchmark but NOT a valid wire
  // payload (exactly one sample per request frame).
  std::stringstream multi;
  write_benchmark(multi, samples);
  const DecodedSample too_many = decode_sample_payload(multi.str());
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status, ParseStatus::kBadStructure);

  const DecodedSample none = decode_sample_payload("gnnhls-benchmark v1\n");
  EXPECT_FALSE(none.ok());
  EXPECT_EQ(none.status, ParseStatus::kBadStructure);  // zero records
}

TEST(SerializeNegativeTest, ParseStatusNamesAreStable) {
  EXPECT_EQ(parse_status_name(ParseStatus::kOk), "ok");
  EXPECT_EQ(parse_status_name(ParseStatus::kBadHeader), "bad-header");
  EXPECT_EQ(parse_status_name(ParseStatus::kTruncated), "truncated");
  EXPECT_EQ(parse_status_name(ParseStatus::kBadStructure), "bad-structure");
}

TEST(SerializeTest, FileRoundTrip) {
  const auto samples = tiny_dataset(GraphKind::kCdfg);
  const std::string path = ::testing::TempDir() + "/bench_roundtrip.txt";
  write_benchmark_file(path, samples);
  const auto records = read_benchmark_file(path);
  EXPECT_EQ(records.size(), samples.size());
  EXPECT_THROW(read_benchmark_file(path + ".missing"),
               std::invalid_argument);
}

TEST(DotExportTest, ContainsNodesEdgesAndStyles) {
  const auto samples = tiny_dataset(GraphKind::kCdfg);
  const std::string dot = to_dot(samples[0].graph());
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("n0 "), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_NE(dot.find("color=red"), std::string::npos);  // back edges
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // control edges
}

}  // namespace
}  // namespace gnnhls
