// Benchmark serialization — the paper's released-benchmark deliverable
// ("we build a standard benchmark ... to benefit follow-up researches").
//
// A dataset is written as a line-oriented text format that is diffable,
// versioned and loadable without this library:
//
//   gnnhls-benchmark v1
//   graph <name> <kind> <num_nodes> <num_edges>
//   qor <dsp> <lut> <ff> <cp_ns>
//   report <dsp> <lut> <ff> <cp_ns>
//   node <type> <opcode> <bitwidth> <start> <cluster> <const> ...
//        ... <uses_dsp> <uses_lut> <uses_ff> <dsp> <lut> <ff> (x num_nodes)
//   edge <src> <dst> <type> <back>                            (x num_edges)
//   end
//
// Round-tripping is exact for everything a predictor consumes (features,
// topology, labels); block-level scheduling info is intentionally not
// serialized — it is an HLS-internal, not part of the benchmark format.
//
// Error handling: decoding never aborts the process. Corrupted, truncated
// or hostile input surfaces as a typed ParseStatus — either via
// try_read_benchmark (non-throwing, the network serving path maps statuses
// onto wire reject codes) or via read_benchmark, which throws
// BenchmarkParseError (an std::invalid_argument carrying the same status).
//
// The same format doubles as the serving tier's wire payload: a request
// frame (serve/wire.h) carries exactly one sample encoded with
// encode_sample_payload, and the TCP endpoint rebuilds an inference-ready
// Sample with decode_sample_payload.
#pragma once

#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/dataset.h"

namespace gnnhls {

/// A deserialized benchmark record: annotated graph + labels.
/// (No LoweredProgram — consumers of a serialized benchmark never re-run
/// HLS, exactly like users of the paper's released dataset.)
struct BenchmarkRecord {
  IrGraph graph;
  GraphTensors tensors;
  QualityOfResult truth;
  QualityOfResult hls_report;
  std::string origin;

  BenchmarkRecord() : graph(GraphKind::kDfg) {}
};

/// Why a decode failed. kOk is the only success value; everything else names
/// the first malformed element the parser hit, so a serving front-end can
/// report *what* was wrong with a payload instead of a bare failure.
enum class ParseStatus {
  kOk = 0,
  /// Missing or wrong "gnnhls-benchmark v1" magic line.
  kBadHeader,
  /// Malformed "graph <name> <kind> <nodes> <edges>" line (unknown kind,
  /// non-numeric or negative dimensions).
  kBadGraphHeader,
  /// Malformed qor/report label line.
  kBadQor,
  /// Malformed node line (bad field count, out-of-range type/opcode).
  kBadNode,
  /// Malformed edge line (bad fields, endpoint out of range, or an edge the
  /// graph kind forbids — e.g. a control edge in a DFG).
  kBadEdge,
  /// Input ended mid-record (nodes/edges/end marker missing).
  kTruncated,
  /// Lines parsed but the assembled graph violates a structural invariant
  /// (e.g. forward edges form a cycle), or a payload did not contain
  /// exactly one record.
  kBadStructure,
};

std::string parse_status_name(ParseStatus s);

/// The typed exception read_benchmark throws. Derives from
/// std::invalid_argument so pre-existing callers (and tests) that only know
/// the old contract keep working.
class BenchmarkParseError : public std::invalid_argument {
 public:
  BenchmarkParseError(ParseStatus status, const std::string& what)
      : std::invalid_argument("benchmark parse error: " + what),
        status_(status) {}
  ParseStatus status() const { return status_; }

 private:
  ParseStatus status_;
};

/// Outcome of a non-throwing decode: status + message describe the first
/// error; records holds everything parsed on success (and is empty on
/// failure — partial records are never returned).
struct ParseResult {
  ParseStatus status = ParseStatus::kOk;
  std::string message;
  std::vector<BenchmarkRecord> records;
  bool ok() const { return status == ParseStatus::kOk; }
};

/// Writes samples in benchmark format. Throws on I/O failure.
void write_benchmark(std::ostream& os, const std::vector<Sample>& samples);
void write_benchmark_file(const std::string& path,
                          const std::vector<Sample>& samples);

/// Reads a benchmark stream; validates the header and graph structure.
/// Throws BenchmarkParseError on malformed input.
std::vector<BenchmarkRecord> read_benchmark(std::istream& is);
std::vector<BenchmarkRecord> read_benchmark_file(const std::string& path);

/// Non-throwing decode; see ParseResult.
ParseResult try_read_benchmark(std::istream& is);

// ----- single-sample wire payloads (serve/ TCP endpoint) -----

/// Writes ONE sample in benchmark format (versioned header + one record).
void write_benchmark_sample(std::ostream& os, const Sample& sample);

/// The sample as a self-contained benchmark-format string — the payload of
/// a wire request frame. decode_sample_payload inverts it exactly for
/// everything inference consumes (the rebuilt tensors match bitwise, so a
/// prediction on the decoded sample is bit-identical to one on the
/// original).
std::string encode_sample_payload(const Sample& sample);

/// Rebuilds an inference-ready Sample from a decoded record: the graph and
/// tensors move over, labels/origin copy, and a fresh uid is minted. The
/// sample has no basic-block info (blocks are HLS-internal, not
/// serialized), so it can be predicted on but not pushed through the HLS
/// flow again.
Sample sample_from_record(BenchmarkRecord&& rec);

/// Outcome of decoding a wire payload. On success `sample` is non-null and
/// the status is kOk; on failure `sample` is null and status/message say
/// why (including kBadStructure when the payload does not hold exactly one
/// record).
struct DecodedSample {
  ParseStatus status = ParseStatus::kOk;
  std::string message;
  std::shared_ptr<Sample> sample;
  bool ok() const { return status == ParseStatus::kOk; }
};

/// Non-throwing inverse of encode_sample_payload.
DecodedSample decode_sample_payload(const std::string& payload);

}  // namespace gnnhls
