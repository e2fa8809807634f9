// The 9-node NodeService fleet every workload runs, with its generated
// tables.  Construction order is fixed so set-up time is steady: every
// transport (so every TCP listener) exists before any service starts, and
// warmUp() opens every directed link before the clock starts.  Nothing in
// set-up waits on TcpTransport's refused-connect retry.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "capture.hpp"
#include "helpers.hpp"
#include "data/database.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "query/service.hpp"

namespace perfbench {

inline constexpr std::size_t kNodes = 9;
inline constexpr const char* kTable = "sales";
inline constexpr const char* kValue = "revenue";
/// Integer category column for filtered queries, uniform over [0, kRegions).
inline constexpr const char* kRegion = "region";
inline constexpr Value kRegions = 16;

/// Per-node tables: `rows` rows of (revenue uniform over the paper's
/// domain [1, 10000], region uniform over [0, kRegions)).  Deterministic
/// in `seed`.
[[nodiscard]] std::vector<privtopk::data::PrivateDatabase> generateTables(
    std::size_t rows, std::uint64_t seed);

/// `initiator` followed by the other nodes in id order (rotated ring).
[[nodiscard]] std::vector<NodeId> ringFrom(NodeId initiator);

class Fleet {
 public:
  /// Builds the transports (loopback TCP when `tcp`, else one in-process
  /// transport), wraps each endpoint in a CaptureTransport when `capture`,
  /// then constructs and starts one NodeService per node with default
  /// ServiceOptions.  Service seeds derive from `seed`.
  Fleet(std::vector<privtopk::data::PrivateDatabase> tables, bool tcp,
        bool capture, std::uint64_t seed);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Runs one cheap query over rings that together use every directed
  /// link, so lazy connects happen here and not under measurement.
  void warmUp();

  [[nodiscard]] privtopk::query::NodeService& node(NodeId id) {
    return *services_.at(id);
  }
  [[nodiscard]] const std::vector<privtopk::data::PrivateDatabase>& tables()
      const {
    return tables_;
  }
  /// Bytes every transport has sent so far.
  [[nodiscard]] std::size_t wireBytes() const;
  /// The capture wrappers (empty unless built with `capture`).
  [[nodiscard]] const std::vector<std::unique_ptr<CaptureTransport>>&
  captures() const {
    return captures_;
  }

 private:
  std::vector<privtopk::data::PrivateDatabase> tables_;
  std::unique_ptr<privtopk::net::InProcTransport> inproc_;
  std::vector<std::unique_ptr<privtopk::net::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<CaptureTransport>> captures_;
  std::vector<std::unique_ptr<privtopk::query::NodeService>> services_;
};

}  // namespace perfbench
