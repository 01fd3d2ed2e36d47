#ifndef SBFT_SIM_REGION_H_
#define SBFT_SIM_REGION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.h"

namespace sbft::sim {

/// Index into a RegionTable.
using RegionId = uint32_t;

/// \brief Geographic model of cloud regions.
///
/// Inter-region round-trip times are derived from great-circle distance at
/// effective fiber speed (~2/3 c) with a route-inflation factor plus fixed
/// overhead — the standard first-order WAN model. This substitutes for the
/// paper's real OCI↔AWS topology (DESIGN.md §16) while preserving the
/// property the experiments rely on: nearby regions answer first
/// (paper §IX-E).
class RegionTable {
 public:
  struct Region {
    std::string name;
    double latitude;
    double longitude;
  };

  /// Builds a table from explicit region descriptors.
  explicit RegionTable(std::vector<Region> regions);

  /// The paper's 11 AWS Lambda regions in its listed order (§IX Setup):
  /// North California, Oregon, Ohio, Canada, Frankfurt, Ireland, London,
  /// Paris, Stockholm, Seoul, Singapore — plus the OCI site hosting
  /// clients/shim/verifier (index 0, co-located with North California).
  static RegionTable Aws11();

  size_t size() const { return regions_.size(); }
  const Region& region(RegionId id) const { return regions_[id]; }

  /// Region id 0: the on-premise / OCI site in this table.
  static constexpr RegionId kHomeRegion = 0;

  /// Round-trip time between two regions (intra-region pairs get a small
  /// LAN RTT).
  SimDuration Rtt(RegionId a, RegionId b) const;

  /// One-way propagation delay (Rtt / 2).
  SimDuration OneWay(RegionId a, RegionId b) const;

  /// Index lookup by name; returns size() when absent.
  RegionId FindByName(const std::string& name) const;

 private:
  std::vector<Region> regions_;
  std::vector<std::vector<SimDuration>> rtt_;  // Precomputed matrix.
};

}  // namespace sbft::sim

#endif  // SBFT_SIM_REGION_H_
