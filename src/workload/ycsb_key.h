#ifndef SBFT_WORKLOAD_YCSB_KEY_H_
#define SBFT_WORKLOAD_YCSB_KEY_H_

#include <cstdint>
#include <string>

namespace sbft::workload {

/// Canonical record name for YCSB index `i`: the one spelling of the
/// "user<i>" format. The generator formats every access with it, and
/// YcsbGenerator::RecordKeyPredicate (workload/ycsb.cc), the load phase's
/// parser, accepts exactly the strings it returns for i < record_count.
/// The two must agree; YcsbTest.LoadAcceptsExactlyYcsbKeys pins them
/// together. A second spelling (a leading zero, say) would read as a
/// missing record.
inline std::string YcsbKey(uint64_t index) {
  return "user" + std::to_string(index);
}

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_YCSB_KEY_H_
