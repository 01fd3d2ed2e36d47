#ifndef SBFT_WORKLOAD_KEY_PARSE_H_
#define SBFT_WORKLOAD_KEY_PARSE_H_

#include <charconv>
#include <cstdint>
#include <string_view>

namespace sbft::workload {

// The families spell record keys as literals and std::to_string decimals.
// Their load-phase predicates take a key apart with these two helpers and
// accept it only when nothing is left over, so a predicate accepts exactly
// the strings its formatters produce.

/// Strips `literal` from the front of `*key`; false, leaving the key
/// untouched, when the key does not start with it.
inline bool ConsumeLiteral(std::string_view* key, std::string_view literal) {
  if (!key->starts_with(literal)) return false;
  key->remove_prefix(literal.size());
  return true;
}

/// Strips a decimal below `bound` from the front of `*key`, spelled as
/// std::to_string spells an unsigned value: at least one digit, no sign,
/// no leading zero and nothing past uint64_t. False, leaving the key
/// untouched, when the key does not start with one.
inline bool ConsumeIndex(std::string_view* key, uint64_t bound) {
  const char* begin = key->data();
  uint64_t value = 0;
  auto [end, error] = std::from_chars(begin, begin + key->size(), value);
  if (error != std::errc() || (*begin == '0' && end - begin > 1) ||
      value >= bound) {
    return false;
  }
  key->remove_prefix(static_cast<size_t>(end - begin));
  return true;
}

}  // namespace sbft::workload

#endif  // SBFT_WORKLOAD_KEY_PARSE_H_
