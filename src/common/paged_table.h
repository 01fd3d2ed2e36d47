#ifndef SBFT_COMMON_PAGED_TABLE_H_
#define SBFT_COMMON_PAGED_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace sbft {

/// \brief Open-addressing hash table: linear probing over a power-of-two
/// number of slots, doubling at 3/4 load, backward-shift erase (no
/// tombstones).
///
/// The slots live in fixed pages of kPageSlots rather than one array.
/// Growth drains the old pages in index order into pages allocated as the
/// drain first touches them, and frees each old page once it is drained.
/// A key's new home is its old one or that plus the old capacity, so the
/// drain touches new pages about in order, and the pages it allocates
/// reuse the chunks of those it freed: growth never asks the heap for one
/// block twice the size of the last. A table starts empty and allocates
/// nothing until its first insert.
///
/// The caller's `Policy` describes the slot, so a slot holds exactly
/// what its owner needs:
///
///     using Key = ...;   // what lookups take
///     using Slot = ...;  // movable; a value-initialised Slot is empty
///     static uint64_t Hash(const Key&);
///     static uint64_t Hash(const Slot&);  // occupied slot: its key's hash
///     static bool Empty(const Slot&);
///     static bool Matches(const Slot&, uint64_t hash, const Key&);
///     static Slot Make(const Key&);  // only for FindOrInsert(key)
///
/// There is no iteration: slot order depends on the hash and the growth
/// history, and no caller may depend on it. A slot pointer is valid until
/// the next insert or erase.
template <typename Policy>
class PagedTable {
 public:
  using Key = typename Policy::Key;
  using Slot = typename Policy::Slot;
  static constexpr size_t kPageSlots = 64;

  /// The key's slot, or nullptr when the key is absent.
  Slot* Find(const Key& key) {
    return const_cast<Slot*>(std::as_const(*this).Find(key));
  }
  const Slot* Find(const Key& key) const {
    if (size_ == 0) return nullptr;
    const Slot& slot = At(Probe(Policy::Hash(key), key));
    return Policy::Empty(slot) ? nullptr : &slot;
  }

  /// The key's slot, and true when the key was absent: `make(hash)`, an
  /// occupied slot for the key, was stored first.
  template <typename Make>
  std::pair<Slot*, bool> FindOrInsert(const Key& key, Make&& make) {
    const uint64_t hash = Policy::Hash(key);
    size_t i = 0;
    if (!pages_.empty()) {
      i = Probe(hash, key);
      if (!Policy::Empty(At(i))) return {&At(i), false};
    }
    if (4 * (size_ + 1) > 3 * capacity()) {
      Grow();
      i = Probe(hash, key);
    }
    Slot& slot = At(i);
    slot = make(hash);
    ++size_;
    return {&slot, true};
  }
  /// As above, storing Policy::Make(key) for an absent key.
  std::pair<Slot*, bool> FindOrInsert(const Key& key) {
    return FindOrInsert(key, [&](uint64_t) { return Policy::Make(key); });
  }

  /// Erases the key; false when it was absent.
  bool Erase(const Key& key) {
    if (size_ == 0) return false;
    size_t hole = Probe(Policy::Hash(key), key);
    if (Policy::Empty(At(hole))) return false;
    // Backward shift: pull each later slot of the run back into the hole
    // when the hole lies between that slot's home and the slot. Moved
    // before its home, a slot would be hidden from lookups.
    for (size_t i = (hole + 1) & Mask(); !Policy::Empty(At(i));
         i = (i + 1) & Mask()) {
      const size_t home = Policy::Hash(At(i)) & Mask();
      if (((i - home) & Mask()) >= ((i - hole) & Mask())) {
        At(hole) = std::move(At(i));
        hole = i;
      }
    }
    At(hole) = Slot{};
    --size_;
    return true;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return pages_.size() * kPageSlots; }

 private:
  using Page = std::unique_ptr<Slot[]>;

  static Page NewPage() { return std::make_unique<Slot[]>(kPageSlots); }

  size_t Mask() const { return capacity() - 1; }
  Slot& At(size_t i) { return pages_[i / kPageSlots][i % kPageSlots]; }
  const Slot& At(size_t i) const {
    return pages_[i / kPageSlots][i % kPageSlots];
  }

  /// The key's slot, or the empty slot that ends its probe. The load cap
  /// keeps an empty slot in every table that has pages.
  size_t Probe(uint64_t hash, const Key& key) const {
    size_t i = hash & Mask();
    while (!Policy::Empty(At(i)) && !Policy::Matches(At(i), hash, key)) {
      i = (i + 1) & Mask();
    }
    return i;
  }

  void Grow() {
    std::vector<Page> old = std::move(pages_);
    pages_ = std::vector<Page>(old.empty() ? 1 : 2 * old.size());
    for (Page& page : old) {
      for (size_t s = 0; s < kPageSlots; ++s) {
        if (Policy::Empty(page[s])) continue;
        size_t i = Policy::Hash(page[s]) & Mask();
        while (true) {
          Page& target = pages_[i / kPageSlots];
          if (target == nullptr) target = NewPage();
          Slot& slot = target[i % kPageSlots];
          if (Policy::Empty(slot)) {
            slot = std::move(page[s]);
            break;
          }
          i = (i + 1) & Mask();
        }
      }
      page.reset();
    }
    for (Page& page : pages_) {
      if (page == nullptr) page = NewPage();
    }
  }

  std::vector<Page> pages_;
  size_t size_ = 0;
};

}  // namespace sbft

#endif  // SBFT_COMMON_PAGED_TABLE_H_
