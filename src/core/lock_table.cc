#include "core/lock_table.h"

#include <algorithm>

namespace sbft::core {

const std::string* LockTable::FirstBlocked(
    const std::vector<std::string>& keys, Owner self) const {
  if (locks_.empty()) return nullptr;
  for (const std::string& key : keys) {
    auto it = locks_.find(key);
    if (it != locks_.end() && it->second != self) return &key;
  }
  return nullptr;
}

bool LockTable::TryAcquire(Owner owner,
                           const std::vector<std::string>& keys) {
  if (FirstBlocked(keys, owner) != nullptr) return false;
  for (const std::string& key : keys) {
    AcquireOne(owner, key);
  }
  return true;
}

bool LockTable::AcquireOne(Owner owner, const std::string& key) {
  auto [it, inserted] = locks_.emplace(key, owner);
  if (inserted) {
    held_[owner].push_back(key);
    return true;
  }
  return it->second == owner;
}

std::vector<std::string> LockTable::ReleaseOwner(Owner owner) {
  auto it = held_.find(owner);
  if (it == held_.end()) return {};
  std::vector<std::string> released = std::move(it->second);
  held_.erase(it);
  for (const std::string& key : released) {
    auto lock_it = locks_.find(key);
    if (lock_it != locks_.end() && lock_it->second == owner) {
      locks_.erase(lock_it);
    }
  }
  return released;
}

bool LockTable::Enqueue(const std::string& key, WaiterId waiter) {
  auto it = queues_.find(key);
  size_t depth = it == queues_.end() ? 0 : it->second.size();
  if (depth >= max_queue_depth_) {
    ++enqueue_refusals_;
    return false;
  }
  if (it == queues_.end()) it = queues_.try_emplace(key).first;
  it->second.push_back(waiter);
  ++total_waiters_;
  peak_queue_depth_ =
      std::max(peak_queue_depth_, static_cast<uint32_t>(depth + 1));
  return true;
}

std::vector<LockTable::WaiterId> LockTable::DrainWaiters(
    const std::string& key) {
  auto it = queues_.find(key);
  if (it == queues_.end()) return {};
  std::vector<WaiterId> drained(it->second.begin(), it->second.end());
  total_waiters_ -= it->second.size();
  queues_.erase(it);
  return drained;
}

}  // namespace sbft::core
