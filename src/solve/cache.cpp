#include "solve/cache.hpp"

#include "solve/disk_cache.hpp"

namespace mf::solve {

ResultCache::ResultCache(std::size_t capacity, DiskCache* disk)
    : capacity_(capacity > 0 ? capacity : 1), disk_(disk) {}

bool ResultCache::store_locked(const CacheKey& key, const SolveResult& result) {
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->result = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return false;
  }
  lru_.push_front(Entry{key, result});
  index_.emplace(key, lru_.begin());
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
  return true;
}

std::optional<SolveResult> ResultCache::lookup(const CacheKey& key) {
  {
    std::lock_guard lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return it->second->result;
    }
    if (disk_ == nullptr) {
      ++misses_;
      return std::nullopt;
    }
  }
  // The disk read runs unlocked; a twin promoted meanwhile is refreshed.
  std::optional<SolveResult> hit = disk_->lookup(key);
  std::lock_guard lock(mutex_);
  if (hit.has_value()) {
    store_locked(key, *hit);
    ++hits_;
  } else {
    ++misses_;
  }
  return hit;
}

void ResultCache::insert(const CacheKey& key, const SolveResult& result) {
  {
    std::lock_guard lock(mutex_);
    if (store_locked(key, result)) ++insertions_;
  }
  if (disk_ != nullptr) disk_->insert(key, result);
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  {
    std::lock_guard lock(mutex_);
    stats.hits = hits_;
    stats.misses = misses_;
    stats.insertions = insertions_;
    stats.evictions = evictions_;
    stats.size = lru_.size();
  }
  if (disk_ != nullptr) {
    const CacheStats disk = disk_->stats();
    stats.evictions += disk.evictions;
    stats.size = disk.size;
    stats.bytes = disk.bytes;
  }
  return stats;
}

void ResultCache::clear() {
  {
    std::lock_guard lock(mutex_);
    index_.clear();
    lru_.clear();
  }
  if (disk_ != nullptr) disk_->clear();
}

std::string ResultCache::describe() const {
  std::string text = "memory-lru(" + std::to_string(capacity_) + ")";
  if (disk_ != nullptr) text += " over " + disk_->describe();
  return text;
}

ResultCache& ResultCache::global() {
  static ResultCache cache;
  return cache;
}

}  // namespace mf::solve
