// Cache of open SSTable readers, keyed by file number. Thread-safe; the
// read path of every DB variant funnels disk probes through here.
#ifndef CLSM_LSM_TABLE_CACHE_H_
#define CLSM_LSM_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/lsm/dbformat.h"
#include "src/table/cache.h"
#include "src/table/table.h"
#include "src/util/env.h"
#include "src/util/options.h"

namespace clsm {

class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options,
             const InternalKeyComparator* icmp, const FilterPolicy* filter_policy,
             Cache* block_cache, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  ~TableCache();

  // Iterator over the named file; if tableptr is non-null it receives the
  // underlying Table (owned by the cache, valid while the iterator lives).
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number, uint64_t file_size,
                        Table** tableptr = nullptr);

  // Point lookup inside the named file (see Table::InternalGet).
  Status Get(const ReadOptions& options, uint64_t file_number, uint64_t file_size,
             const Slice& internal_key, void* arg,
             bool (*handle_result)(void*, const Slice&, const Slice&));

  // Drop any cached entry for the file (called when the file is deleted).
  void Evict(uint64_t file_number);

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size, Cache::Handle**);

  Env* const env_;
  const std::string dbname_;
  const Options& options_;
  const InternalKeyComparator* icmp_;
  const FilterPolicy* filter_policy_;
  Cache* block_cache_;
  Cache* cache_;
};

}  // namespace clsm

#endif  // CLSM_LSM_TABLE_CACHE_H_
