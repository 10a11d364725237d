#ifndef KRCORE_SNAPSHOT_MAPPED_FILE_H_
#define KRCORE_SNAPSHOT_MAPPED_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace krcore {

/// Read-only owner of a snapshot file's bytes. Prefers a private read-only
/// mmap (zero-copy: the on-disk layout IS the in-memory CSR layout, so
/// pages fault in only when a component is first touched); when mmap is
/// unavailable or fails — or the `snapshot/mmap` failpoint is armed — it
/// falls back to a plain read into a 64-byte-aligned heap buffer, which
/// preserves the alignment guarantees the borrowed array views rely on.
///
/// PreparedWorkspace::backing holds one of these for the lifetime of every
/// borrowed component view carved from it.
class SnapshotMapping {
 public:
  /// Opens `path` and maps (or reads) all of it. NotFound when the file
  /// cannot be opened; Internal on read errors.
  static Status Open(const std::string& path,
                     std::shared_ptr<const SnapshotMapping>* out);

  ~SnapshotMapping();
  SnapshotMapping(const SnapshotMapping&) = delete;
  SnapshotMapping& operator=(const SnapshotMapping&) = delete;

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  /// True when the bytes are a real mmap (false: aligned heap fallback).
  bool mapped() const { return mapped_; }

 private:
  SnapshotMapping() = default;

  struct AlignedFree {
    void operator()(uint8_t* p) const;
  };

  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  bool mapped_ = false;
  void* map_addr_ = nullptr;  // munmap handle when mapped_
  std::unique_ptr<uint8_t[], AlignedFree> heap_;
};

}  // namespace krcore

#endif  // KRCORE_SNAPSHOT_MAPPED_FILE_H_
