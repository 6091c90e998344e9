// FileStore: a flat name -> extent catalog over one block device.
//
// This is the "local scratch disk at the compute site" of the pre-GFS
// grid workflow: GridFTP stages whole files into it before a job runs
// and drains results out of it afterwards (paper §1). Files are laid
// out contiguously; delete frees the extent (first-fit reuse).
#pragma once

#include <map>
#include <string>

#include "common/result.hpp"
#include "storage/block_device.hpp"

namespace mgfs::gridftp {

struct Extent {
  Bytes offset = 0;
  Bytes size = 0;
};

class FileStore {
 public:
  explicit FileStore(storage::BlockDevice& dev) : dev_(dev) {}

  storage::BlockDevice& device() { return dev_; }
  Bytes capacity() const { return dev_.capacity(); }
  Bytes used() const { return used_; }
  Bytes free_bytes() const { return capacity() - used_; }

  /// Reserve space for a file (no_space if it cannot fit).
  Result<Extent> add(const std::string& name, Bytes size);
  Result<Extent> lookup(const std::string& name) const;
  bool contains(const std::string& name) const;
  Status remove(const std::string& name);

 private:
  storage::BlockDevice& dev_;
  std::map<std::string, Extent> files_;
  // free list kept sorted by offset; adjacent holes merge on free
  std::map<Bytes, Bytes> holes_;  // offset -> size
  bool initialized_ = false;
  Bytes used_ = 0;
};

}  // namespace mgfs::gridftp
