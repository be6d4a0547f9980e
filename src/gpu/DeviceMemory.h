//===- DeviceMemory.h - lazily-zeroed device global memory ------*- C++ -*-===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backing store of a simulated device's global memory: one anonymous
/// private mapping. Pages read as zero and are only allocated by the host
/// when first written, so bringing up a 256 MiB device costs one mmap
/// instead of a 256 MiB zero-fill, and a program's resident footprint is
/// the memory it actually touches. The interface is the slice of
/// std::vector<uint8_t> that device users rely on (data/size/indexing/
/// iteration, whole-image snapshot, compare and restore), so snapshotting
/// stays explicit: converting to a vector copies the whole image.
///
//===----------------------------------------------------------------------===//

#ifndef PROTEUS_GPU_DEVICEMEMORY_H
#define PROTEUS_GPU_DEVICEMEMORY_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace proteus {
namespace gpu {

class DeviceMemory {
public:
  /// Maps \p Bytes of zero-reading memory; throws std::bad_alloc when the
  /// mapping fails.
  explicit DeviceMemory(uint64_t Bytes);
  ~DeviceMemory();

  DeviceMemory(const DeviceMemory &) = delete;
  DeviceMemory &operator=(const DeviceMemory &) = delete;

  uint8_t *data() { return Base; }
  const uint8_t *data() const { return Base; }
  uint64_t size() const { return Bytes; }

  uint8_t &operator[](uint64_t I) { return Base[I]; }
  const uint8_t &operator[](uint64_t I) const { return Base[I]; }

  uint8_t *begin() { return Base; }
  uint8_t *end() { return Base + Bytes; }
  const uint8_t *begin() const { return Base; }
  const uint8_t *end() const { return Base + Bytes; }

  /// Replaces the whole image with \p Image (remapping when the size
  /// differs). All-zero pages of \p Image are returned to the lazily-zeroed
  /// state instead of being written, so restoring a mostly-empty snapshot
  /// does not make the whole device resident.
  DeviceMemory &operator=(const std::vector<uint8_t> &Image);

  /// Byte-wise equality with a host image of the whole device.
  bool operator==(const std::vector<uint8_t> &Image) const;

  /// Copies the whole image (a snapshot).
  operator std::vector<uint8_t>() const {
    return std::vector<uint8_t>(begin(), end());
  }

private:
  void map(uint64_t NewBytes);
  void unmap();

  uint8_t *Base = nullptr;
  uint64_t Bytes = 0;
};

} // namespace gpu
} // namespace proteus

#endif // PROTEUS_GPU_DEVICEMEMORY_H
