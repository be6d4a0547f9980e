//===- DeviceMemory.cpp - lazily-zeroed device global memory --------------------===//
//
// Part of the Proteus reproduction project.
//
//===----------------------------------------------------------------------===//

#include "gpu/DeviceMemory.h"

#include <algorithm>
#include <cstring>
#include <new>

#include <sys/mman.h>
#include <unistd.h>

using namespace proteus::gpu;

DeviceMemory::DeviceMemory(uint64_t Bytes) { map(Bytes); }

DeviceMemory::~DeviceMemory() { unmap(); }

void DeviceMemory::map(uint64_t NewBytes) {
  Bytes = NewBytes;
  if (NewBytes == 0)
    return; // mmap rejects empty mappings; data() stays null
  void *P = ::mmap(nullptr, NewBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED) {
    Bytes = 0;
    throw std::bad_alloc();
  }
  Base = static_cast<uint8_t *>(P);
}

void DeviceMemory::unmap() {
  if (Base)
    ::munmap(Base, Bytes);
  Base = nullptr;
  Bytes = 0;
}

DeviceMemory &DeviceMemory::operator=(const std::vector<uint8_t> &Image) {
  if (Image.size() != Bytes) {
    unmap();
    map(Image.size());
  }
  // Page-sized chunks: runs of all-zero pages are dropped back to the zero
  // page with one madvise (the mapping is page-aligned), others are copied.
  const uint64_t Page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const std::vector<uint8_t> Zeros(Page, 0);
  uint64_t ZeroFrom = Bytes; // start of the pending zero run, if any
  auto dropZeroRun = [&](uint64_t To) {
    if (ZeroFrom < To &&
        ::madvise(Base + ZeroFrom, To - ZeroFrom, MADV_DONTNEED) != 0)
      std::memset(Base + ZeroFrom, 0, To - ZeroFrom);
    ZeroFrom = Bytes;
  };
  for (uint64_t Off = 0; Off < Bytes; Off += Page) {
    uint64_t Len = std::min(Page, Bytes - Off);
    const uint8_t *Chunk = Image.data() + Off;
    if (Len == Page && std::memcmp(Chunk, Zeros.data(), Len) == 0) {
      ZeroFrom = std::min(ZeroFrom, Off);
      continue;
    }
    dropZeroRun(Off);
    std::memcpy(Base + Off, Chunk, Len);
  }
  dropZeroRun(Bytes);
  return *this;
}

bool DeviceMemory::operator==(const std::vector<uint8_t> &Image) const {
  return Image.size() == Bytes &&
         (Bytes == 0 || std::memcmp(Base, Image.data(), Bytes) == 0);
}
