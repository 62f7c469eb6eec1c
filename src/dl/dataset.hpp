// composim: dataset descriptors for the input pipeline.
//
// Captures what the data loader does per sample: bytes fetched from
// storage (with read amplification for augmentations like YOLOv5's
// mosaic, which loads four images per training sample), CPU preprocessing
// cost (JPEG decode + augmentation for vision; tokenized features for
// SQuAD are nearly free), and the on-device tensor size.
#pragma once

#include <cstdint>
#include <string>

#include "sim/units.hpp"

namespace composim::dl {

struct DatasetSpec {
  std::string name;
  std::int64_t train_samples = 0;
  Bytes disk_bytes_per_sample = 0;
  double read_amplification = 1.0;   // storage bytes = disk_bytes * amp
  /// Fraction of reads that actually reach the storage device on a warm
  /// system (the rest hit the page cache). Sequentially-read, well-cached
  /// datasets approach 0; YOLOv5's 4x-amplified random mosaic pattern
  /// defeats readahead and stays near 1.
  double uncached_read_fraction = 1.0;
  SimTime cpu_preprocess_per_sample = 0.0;
  Bytes device_bytes_per_sample = 0;  // FP16 tensor shipped to the GPU

  Bytes storageBytesPerSample() const {
    return static_cast<Bytes>(static_cast<double>(disk_bytes_per_sample) *
                              read_amplification * uncached_read_fraction);
  }
  Bytes totalSizeOnDisk() const { return train_samples * disk_bytes_per_sample; }
};

}  // namespace composim::dl
