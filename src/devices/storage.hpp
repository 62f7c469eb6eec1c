// composim: storage device model (NVMe drives, boot SSD).
//
// Reads and writes are issued as fabric flows from/to the storage node, so
// a Falcon-attached NVMe naturally pays the drawer-switch + host-adapter
// path while a local NVMe rides PCIe3 to the root complex. The device's
// own media rate is applied as a flow rate cap; small random reads (the
// many-small-files pattern of vision datasets) are derated by the spec's
// random_read_efficiency. Operations on one device serialize — the media
// is the shared resource, so N concurrent readers share one media rate
// rather than each getting it.
#pragma once

#include <deque>
#include <functional>
#include <stdexcept>
#include <string>

#include "devices/specs.hpp"
#include "fabric/flow_network.hpp"

namespace composim::devices {

enum class AccessPattern { Sequential, Random };

class StorageDevice {
 public:
  StorageDevice(fabric::FlowNetwork& net, fabric::NodeId node, StorageSpec spec,
                std::string name)
      : net_(net),
        node_(node),
        spec_(std::move(spec)),
        name_(std::move(name)),
        read_tag_(name_ + ":read"),
        write_tag_(name_ + ":write") {}

  StorageDevice(const StorageDevice&) = delete;
  StorageDevice& operator=(const StorageDevice&) = delete;

  const std::string& name() const { return name_; }
  fabric::NodeId node() const { return node_; }
  const StorageSpec& spec() const { return spec_; }

  /// Re-point the device at a different fabric node — an NVMe spare
  /// mounted in a new slot after the original fell off the bus. In-flight
  /// ops finish (or fail) against the old node; queued ops dispatch
  /// against the new one.
  void retarget(fabric::NodeId node) { node_ = node; }

  /// Read `bytes` into the memory at `destination` (a fabric node).
  void read(Bytes bytes, fabric::NodeId destination, AccessPattern pattern,
            std::function<void(const fabric::FlowResult&)> done);

  /// Write `bytes` from `source` onto the device.
  void write(Bytes bytes, fabric::NodeId source,
             std::function<void(const fabric::FlowResult&)> done);

  Bytes bytesRead() const { return st_.bytes_read; }
  Bytes bytesWritten() const { return st_.bytes_written; }
  std::size_t queuedOps() const { return queue_.size(); }

  /// Quiescent-point snapshot (no op in flight or queued).
  struct State {
    Bytes bytes_read = 0;
    Bytes bytes_written = 0;
  };

  State state() const {
    if (busy_ || !queue_.empty()) {
      throw std::logic_error("StorageDevice::state: ops in flight on " + name_);
    }
    return st_;
  }

  void restoreState(const State& st) {
    if (busy_ || !queue_.empty()) {
      throw std::logic_error("StorageDevice::restoreState: ops in flight on " +
                             name_);
    }
    st_ = st;
  }

 private:
  struct PendingOp {
    bool is_read = true;
    Bytes bytes = 0;
    fabric::NodeId peer = fabric::kInvalidNode;
    AccessPattern pattern = AccessPattern::Sequential;
    std::function<void(const fabric::FlowResult&)> done;
  };

  void submit(PendingOp op);
  void dispatch(PendingOp op);

  fabric::FlowNetwork& net_;
  fabric::NodeId node_;
  StorageSpec spec_;
  std::string name_;
  std::string read_tag_;   // flow span names, built once
  std::string write_tag_;
  State st_;
  bool busy_ = false;
  std::deque<PendingOp> queue_;
};

}  // namespace composim::devices
