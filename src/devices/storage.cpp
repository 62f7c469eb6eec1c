#include "devices/storage.hpp"

#include <utility>

namespace composim::devices {

void StorageDevice::read(Bytes bytes, fabric::NodeId destination,
                         AccessPattern pattern,
                         std::function<void(const fabric::FlowResult&)> done) {
  st_.bytes_read += bytes;
  submit(PendingOp{true, bytes, destination, pattern, std::move(done)});
}

void StorageDevice::write(Bytes bytes, fabric::NodeId source,
                          std::function<void(const fabric::FlowResult&)> done) {
  st_.bytes_written += bytes;
  submit(PendingOp{false, bytes, source, AccessPattern::Sequential,
                   std::move(done)});
}

void StorageDevice::submit(PendingOp op) {
  if (busy_) {
    queue_.push_back(std::move(op));
    return;
  }
  busy_ = true;
  dispatch(std::move(op));
}

void StorageDevice::dispatch(PendingOp op) {
  fabric::FlowOptions fo;
  if (op.is_read) {
    fo.maxRate = (op.pattern == AccessPattern::Random)
                     ? spec_.seq_read * spec_.random_read_efficiency
                     : spec_.seq_read;
    fo.tag = read_tag_;
  } else {
    fo.maxRate = spec_.seq_write;
    fo.tag = write_tag_;
  }
  fo.extraLatency = spec_.access_latency;

  auto completion = [this, cb = std::move(op.done)](const fabric::FlowResult& r) {
    // Free the media before the caller reacts, then drain the queue.
    if (queue_.empty()) {
      busy_ = false;
    } else {
      PendingOp next = std::move(queue_.front());
      queue_.pop_front();
      dispatch(std::move(next));
    }
    if (cb) cb(r);
  };
  if (op.is_read) {
    net_.startFlow(node_, op.peer, op.bytes, std::move(completion), fo);
  } else {
    net_.startFlow(op.peer, node_, op.bytes, std::move(completion), fo);
  }
}

}  // namespace composim::devices
