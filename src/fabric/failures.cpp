#include "fabric/failures.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/profile.hpp"

namespace composim::fabric {

const char* toString(FaultRecord::Kind k) {
  switch (k) {
    case FaultRecord::Kind::Flap: return "flap";
    case FaultRecord::Kind::ErrorBurst: return "error-burst";
    case FaultRecord::Kind::Degrade: return "degrade";
    case FaultRecord::Kind::Falloff: return "falloff";
    case FaultRecord::Kind::HostPortLoss: return "host-port-loss";
    case FaultRecord::Kind::Restore: return "restore";
  }
  return "?";
}

void FaultInjector::record(FaultRecord r) {
  if (ProfileSink* p = sim_.profiler()) {
    ProfileArgs args{{"link", r.link}};
    if (r.link2 != kInvalidLink) args.push_back({"link2", r.link2});
    if (r.kind == FaultRecord::Kind::Degrade) {
      args.push_back({"factor", r.factor});
    }
    if (r.kind == FaultRecord::Kind::ErrorBurst) {
      args.push_back({"errors", r.errors});
    }
    p->instant(p->intern("fault"),
               p->intern(std::string("fault:") + toString(r.kind)), args);
    if (r.kind != FaultRecord::Kind::Restore) {
      ++faults_injected_;
      p->setCounter(p->counterKey("faults_injected", "count"),
                    static_cast<double>(faults_injected_));
    }
  } else if (r.kind != FaultRecord::Kind::Restore) {
    ++faults_injected_;
  }
  history_.push_back(std::move(r));
}

void FaultInjector::bringDown(LinkId link) {
  ++down_depth_[link];
  net_.failLink(link);
}

bool FaultInjector::release(LinkId link) {
  auto it = down_depth_.find(link);
  if (it == down_depth_.end() || it->second <= 0) return false;
  if (--it->second > 0) return false;  // another flap still holds it down
  down_depth_.erase(it);
  topo_.setLinkUp(link, true);
  return true;
}

void FaultInjector::scheduleLinkFlap(LinkId link, SimTime at, SimTime downtime) {
  if (downtime <= 0.0) throw std::invalid_argument("flap downtime must be > 0");
  sim_.schedule(at, [this, link, downtime] {
    record({sim_.now(), link, kInvalidLink, FaultRecord::Kind::Flap});
    bringDown(link);
    sim_.schedule(downtime, [this, link] {
      if (release(link)) {
        record({sim_.now(), link, kInvalidLink, FaultRecord::Kind::Restore});
        net_.notifyTopologyChanged();
      }
    });
  });
}

void FaultInjector::scheduleErrorBurst(LinkId link, SimTime at,
                                       std::uint64_t errors) {
  sim_.schedule(at, [this, link, errors] {
    record({sim_.now(), link, kInvalidLink, FaultRecord::Kind::ErrorBurst, 1.0,
            errors});
    topo_.counters(link).errors += errors;
  });
}

void FaultInjector::scheduleDegrade(LinkId link, SimTime at, double factor) {
  if (factor <= 0.0 || factor > 1.0) {
    throw std::invalid_argument("degrade factor must be in (0, 1]");
  }
  sim_.schedule(at, [this, link, factor] {
    record({sim_.now(), link, kInvalidLink, FaultRecord::Kind::Degrade, factor});
    auto& l = topo_.mutableLink(link);
    l.capacity *= factor;
    ++l.counters.errors;
    net_.notifyTopologyChanged();
  });
}

void FaultInjector::scheduleDeviceFalloff(LinkId up, LinkId down, SimTime at) {
  sim_.schedule(at, [this, up, down] {
    record({sim_.now(), up, down, FaultRecord::Kind::Falloff});
    // Permanent: take both directions down and never release them. A large
    // error burst lands on the counters so the BMC health view shows the
    // uncorrectable-error signature a falling-off device produces.
    bringDown(up);
    bringDown(down);
    topo_.counters(up).errors += 1000;
    topo_.counters(down).errors += 1000;
  });
}

void FaultInjector::scheduleHostPortFlap(LinkId in, LinkId out, SimTime at,
                                         SimTime downtime) {
  if (downtime <= 0.0) {
    throw std::invalid_argument("host-port downtime must be > 0");
  }
  sim_.schedule(at, [this, in, out, downtime] {
    record({sim_.now(), in, out, FaultRecord::Kind::HostPortLoss});
    bringDown(in);
    bringDown(out);
    topo_.counters(in).errors += 10;
    topo_.counters(out).errors += 10;
    sim_.schedule(downtime, [this, in, out] {
      const bool in_up = release(in);
      const bool out_up = release(out);
      if (in_up || out_up) {
        record({sim_.now(), in_up ? in : kInvalidLink,
                out_up ? out : kInvalidLink, FaultRecord::Kind::Restore});
        net_.notifyTopologyChanged();
      }
    });
  });
}

void FaultInjector::scheduleRandomErrorNoise(LinkId link, SimTime meanInterval,
                                             SimTime until) {
  const SimTime next = rng_.exponential(1.0 / meanInterval);
  if (sim_.now() + next > until) return;
  sim_.schedule(next, [this, link, meanInterval, until] {
    record({sim_.now(), link, kInvalidLink, FaultRecord::Kind::ErrorBurst, 1.0,
            1});
    topo_.counters(link).errors += 1;
    scheduleRandomErrorNoise(link, meanInterval, until);
  });
}

}  // namespace composim::fabric
