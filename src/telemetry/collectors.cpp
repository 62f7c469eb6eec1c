#include "telemetry/collectors.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "devices/gpu.hpp"
#include "devices/host_cpu.hpp"
#include "dl/trainer.hpp"
#include "fabric/topology.hpp"
#include "falcon/bmc.hpp"

namespace composim::telemetry {

namespace {

Simulator& scraperSim(MetricsScraper& scraper, const char* who) {
  Simulator* sim = scraper.simulator();
  if (sim == nullptr) {
    throw std::logic_error(std::string(who) + ": scraper already finalized");
  }
  return *sim;
}

std::string slotLabel(const falcon::SlotId& slot) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d/%d", slot.drawer, slot.index);
  return buf;
}

// RateProbe state flattening for the scraper's collector save/load hooks:
// 4 doubles per probe (last_value, last_rate, last_time, primed), appended
// in a fixed order per collector so a fork built from the same config
// round-trips exactly.
void pushProbe(MetricsScraper::CollectorState& out, const RateProbe& probe) {
  const RateProbe::State st = probe.state();
  out.push_back(st.last_value);
  out.push_back(st.last_rate);
  out.push_back(st.last_time);
  out.push_back(st.primed ? 1.0 : 0.0);
}

std::size_t popProbe(const MetricsScraper::CollectorState& in, std::size_t i,
                     RateProbe& probe) {
  RateProbe::State st;
  st.last_value = in.at(i);
  st.last_rate = in.at(i + 1);
  st.last_time = in.at(i + 2);
  st.primed = in.at(i + 3) != 0.0;
  probe.setState(st);
  return i + 4;
}

}  // namespace

double RateProbe::operator()() {
  const double value = cumulative_();
  const SimTime now = sim_.now();
  if (primed_ && now <= last_time_) {
    // Back-to-back polls at the same instant: no interval to differentiate
    // over, so hold the last computed rate (and leave the baseline alone —
    // the in-between counter delta still counts toward the next interval).
    return last_rate_;
  }
  if (primed_) {
    last_rate_ = (value - last_value_) / (now - last_time_) * scale_;
  }
  last_value_ = value;
  last_time_ = now;
  primed_ = true;
  return last_rate_;
}

void collectGpus(MetricsScraper& scraper, MetricsRegistry& registry,
                 std::vector<const devices::Gpu*> gpus) {
  if (gpus.empty()) return;
  Simulator& sim = scraperSim(scraper, "collectGpus");
  const double per_gpu_pct = 100.0 / static_cast<double>(gpus.size());

  // Communication-kernel busy time is credited at collective completion,
  // which can land a whole window's worth of busy seconds in one sample;
  // clamp like nvidia-smi (utilization never reads above 100%).
  auto busy = std::make_shared<RateProbe>(
      sim,
      [gpus] {
        double total = 0.0;
        for (const auto* g : gpus) total += g->busyTime();
        return total;
      },
      per_gpu_pct);
  auto mem_busy = std::make_shared<RateProbe>(
      sim,
      [gpus] {
        double total = 0.0;
        for (const auto* g : gpus) total += g->memBusyTime();
        return total;
      },
      per_gpu_pct);

  Gauge& util = registry.gauge("gpu_util_pct", {},
                               "Mean GPU utilization over the gang, percent");
  Gauge& mem_access = registry.gauge(
      "gpu_mem_access_pct", {},
      "Mean GPU memory-access time over the gang, percent");
  Gauge& mem_util = registry.gauge("gpu_mem_util_pct", {},
                                   "Mean allocated GPU memory, percent");
  scraper.addCollector(
      [gpus, busy, mem_busy, &util, &mem_access, &mem_util] {
        util.set(std::min(100.0, (*busy)()));
        mem_access.set((*mem_busy)());
        double total = 0.0;
        for (const auto* g : gpus) total += g->memoryUtilization();
        mem_util.set(100.0 * total / static_cast<double>(gpus.size()));
      },
      [busy, mem_busy] {
        MetricsScraper::CollectorState st;
        pushProbe(st, *busy);
        pushProbe(st, *mem_busy);
        return st;
      },
      [busy, mem_busy](const MetricsScraper::CollectorState& st) {
        popProbe(st, popProbe(st, 0, *busy), *mem_busy);
      });
}

void collectHostCpu(MetricsScraper& scraper, MetricsRegistry& registry,
                    const devices::HostCpu& cpu) {
  Simulator& sim = scraperSim(scraper, "collectHostCpu");
  auto busy = std::make_shared<RateProbe>(
      sim, [&cpu] { return cpu.busyThreadTime(); },
      100.0 / cpu.totalThreads());
  Gauge& util =
      registry.gauge("cpu_util_pct", {}, "Host CPU utilization, percent");
  Gauge& mem = registry.gauge("host_mem_util_pct", {},
                              "Host memory utilization, percent");
  scraper.addCollector(
      [&cpu, busy, &util, &mem] {
        util.set((*busy)());
        mem.set(100.0 * cpu.memoryUtilization());
      },
      [busy] {
        MetricsScraper::CollectorState st;
        pushProbe(st, *busy);
        return st;
      },
      [busy](const MetricsScraper::CollectorState& st) {
        popProbe(st, 0, *busy);
      });
}

void collectFalconPcie(MetricsScraper& scraper, MetricsRegistry& registry,
                       std::function<double()> portBytes) {
  Simulator& sim = scraperSim(scraper, "collectFalconPcie");
  auto rate = std::make_shared<RateProbe>(sim, std::move(portBytes), 1e-9);
  Gauge& gbs = registry.gauge(
      "falcon_pcie_gbs", {},
      "Aggregate Falcon GPU-port PCIe traffic, gigabytes per second");
  scraper.addCollector(
      [rate, &gbs] { gbs.set((*rate)()); },
      [rate] {
        MetricsScraper::CollectorState st;
        pushProbe(st, *rate);
        return st;
      },
      [rate](const MetricsScraper::CollectorState& st) {
        popProbe(st, 0, *rate);
      });
}

void collectFabricLinks(MetricsScraper& scraper, MetricsRegistry& registry,
                        const fabric::Topology& topo,
                        std::vector<LinkProbe> links) {
  if (links.empty()) return;
  Simulator& sim = scraperSim(scraper, "collectFabricLinks");
  struct LinkState {
    fabric::LinkId link;
    std::shared_ptr<RateProbe> bytes_gbs;
    Gauge* throughput;
    Gauge* util;
    Gauge* up;
  };
  auto states = std::make_shared<std::vector<LinkState>>();
  states->reserve(links.size());
  for (const LinkProbe& lp : links) {
    const fabric::LinkId id = lp.link;
    LinkState st;
    st.link = id;
    st.bytes_gbs = std::make_shared<RateProbe>(
        sim,
        [&topo, id] {
          return static_cast<double>(topo.link(id).counters.bytes);
        },
        1e-9);
    const Labels labels{{"link", lp.name}};
    st.throughput =
        &registry.gauge("link_throughput_gbs", labels,
                        "Per-link carried traffic, gigabytes per second");
    st.util = &registry.gauge("link_util_pct", labels,
                              "Per-link utilization of capacity, percent");
    st.up = &registry.gauge("link_up", labels, "Link state: 1 up, 0 down");
    states->push_back(std::move(st));
  }
  scraper.addCollector(
      [&topo, states] {
        for (LinkState& st : *states) {
          const fabric::Link& link = topo.link(st.link);
          const double gbs = (*st.bytes_gbs)();
          st.throughput->set(gbs);
          st.util->set(link.capacity > 0.0 ? 100.0 * gbs * 1e9 / link.capacity
                                           : 0.0);
          st.up->set(link.up ? 1.0 : 0.0);
        }
      },
      [states] {
        MetricsScraper::CollectorState st;
        for (const LinkState& ls : *states) pushProbe(st, *ls.bytes_gbs);
        return st;
      },
      [states](const MetricsScraper::CollectorState& st) {
        std::size_t i = 0;
        for (LinkState& ls : *states) i = popProbe(st, i, *ls.bytes_gbs);
      });
}

std::vector<LinkProbe> hostAdapterLinks(const fabric::Topology& topo) {
  std::vector<LinkProbe> out;
  for (std::size_t l = 0; l < topo.linkCount(); ++l) {
    const auto id = static_cast<fabric::LinkId>(l);
    const fabric::Link& link = topo.link(id);
    if (link.kind != fabric::LinkKind::HostAdapter) continue;
    out.push_back(LinkProbe{
        id, topo.node(link.src).name + "->" + topo.node(link.dst).name});
  }
  return out;
}

void collectBmc(MetricsScraper& scraper, MetricsRegistry& registry,
                const falcon::Bmc& bmc) {
  Simulator& sim = scraperSim(scraper, "collectBmc");
  // Per-slot byte rate needs a probe per row; the slot population is fixed
  // after composition, so snapshot the rows once to build the probes.
  struct SlotState {
    std::string slot;
    std::shared_ptr<RateProbe> gbs;
    double last_errors = 0.0;
  };
  auto states = std::make_shared<std::vector<SlotState>>();
  for (const falcon::LinkHealthRow& row : bmc.linkHealth()) {
    SlotState st;
    st.slot = slotLabel(row.slot);
    const std::string slot = st.slot;
    st.gbs = std::make_shared<RateProbe>(
        sim,
        [&bmc, slot] {
          for (const auto& r : bmc.linkHealth()) {
            if (slotLabel(r.slot) == slot) {
              return static_cast<double>(r.bytes_ingress + r.bytes_egress);
            }
          }
          return 0.0;
        },
        1e-9);
    states->push_back(std::move(st));
  }
  scraper.addCollector(
      [&bmc, &registry, states] {
        for (const falcon::LinkHealthRow& row : bmc.linkHealth()) {
          const std::string slot = slotLabel(row.slot);
          const Labels labels{{"device", row.device_name}, {"slot", slot}};
          registry
              .gauge("falcon_link_up", labels,
                     "Falcon slot link state: 1 up, 0 down")
              .set(row.up ? 1.0 : 0.0);
          Counter& errors =
              registry.counter("ecc_errors_total", labels,
                               "Accumulated link/ECC errors from the BMC "
                               "link-health table");
          for (SlotState& st : *states) {
            if (st.slot != slot) continue;
            const auto observed = static_cast<double>(row.accumulated_errors);
            // Counter-reset handling (device replaced): re-accumulate from 0.
            errors.add(observed >= st.last_errors ? observed - st.last_errors
                                                  : observed);
            st.last_errors = observed;
            registry
                .gauge("falcon_slot_gbs", labels,
                       "Falcon slot ingress+egress traffic, gigabytes per "
                       "second")
                .set((*st.gbs)());
          }
        }
      },
      [states] {
        MetricsScraper::CollectorState st;
        for (const SlotState& ss : *states) {
          pushProbe(st, *ss.gbs);
          st.push_back(ss.last_errors);
        }
        return st;
      },
      [states](const MetricsScraper::CollectorState& st) {
        std::size_t i = 0;
        for (SlotState& ss : *states) {
          i = popProbe(st, i, *ss.gbs);
          ss.last_errors = st.at(i++);
        }
      });
}

void observeTrainer(MetricsRegistry& registry, dl::Trainer& trainer) {
  Histogram& iteration = registry.histogram(
      "train_iteration_ms", {}, defaultLatencyBucketsMs(),
      "Training iteration wall time, milliseconds");
  trainer.setIterationObserver(
      [&iteration](SimTime dt) { iteration.observe(dt * 1e3); });
  Histogram& checkpoint = registry.histogram(
      "train_checkpoint_ms", {}, defaultLatencyBucketsMs(),
      "Checkpoint write wall time, milliseconds");
  trainer.setCheckpointObserver(
      [&checkpoint](SimTime dt) { checkpoint.observe(dt * 1e3); });
}

}  // namespace composim::telemetry
