#include "telemetry/collectors.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "devices/gpu.hpp"
#include "devices/host_cpu.hpp"
#include "dl/trainer.hpp"
#include "fabric/topology.hpp"
#include "falcon/bmc.hpp"

namespace composim::telemetry {

namespace {

std::string slotLabel(const falcon::SlotId& slot) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%d/%d", slot.drawer, slot.index);
  return buf;
}

}  // namespace

void collectGpus(MetricsScraper& scraper, MetricsRegistry& registry,
                 std::vector<const devices::Gpu*> gpus) {
  if (gpus.empty()) return;
  const double per_gpu_pct = 100.0 / static_cast<double>(gpus.size());

  // Communication-kernel busy time is credited at collective completion,
  // which can land a whole window's worth of busy seconds in one sample;
  // clamp like nvidia-smi (utilization never reads above 100%).
  RateProbe* busy = &scraper.rateProbe(
      [gpus] {
        double total = 0.0;
        for (const auto* g : gpus) total += g->busyTime();
        return total;
      },
      per_gpu_pct);
  RateProbe* mem_busy = &scraper.rateProbe(
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
  scraper.addCollector([gpus, busy, mem_busy, &util, &mem_access, &mem_util] {
    util.set(std::min(100.0, (*busy)()));
    mem_access.set((*mem_busy)());
    double total = 0.0;
    for (const auto* g : gpus) total += g->memoryUtilization();
    mem_util.set(100.0 * total / static_cast<double>(gpus.size()));
  });
}

void collectHostCpu(MetricsScraper& scraper, MetricsRegistry& registry,
                    const devices::HostCpu& cpu) {
  RateProbe* busy = &scraper.rateProbe(
      [&cpu] { return cpu.busyThreadTime(); }, 100.0 / cpu.totalThreads());
  Gauge& util =
      registry.gauge("cpu_util_pct", {}, "Host CPU utilization, percent");
  Gauge& mem = registry.gauge("host_mem_util_pct", {},
                              "Host memory utilization, percent");
  scraper.addCollector([&cpu, busy, &util, &mem] {
    util.set((*busy)());
    mem.set(100.0 * cpu.memoryUtilization());
  });
}

void collectFalconPcie(MetricsScraper& scraper, MetricsRegistry& registry,
                       std::function<double()> portBytes) {
  RateProbe* rate = &scraper.rateProbe(std::move(portBytes), 1e-9);
  Gauge& gbs = registry.gauge(
      "falcon_pcie_gbs", {},
      "Aggregate Falcon GPU-port PCIe traffic, gigabytes per second");
  scraper.addCollector([rate, &gbs] { gbs.set((*rate)()); });
}

void collectFabricLinks(MetricsScraper& scraper, MetricsRegistry& registry,
                        const fabric::Topology& topo,
                        std::vector<LinkProbe> links) {
  if (links.empty()) return;
  struct LinkState {
    fabric::LinkId link;
    RateProbe* bytes_gbs;
    Gauge* throughput;
    Gauge* util;
    Gauge* up;
  };
  std::vector<LinkState> states;
  states.reserve(links.size());
  for (const LinkProbe& lp : links) {
    const fabric::LinkId id = lp.link;
    const Labels labels{{"link", lp.name}};
    states.push_back(LinkState{
        id,
        &scraper.rateProbe(
            [&topo, id] {
              return static_cast<double>(topo.link(id).counters.bytes);
            },
            1e-9),
        &registry.gauge("link_throughput_gbs", labels,
                        "Per-link carried traffic, gigabytes per second"),
        &registry.gauge("link_util_pct", labels,
                        "Per-link utilization of capacity, percent"),
        &registry.gauge("link_up", labels, "Link state: 1 up, 0 down")});
  }
  scraper.addCollector([&topo, states = std::move(states)] {
    for (const LinkState& st : states) {
      const fabric::Link& link = topo.link(st.link);
      const double gbs = (*st.bytes_gbs)();
      st.throughput->set(gbs);
      st.util->set(link.capacity > 0.0 ? 100.0 * gbs * 1e9 / link.capacity
                                       : 0.0);
      st.up->set(link.up ? 1.0 : 0.0);
    }
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
  // One record per slot, drawer-major like linkHealth(). A slot occupied
  // at composition gets a rate probe and an error baseline; a slot that
  // was empty keeps null ones and publishes only its link state. Handles
  // are resolved for the device name they are labeled with and again only
  // when the slot's device changes (a spare reattached), and each record
  // keeps its row, so a warmed scrape neither looks up nor allocates.
  struct SlotState {
    RateProbe* gbs_rate = nullptr;
    double* last_errors = nullptr;
    falcon::LinkHealthRow row;
    std::string device;  // the device name the handles below belong to
    Gauge* up = nullptr;
    Counter* errors = nullptr;
    Gauge* gbs = nullptr;
  };
  using falcon::FalconChassis;
  const auto slotAt = [](std::size_t i) {
    const int n = static_cast<int>(i);
    return falcon::SlotId{n / FalconChassis::kSlotsPerDrawer, n % FalconChassis::kSlotsPerDrawer};
  };
  std::vector<SlotState> states(FalconChassis::kDrawers * FalconChassis::kSlotsPerDrawer);
  for (std::size_t i = 0; i < states.size(); ++i) {
    const falcon::SlotId slot = slotAt(i);
    if (!bmc.readSlot(slot, states[i].row)) continue;
    states[i].gbs_rate = &scraper.rateProbe(
        [&bmc, slot] { return static_cast<double>(bmc.slotBytes(slot)); }, 1e-9);
    states[i].last_errors = &scraper.counterBaseline();
  }
  scraper.addCollector([&bmc, &registry, states = std::move(states), slotAt]() mutable {
    for (std::size_t i = 0; i < states.size(); ++i) {
      SlotState& st = states[i];
      if (!bmc.readSlot(slotAt(i), st.row)) continue;
      const falcon::LinkHealthRow& row = st.row;
      if (st.up == nullptr || st.device != row.device_name) {
        const Labels labels{{"device", row.device_name}, {"slot", slotLabel(row.slot)}};
        st.up = &registry.gauge("falcon_link_up", labels,
                                "Falcon slot link state: 1 up, 0 down");
        st.errors = &registry.counter("ecc_errors_total", labels,
                                      "Accumulated link/ECC errors from the BMC "
                                      "link-health table");
        if (st.gbs_rate != nullptr) {
          st.gbs = &registry.gauge("falcon_slot_gbs", labels,
                                   "Falcon slot ingress+egress traffic, gigabytes per "
                                   "second");
        }
        st.device = row.device_name;
      }
      st.up->set(row.up ? 1.0 : 0.0);
      if (st.gbs_rate == nullptr) continue;
      const auto observed = static_cast<double>(row.accumulated_errors);
      // Counter-reset handling (device replaced): re-accumulate from 0.
      double& last = *st.last_errors;
      st.errors->add(observed >= last ? observed - last : observed);
      last = observed;
      st.gbs->set((*st.gbs_rate)());
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
