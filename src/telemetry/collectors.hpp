// composim: reusable per-subsystem metric collectors.
//
// Each collector registers its instruments in a MetricsRegistry and hooks
// a per-scrape update into a MetricsScraper, replacing the hand-rolled
// probe lambdas every bench used to wire by itself. The collectors cover
// what the paper's measurement stack reports: nvidia-smi style GPU
// utilization, host CPU/sysmem, the Falcon management interface's per-port
// throughput, per-link fabric health, and the BMC's link-health table with
// accumulated error counts.
//
// Observation-style sources (Trainer iteration/checkpoint phases) publish
// through std::function observer hooks on the dl classes — the dl layer
// stays free of telemetry includes; the collector owns the registry side
// of the hook.
//
// Rate-style gauges (GPU utilization %, PCIe GB/s) read a cumulative
// counter through a RateProbe, which differentiates between scrapes —
// exactly how nvidia-smi computes utilization over its sample window.
// The scraper owns every probe and counter baseline a collector uses, so
// a warm-prefix fork carries them in MetricsScraper::State and the
// collectors themselves know nothing about forking.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/metrics_pipeline.hpp"

namespace composim::devices {
class Gpu;
class HostCpu;
}  // namespace composim::devices

namespace composim::fabric {
class Topology;
}  // namespace composim::fabric

namespace composim::falcon {
class Bmc;
}  // namespace composim::falcon

namespace composim::dl {
class Trainer;
}  // namespace composim::dl

namespace composim::telemetry {

/// Aggregate GPU telemetry across the training gang, nvidia-smi style:
///   gpu_util_pct        gauge, busy-time rate scaled to percent, clamped
///   gpu_mem_access_pct  gauge, memory-busy-time rate scaled to percent
///   gpu_mem_util_pct    gauge, mean allocated-memory fraction * 100
/// The `gpus` vector is captured by value; devices must outlive scraping.
void collectGpus(MetricsScraper& scraper, MetricsRegistry& registry,
                 std::vector<const devices::Gpu*> gpus);

/// Host telemetry:
///   cpu_util_pct        gauge, busy-thread-time rate over total threads
///   host_mem_util_pct   gauge, allocated host memory * 100
void collectHostCpu(MetricsScraper& scraper, MetricsRegistry& registry,
                    const devices::HostCpu& cpu);

/// Aggregate Falcon GPU-port traffic (the management interface's
/// throughput view): falcon_pcie_gbs gauge, rate of the cumulative
/// port-byte counter scaled to GB/s. `portBytes` keeps the telemetry layer
/// decoupled from core::ComposableSystem.
void collectFalconPcie(MetricsScraper& scraper, MetricsRegistry& registry,
                       std::function<double()> portBytes);

/// Per-link fabric health for the named links:
///   link_throughput_gbs{link=...}  gauge, byte-counter rate in GB/s
///   link_util_pct{link=...}        gauge, rate / capacity * 100
///   link_up{link=...}              gauge, 1 up / 0 down
struct LinkProbe {
  std::int32_t link = -1;  // fabric::LinkId
  std::string name;        // label value
};
void collectFabricLinks(MetricsScraper& scraper, MetricsRegistry& registry,
                        const fabric::Topology& topo,
                        std::vector<LinkProbe> links);

/// Every host-adapter (CDFP) link in the topology, named
/// "src->dst" from the node names — the links the Falcon web UI charts.
std::vector<LinkProbe> hostAdapterLinks(const fabric::Topology& topo);

/// BMC link-health table:
///   ecc_errors_total{slot=...,device=...}   counter, accumulated errors
///   falcon_link_up{slot=...,device=...}     gauge, 1 up / 0 down
///   falcon_slot_gbs{slot=...,device=...}    gauge, ingress+egress GB/s
/// Slots are labeled "drawer/slot" (e.g. "0/3").
void collectBmc(MetricsScraper& scraper, MetricsRegistry& registry,
                const falcon::Bmc& bmc);

/// Trainer phase latencies through the observer hooks:
///   train_iteration_ms   histogram (default latency buckets)
///   train_checkpoint_ms  histogram
/// Installs Trainer::setIterationObserver / setCheckpointObserver; the
/// registry must outlive the trainer's run.
void observeTrainer(MetricsRegistry& registry, dl::Trainer& trainer);

}  // namespace composim::telemetry
