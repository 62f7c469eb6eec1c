// Reproduces Fig 9: GPU-utilization patterns across complete training runs
// of all five benchmarks on the localGPUs configuration (paper epochs and
// batch sizes, iterations per epoch capped for simulation time — the
// pattern, not the wall-clock, is the artifact).
//
// Paper shape: every model shows a repeating high-utilization pattern with
// sharp periodic drops attributed to synchronization and checkpointing;
// BERT models use the GPU more effectively than the vision models.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/experiment.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main() {
  bench::banner("Fig 9", "GPU Utilization Patterns for the DL Benchmarks");

  for (const auto& model : dl::WorkloadRegistry::instance().paperZoo()) {
    core::ExperimentOptions opt;
    // The NLP runs are only 2 epochs; give them more iterations so the
    // plateau dominates the inter-epoch checkpoint dip, as it does in a
    // full-length epoch.
    opt.trainer.max_iterations_per_epoch = (model.domain == dl::Domain::NLP) ? 30 : 12;
    // Sample fast enough to see the inter-epoch checkpoint dips.
    opt.sample_interval = 0.1;
    const auto r = core::Experiment::run(core::SystemConfig::LocalGpus, model, opt);

    // Plateau utilization: mean of the samples in the busy band (the
    // figure's visual plateau), excluding the checkpoint dips.
    const auto& series = r.metrics->series("gpu_util_pct");
    const double peak = series.stats().max;
    double plateau = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < series.size(); ++i) {
      if (series.valueAt(i) >= 0.5 * peak) {
        plateau += series.valueAt(i);
        ++n;
      }
    }
    if (n > 0) plateau /= n;

    std::printf("%s  (%d epochs x %lld iters simulated, batch %d/GPU)\n",
                model.name.c_str(), r.training.epochs,
                static_cast<long long>(r.training.iterations_run /
                                       std::max(1, r.training.epochs)),
                opt.trainer.batch_per_gpu > 0 ? opt.trainer.batch_per_gpu
                                              : model.paper_batch_per_gpu);
    std::printf("GPU utilization %% over the run (plateau mean %.1f%%):\n",
                plateau);
    std::printf("%s\n", telemetry::stripChart(series, 78, 8).c_str());
  }
  std::printf("Paper shape: high plateaus with periodic dips (synchronization +\n");
  std::printf("per-epoch checkpointing); BERT plateaus are the highest.\n");
  return 0;
}
