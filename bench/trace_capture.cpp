// Runs a short traced experiment (BERT-L, localGPUs, DDP) with the
// span profiler enabled and writes the Chrome trace_event export to the
// path given as argv[1]. The trace ctest runs bench_json_validate over
// it: capture here, structural checks there.
#include <cstdio>

#include "core/experiment.hpp"
#include "dl/workload_registry.hpp"
#include "telemetry/profiler.hpp"

using namespace composim;

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: trace_capture <trace.json>\n");
    return 1;
  }

  const dl::ModelSpec model = dl::workload("BERT-L");
  core::ExperimentOptions opt;
  opt.trainer.epochs = 1;
  opt.trainer.max_iterations_per_epoch = 5;
  opt.trace = true;

  const auto result =
      core::Experiment::run(core::SystemConfig::LocalGpus, model, opt);
  if (!result.profiler) {
    std::fprintf(stderr, "trace_capture: experiment produced no profiler\n");
    return 1;
  }
  if (const Status s = result.profiler->writeChromeTrace(argv[1]); !s) {
    std::fprintf(stderr, "trace_capture: %s\n", s.toString().c_str());
    return 1;
  }
  std::printf("trace_capture: %zu records -> %s\n",
              result.profiler->recordCount(), argv[1]);
  return 0;
}
