// Reproduces Table II: characteristics of the evaluated DL benchmarks.
// Parameter counts are computed from the layer-level architectures in the
// model zoo, not hard-coded — this binary is the check that the zoo's
// arithmetic lands on the published numbers.
//
// Paper reference:
//   MobileNetV2  Computer Vision  ImageNet    3.4M   53
//   ResNet-50    Computer Vision  ImageNet   25.6M   50
//   YOLOv5-L     Computer Vision  Coco         47M  392
//   BERT         NLP (Q&A)        SQuAD v1.1  110M   12
//   BERT-L       NLP (Q&A)        SQuAD v1.1  340M   24
#include <cstdio>

#include "bench/bench_util.hpp"
#include "dl/workload_registry.hpp"
#include "telemetry/report.hpp"

using namespace composim;

int main() {
  bench::banner("Table II", "Characteristics of the Evaluated DL Benchmarks");
  telemetry::Table t({"Benchmarks", "Domain", "Dataset", "Parameters", "Depth",
                      "Fwd GFLOPs/sample", "Layer objects"});
  for (const auto& m : dl::WorkloadRegistry::instance().paperZoo()) {
    const double millions = static_cast<double>(m.totalParams()) / 1e6;
    t.addRow({m.name, toString(m.domain), m.dataset,
              telemetry::fmt(millions, 1) + "M",
              std::to_string(m.reported_depth),
              telemetry::fmt(m.forwardFlopsPerSample() / 1e9, 1),
              std::to_string(m.layerCount())});
  }
  std::printf("%s", t.render().c_str());
  std::printf("\nPaper reference parameters: 3.4M / 25.6M / 47M / 110M / 340M.\n");
  return 0;
}
