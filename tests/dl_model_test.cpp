// Tests for the model zoo: the Table II characteristics must come out of
// the architecture arithmetic.
#include <gtest/gtest.h>

#include "dl/workload_registry.hpp"

namespace composim::dl {
namespace {

TEST(Zoo, ResNet50ParametersAreExact) {
  // torchvision resnet50: 25,557,032 parameters.
  EXPECT_EQ(workload("ResNet-50").totalParams(), 25557032);
}

TEST(Zoo, MobileNetV2ParametersMatchTableII) {
  const auto p = workload("MobileNetV2").totalParams();
  EXPECT_GT(p, 3300000);   // Table II: 3.4M
  EXPECT_LT(p, 3600000);
}

TEST(Zoo, YoloV5LParametersMatchTableII) {
  const auto p = workload("YOLOv5-L").totalParams();
  EXPECT_GT(p, 43000000);  // Table II: 47M (ultralytics: 46.5M)
  EXPECT_LT(p, 50000000);
}

TEST(Zoo, BertBaseParametersMatchTableII) {
  const auto p = workload("BERT").totalParams();
  EXPECT_GT(p, 107000000);  // Table II: 110M (HF: 109.5M)
  EXPECT_LT(p, 112000000);
}

TEST(Zoo, BertLargeParametersMatchTableII) {
  const auto p = workload("BERT-L").totalParams();
  EXPECT_GT(p, 330000000);  // Table II: 340M (HF: 335.1M)
  EXPECT_LT(p, 345000000);
}

TEST(Zoo, ReportedDepthsMatchTableII) {
  EXPECT_EQ(workload("MobileNetV2").reported_depth, 53);
  EXPECT_EQ(workload("ResNet-50").reported_depth, 50);
  EXPECT_EQ(workload("YOLOv5-L").reported_depth, 392);
  EXPECT_EQ(workload("BERT").reported_depth, 12);
  EXPECT_EQ(workload("BERT-L").reported_depth, 24);
}

TEST(Zoo, DomainsAndDatasetsMatchTableII) {
  EXPECT_EQ(workload("MobileNetV2").domain, Domain::ComputerVision);
  EXPECT_EQ(workload("MobileNetV2").dataset, "ImageNet");
  EXPECT_EQ(workload("ResNet-50").dataset, "ImageNet");
  EXPECT_EQ(workload("YOLOv5-L").dataset, "Coco");
  EXPECT_EQ(workload("BERT").domain, Domain::NLP);
  EXPECT_EQ(workload("BERT").dataset, "SQuAD v1.1");
  EXPECT_EQ(workload("BERT-L").dataset, "SQuAD v1.1");
}

TEST(Zoo, ZooOrderMatchesTableII) {
  const auto zoo = WorkloadRegistry::instance().paperZoo();
  ASSERT_EQ(zoo.size(), 5u);
  EXPECT_EQ(zoo[0].name, "MobileNetV2");
  EXPECT_EQ(zoo[1].name, "ResNet-50");
  EXPECT_EQ(zoo[2].name, "YOLOv5-L");
  EXPECT_EQ(zoo[3].name, "BERT");
  EXPECT_EQ(zoo[4].name, "BERT-L");
}

TEST(Zoo, ForwardFlopsScaleWithKnownRatios) {
  // ResNet-50 at 224 px: ~4.1 GMACs -> ~8.2 GFLOPs forward.
  const double rn = workload("ResNet-50").forwardFlopsPerSample();
  EXPECT_GT(rn, 7.5e9);
  EXPECT_LT(rn, 9.0e9);
  // MobileNetV2: ~0.3 GMACs -> ~0.6 GFLOPs.
  const double mb = workload("MobileNetV2").forwardFlopsPerSample();
  EXPECT_GT(mb, 0.5e9);
  EXPECT_LT(mb, 0.75e9);
  // BERT-large forward ~= 2 * params * seq_len.
  const auto bl = workload("BERT-L");
  const double expected = 2.0 * static_cast<double>(bl.totalParams()) * 384;
  EXPECT_NEAR(bl.forwardFlopsPerSample(), expected, expected * 0.15);
}

TEST(Zoo, GradientBytesFollowPrecision) {
  const auto bl = workload("BERT-L");
  EXPECT_EQ(bl.gradientBytes(devices::Precision::FP16), bl.totalParams() * 2);
  EXPECT_EQ(bl.gradientBytes(devices::Precision::FP32), bl.totalParams() * 4);
}

TEST(Model, PartitionConservesTotals) {
  for (const auto& m : WorkloadRegistry::instance().paperZoo()) {
    for (int groups : {1, 4, 12, 1000}) {
      const auto parts = m.partition(groups);
      std::int64_t params = 0;
      Flops flops = 0.0;
      Bytes act = 0;
      for (const auto& p : parts) {
        params += p.params;
        flops += p.forward_flops;
        act += p.activation_bytes;
      }
      EXPECT_EQ(params, m.totalParams()) << m.name << " groups=" << groups;
      EXPECT_NEAR(flops, m.forwardFlopsPerSample(), 1.0) << m.name;
      EXPECT_EQ(act, m.activationBytesPerSample()) << m.name;
      EXPECT_LE(static_cast<int>(parts.size()), std::max(groups, 1));
    }
  }
}

TEST(Model, PartitionBalancesFlops) {
  const auto parts = workload("BERT-L").partition(12);
  ASSERT_GE(parts.size(), 10u);
  const double total = workload("BERT-L").forwardFlopsPerSample();
  for (const auto& p : parts) {
    EXPECT_LT(p.forward_flops, total * 0.25);  // no giant straggler group
  }
}

TEST(Datasets, SpecsMatchPublicNumbers) {
  const auto in = datasetFor(workload("ResNet-50"));
  EXPECT_EQ(in.name, "ImageNet");
  EXPECT_EQ(in.train_samples, 1281167);
  const auto coco = datasetFor(workload("YOLOv5-L"));
  EXPECT_EQ(coco.train_samples, 118287);
  EXPECT_DOUBLE_EQ(coco.read_amplification, 4.0);  // mosaic
  const auto squad = datasetFor(workload("BERT"));
  EXPECT_GT(squad.train_samples, 87000);
  // Storage pressure ordering: COCO(mosaic) >> ImageNet(cached) >> SQuAD.
  EXPECT_GT(coco.storageBytesPerSample(), in.storageBytesPerSample() * 10);
  EXPECT_GT(in.storageBytesPerSample(), squad.storageBytesPerSample());
}

TEST(Datasets, DatasetForResolvesEveryBenchmark) {
  for (const auto& m : WorkloadRegistry::instance().paperZoo()) {
    EXPECT_EQ(datasetFor(m).name, m.dataset);
  }
  ModelSpec bogus;
  bogus.dataset = "nope";
  EXPECT_THROW(datasetFor(bogus), std::invalid_argument);
}

TEST(Model, PaperBatchAndEpochs) {
  // Section V-C: Yolo 20 epochs/batch 88(=11x8), ResNet 20/128,
  // MobileNet 10/64, BERT 2/96(=12x8), BERT-L 2/48(=6x8).
  EXPECT_EQ(workload("MobileNetV2").paper_batch_per_gpu, 64);
  EXPECT_EQ(workload("MobileNetV2").paper_epochs, 10);
  EXPECT_EQ(workload("ResNet-50").paper_batch_per_gpu, 128);
  EXPECT_EQ(workload("ResNet-50").paper_epochs, 20);
  EXPECT_EQ(workload("YOLOv5-L").paper_batch_per_gpu, 11);
  EXPECT_EQ(workload("BERT").paper_batch_per_gpu, 12);
  EXPECT_EQ(workload("BERT-L").paper_batch_per_gpu, 6);
  EXPECT_EQ(workload("BERT-L").paper_epochs, 2);
}

}  // namespace
}  // namespace composim::dl
