// WorkloadRegistry: the name -> ModelSpec front door for workloads —
// lookup, registration, dataset association and "graph:<path>"
// resolution.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "dl/workload_registry.hpp"

namespace composim {
namespace {

TEST(WorkloadRegistry, BuiltinsRegisteredInOrder) {
  const auto names = dl::WorkloadRegistry::instance().names();
  const std::vector<std::string> want = {
      "MobileNetV2", "ResNet-50", "YOLOv5-L",     "BERT",
      "BERT-L",      "GPT-2-medium", "ViT-B/16"};
  ASSERT_GE(names.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(names[i], want[i]);
}

TEST(WorkloadRegistry, ModelLookupBuildsSpec) {
  dl::ModelSpec m;
  ASSERT_TRUE(dl::WorkloadRegistry::instance().model("ResNet-50", &m).ok);
  EXPECT_EQ(m.name, "ResNet-50");
  EXPECT_EQ(m.totalParams(), 25557032);
}

TEST(WorkloadRegistry, UnknownNameIsNotFoundAndListsKnown) {
  dl::ModelSpec m;
  const Status s = dl::WorkloadRegistry::instance().model("AlexNet", &m);
  EXPECT_EQ(s.code, StatusCode::NotFound);
  EXPECT_NE(s.detail.find("ResNet-50"), std::string::npos) << s.detail;
  EXPECT_NE(s.detail.find("graph:<path>"), std::string::npos) << s.detail;
}

TEST(WorkloadRegistry, LookupResolvesEveryZooModelByName) {
  EXPECT_EQ(dl::workload("ResNet-50").name, "ResNet-50");
  EXPECT_EQ(dl::workload("BERT-L").name, "BERT-L");
  EXPECT_EQ(dl::workload("GPT-2-medium").name, "GPT-2-medium");
  EXPECT_EQ(dl::workload("ViT-B/16").name, "ViT-B/16");
  EXPECT_EQ(dl::workload("MobileNetV2").name, "MobileNetV2");
  EXPECT_EQ(dl::workload("YOLOv5-L").name, "YOLOv5-L");
  EXPECT_EQ(dl::workload("BERT").name, "BERT");
}

TEST(WorkloadRegistry, AddRejectsDuplicatesAndNullFactories) {
  auto& reg = dl::WorkloadRegistry::instance();
  dl::WorkloadRegistry::Entry dup;
  dup.name = "ResNet-50";
  dup.factory = [] { return dl::ModelSpec{}; };
  EXPECT_EQ(reg.add(dup).code, StatusCode::AlreadyExists);

  dl::WorkloadRegistry::Entry hollow;
  hollow.name = "hollow";
  EXPECT_EQ(reg.add(hollow).code, StatusCode::InvalidArgument);
}

TEST(WorkloadRegistry, CustomWorkloadRegistersAndResolves) {
  auto& reg = dl::WorkloadRegistry::instance();
  dl::WorkloadRegistry::Entry e;
  e.name = "unit-test-model";
  e.dataset = "ImageNet";
  e.description = "registered by workload_registry_test";
  e.factory = [] {
    dl::ModelSpec m;
    m.name = "unit-test-model";
    m.dataset = "ImageNet";
    m.layers.push_back({"fc", dl::LayerKind::Linear, 1000, 2000.0, 64});
    return m;
  };
  ASSERT_TRUE(reg.add(e).ok);
  EXPECT_TRUE(reg.hasWorkload("unit-test-model"));
  EXPECT_EQ(dl::workload("unit-test-model").totalParams(), 1000);
  // Registered entries never join the paper zoo uninvited.
  for (const auto& m : reg.paperZoo()) EXPECT_NE(m.name, "unit-test-model");
}

TEST(WorkloadRegistry, DatasetAssociationCoversBuiltins) {
  auto& reg = dl::WorkloadRegistry::instance();
  const auto names = reg.datasetNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "ImageNet"), names.end());
  for (const std::string w :
       {"MobileNetV2", "ResNet-50", "YOLOv5-L", "BERT", "BERT-L",
        "GPT-2-medium", "ViT-B/16"}) {
    dl::ModelSpec m;
    ASSERT_TRUE(reg.model(w, &m).ok);
    dl::DatasetSpec d;
    EXPECT_TRUE(reg.dataset(m.dataset, &d).ok)
        << w << " -> " << m.dataset;
    EXPECT_GT(d.train_samples, 0);
  }
}

TEST(WorkloadRegistry, DatasetDuplicateAndMissing) {
  auto& reg = dl::WorkloadRegistry::instance();
  dl::DatasetSpec d;
  d.name = "ImageNet";
  d.train_samples = 1;
  EXPECT_EQ(reg.addDataset(d).code, StatusCode::AlreadyExists);
  dl::DatasetSpec out;
  EXPECT_EQ(reg.dataset("NoSuchData", &out).code, StatusCode::NotFound);
}

TEST(WorkloadRegistry, DatasetForUnregisteredThrows) {
  dl::ModelSpec orphan;
  orphan.name = "orphan";
  orphan.dataset = "NoSuchData";
  EXPECT_THROW(dl::datasetFor(orphan), std::invalid_argument);
}

TEST(WorkloadRegistry, ResolveRejectsBadGraphReference) {
  dl::ModelSpec m;
  const Status s = dl::WorkloadRegistry::instance().resolve(
      "graph:/no/such/file.graph.json", &m);
  EXPECT_EQ(s.code, StatusCode::NotFound);
  EXPECT_THROW(dl::workload("graph:/no/such/file.graph.json"),
               std::invalid_argument);
}

}  // namespace
}  // namespace composim
