#include "src/config/parallel_config.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/ir/models/model_zoo.h"

namespace aceso {
namespace {

TEST(IsPow2Test, Basics) {
  EXPECT_TRUE(IsPow2(1));
  EXPECT_TRUE(IsPow2(2));
  EXPECT_TRUE(IsPow2(1024));
  EXPECT_FALSE(IsPow2(0));
  EXPECT_FALSE(IsPow2(3));
  EXPECT_FALSE(IsPow2(-4));
}

TEST(SplitDevicesPow2Test, EqualSplit) {
  auto split = SplitDevicesPow2(32, 4);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, (std::vector<int>{8, 8, 8, 8}));
}

TEST(SplitDevicesPow2Test, UnevenSplitUsesPow2Parts) {
  auto split = SplitDevicesPow2(32, 3);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, (std::vector<int>{16, 8, 8}));
}

TEST(SplitDevicesPow2Test, SinglePart) {
  auto split = SplitDevicesPow2(8, 1);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, std::vector<int>{8});
}

TEST(SplitDevicesPow2Test, MaximalSplit) {
  auto split = SplitDevicesPow2(8, 8);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(*split, std::vector<int>(8, 1));
}

TEST(SplitDevicesPow2Test, TooManyPartsFails) {
  EXPECT_FALSE(SplitDevicesPow2(4, 5).ok());
}

TEST(SplitDevicesPow2Test, NonPow2TotalFails) {
  EXPECT_FALSE(SplitDevicesPow2(12, 2).ok());
}

// Property sweep: every (total, parts) split sums to the total and consists
// of powers of two.
class SplitSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitSweepTest, SumsAndPow2) {
  const auto [total, parts] = GetParam();
  auto split = SplitDevicesPow2(total, parts);
  if (parts > total) {
    EXPECT_FALSE(split.ok());
    return;
  }
  ASSERT_TRUE(split.ok());
  ASSERT_EQ(static_cast<int>(split->size()), parts);
  int sum = 0;
  for (int v : *split) {
    EXPECT_TRUE(IsPow2(v));
    sum += v;
  }
  EXPECT_EQ(sum, total);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SplitSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16, 32),
                       ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8)));

class ConfigTest : public ::testing::Test {
 protected:
  OpGraph graph_ = models::Gpt3(0.35);
  ClusterSpec cluster_ = ClusterSpec::WithGpuCount(8);
};

TEST_F(ConfigTest, EvenConfigValidates) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->Validate(graph_, cluster_).ok());
  EXPECT_EQ(config->num_stages(), 4);
  EXPECT_EQ(config->TotalDevices(), 8);
}

TEST_F(ConfigTest, EvenConfigCoversAllOps) {
  auto config = MakeEvenConfig(graph_, cluster_, 3, 1);
  ASSERT_TRUE(config.ok());
  int ops = 0;
  for (const StageConfig& s : config->stages()) {
    ops += s.num_ops;
  }
  EXPECT_EQ(ops, graph_.num_ops());
}

TEST_F(ConfigTest, StageOfOpConsistent) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  for (int i = 0; i < graph_.num_ops(); ++i) {
    const int s = config->StageOfOp(i);
    const StageConfig& stage = config->stage(s);
    EXPECT_GE(i, stage.first_op);
    EXPECT_LT(i, stage.end_op());
  }
}

TEST_F(ConfigTest, StageFirstDeviceCumulative) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->StageFirstDevice(0), 0);
  int expected = 0;
  for (int s = 0; s < config->num_stages(); ++s) {
    EXPECT_EQ(config->StageFirstDevice(s), expected);
    expected += config->stage(s).num_devices;
  }
}

TEST_F(ConfigTest, NumMicrobatches) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->set_microbatch_size(4);
  EXPECT_EQ(config->NumMicrobatches(graph_), 256);  // batch 1024 / 4
}

TEST_F(ConfigTest, ValidateRejectsBadMicrobatch) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->set_microbatch_size(3);  // does not divide 1024
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsDeviceMismatch) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->MutableStage(0).num_devices = 2;  // total now 6 != 8
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsGapInOpCoverage) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  config->MutableStage(1).first_op += 1;
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsNonPow2Tp) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  // Force an invalid tp on some partitioned op.
  for (int i = 0; i < graph_.num_ops(); ++i) {
    if (graph_.op(i).tp_class == TpClass::kPartitioned) {
      config->MutableOpSettings(i).tp = 3;
      break;
    }
  }
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsTpTimesDpMismatch) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  config->MutableOpSettings(0).tp = 1;
  config->MutableOpSettings(0).dp = 1;  // 1*1 != 8 devices
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, ValidateRejectsDpNotDividingMbs) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  // dp = 8 on some op while mbs = 1.
  config->MutableOpSettings(0).tp = 1;
  config->MutableOpSettings(0).dp = 8;
  config->set_microbatch_size(1);
  EXPECT_FALSE(config->Validate(graph_, cluster_).ok());
}

// Golden Validate() messages, one per failure kind, as the validator has
// always worded them: messages are built only on the failing branch, and
// must read exactly as the eagerly built ones did.
TEST_F(ConfigTest, ValidateMessagesAreGolden) {
  const ParallelConfig even4 = *MakeEvenConfig(graph_, cluster_, 4, 4);
  ParallelConfig dp4 = *MakeEvenConfig(graph_, cluster_, 2, 8);
  dp4.MutableStage(0).SetUniformParallelism(graph_, 1, 4);
  const ClusterSpec cluster32 = ClusterSpec::WithGpuCount(32);
  const ParallelConfig wide = *MakeEvenConfig(graph_, cluster32, 1, 1);

  struct Case {
    const char* message;
    const ParallelConfig* parent;
    const ClusterSpec* cluster;
    std::function<void(ParallelConfig&)> mutate;
  };
  const std::vector<Case> cases = {
      {"microbatch size must be >= 1", &even4, &cluster_,
       [](ParallelConfig& c) { c.set_microbatch_size(0); }},
      {"microbatch size 3 does not divide batch 1024", &even4, &cluster_,
       [](ParallelConfig& c) { c.set_microbatch_size(3); }},
      {"stage devices sum to 10, cluster has 8", &even4, &cluster_,
       [](ParallelConfig& c) { c.MutableStage(0).num_devices = 4; }},
      {"stage 1 starts at op 58, expected 57", &even4, &cluster_,
       [](ParallelConfig& c) { c.MutableStage(1).first_op += 1; }},
      {"stage 0 device count 3 is not a power of two", &dp4, &cluster_,
       [](ParallelConfig& c) {
         c.MutableStage(0).num_devices = 3;
         c.MutableStage(1).num_devices = 5;
       }},
      {"stage 2 has 52 op settings for 53 ops", &even4, &cluster_,
       [](ParallelConfig& c) { c.MutableStage(2).ops.pop_back(); }},
      {"stage 1 op dec7.attn.out_proj: tp/dp must be powers of two", &even4,
       &cluster_, [](ParallelConfig& c) { c.MutableStage(1).ops[3].tp = 3; }},
      {"stage 1 op dec7.attn.out_proj: tp*dp=8 != stage devices 2", &even4,
       &cluster_, [](ParallelConfig& c) { c.MutableStage(1).ops[3].dp = 4; }},
      {"stage 0 op dec0.attn.qkv: tp 32 exceeds op limit 16", &wide,
       &cluster32,
       [](ParallelConfig& c) {
         c.MutableOpSettings(2).tp = 32;
         c.MutableOpSettings(2).dp = 1;
       }},
      // Every op of stage 0 has dp 4: the first one is named.
      {"stage 0 op embedding: dp 4 does not divide microbatch size 2", &dp4,
       &cluster_, [](ParallelConfig& c) { c.set_microbatch_size(2); }},
      {"stages cover 194 ops, model has 195", &even4, &cluster_,
       [](ParallelConfig& c) {
         c.MutableStage(3).num_ops -= 1;
         c.MutableStage(3).ops.pop_back();
       }},
  };
  EXPECT_EQ(ParallelConfig().Validate(graph_, cluster_).ToString(),
            "INVALID_ARGUMENT: configuration has no stages");
  {
    ParallelConfig empty;
    StageConfig stage;
    stage.num_devices = 8;
    empty.AddStage(stage);
    EXPECT_EQ(empty.Validate(graph_, cluster_).ToString(),
              "INVALID_ARGUMENT: stage 0 is empty");
  }
  for (const Case& c : cases) {
    const std::string want = std::string("INVALID_ARGUMENT: ") + c.message;
    ASSERT_TRUE(c.parent->Validate(graph_, *c.cluster).ok());
    ParallelConfig config = c.parent->DeepCopy();
    c.mutate(config);
    EXPECT_EQ(config.Validate(graph_, *c.cluster).ToString(), want);
  }
}

struct TagAnnotation : StageAnnotation {
  explicit TagAnnotation(int tag) : tag(tag) {}
  int tag;
};

TEST_F(ConfigTest, StageAnnotationPublishesOnceAndDiesWithWordCache) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  // No word cache yet: nothing to hang an annotation on.
  EXPECT_EQ(config->StageWordAnnotation(graph_, 0), nullptr);
  EXPECT_EQ(
      config->PublishStageWordAnnotation(graph_, 0, new TagAnnotation(1)),
      nullptr);
  // Hashing fills the word cache; the first publish wins, later ones read
  // the incumbent back.
  config->SemanticHash(graph_);
  const StageAnnotation* won =
      config->PublishStageWordAnnotation(graph_, 0, new TagAnnotation(2));
  ASSERT_NE(won, nullptr);
  EXPECT_EQ(static_cast<const TagAnnotation*>(won)->tag, 2);
  const StageAnnotation* second =
      config->PublishStageWordAnnotation(graph_, 0, new TagAnnotation(3));
  EXPECT_EQ(second, won);
  EXPECT_EQ(config->StageWordAnnotation(graph_, 0), won);
  // Copies share the block, and with it the annotation.
  const ParallelConfig copy = *config;
  EXPECT_EQ(copy.StageWordAnnotation(graph_, 0), won);
  // Mutation drops the annotation along with the words it described; the
  // unmutated copy keeps its (shared, still-valid) annotation.
  config->MutableStage(1);
  EXPECT_EQ(config->StageWordAnnotation(graph_, 0), won);  // stage 0 intact
  config->MutableStage(0);
  config->SemanticHash(graph_);
  EXPECT_EQ(config->StageWordAnnotation(graph_, 0), nullptr);
  EXPECT_EQ(copy.StageWordAnnotation(graph_, 0), won);
}

TEST_F(ConfigTest, SemanticHashStableAcrossCopies) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  const ParallelConfig copy = *config;
  EXPECT_EQ(config->SemanticHash(graph_), copy.SemanticHash(graph_));
}

TEST_F(ConfigTest, SemanticHashSensitiveToSettings) {
  auto config = MakeEvenConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(config.ok());
  const uint64_t base = config->SemanticHash(graph_);

  ParallelConfig mbs_changed = *config;
  mbs_changed.set_microbatch_size(2);
  EXPECT_NE(base, mbs_changed.SemanticHash(graph_));

  ParallelConfig rc_changed = *config;
  rc_changed.MutableOpSettings(1).recompute = true;
  EXPECT_NE(base, rc_changed.SemanticHash(graph_));
}

TEST_F(ConfigTest, SemanticHashIgnoresDimWhenTpIsOne) {
  auto config = MakeEvenConfig(graph_, cluster_, 8, 1);
  ASSERT_TRUE(config.ok());
  // With 1-device stages every op has tp=1; flipping dims must not change
  // the hash (the configurations are semantically identical).
  const uint64_t base = config->SemanticHash(graph_);
  ParallelConfig flipped = *config;
  for (int i = 0; i < graph_.num_ops(); ++i) {
    OpParallel& setting = flipped.MutableOpSettings(i);
    if (setting.tp == 1) {
      setting.tp_dim =
          setting.tp_dim == TpDim::kColumn ? TpDim::kRow : TpDim::kColumn;
    }
  }
  EXPECT_EQ(base, flipped.SemanticHash(graph_));
}

TEST_F(ConfigTest, ImbalancedGeneratorsValidate) {
  auto op_imbalanced = MakeOpImbalancedConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(op_imbalanced.ok());
  EXPECT_TRUE(op_imbalanced->Validate(graph_, cluster_).ok());

  auto gpu_imbalanced = MakeGpuImbalancedConfig(graph_, cluster_, 3, 1);
  ASSERT_TRUE(gpu_imbalanced.ok());
  EXPECT_TRUE(gpu_imbalanced->Validate(graph_, cluster_).ok());
}

TEST_F(ConfigTest, OpImbalancedSkewsOpCounts) {
  auto even = MakeEvenConfig(graph_, cluster_, 4, 1);
  auto skewed = MakeOpImbalancedConfig(graph_, cluster_, 4, 1);
  ASSERT_TRUE(even.ok());
  ASSERT_TRUE(skewed.ok());
  // The skewed config's first stage has fewer ops than the even one's.
  EXPECT_LT(skewed->stage(0).num_ops, even->stage(0).num_ops);
}

TEST_F(ConfigTest, TooManyStagesFails) {
  EXPECT_FALSE(MakeEvenConfig(graph_, cluster_, 9, 1).ok());  // > 8 GPUs
}

TEST_F(ConfigTest, SetUniformParallelismClampsPerOp) {
  auto config = MakeEvenConfig(graph_, cluster_, 1, 1);
  ASSERT_TRUE(config.ok());
  StageConfig& stage = config->MutableStage(0);
  stage.SetUniformParallelism(graph_, 8, 1);
  for (int i = 0; i < stage.num_ops; ++i) {
    const Operator& op = graph_.op(i);
    const OpParallel& setting = stage.ops[static_cast<size_t>(i)];
    EXPECT_EQ(setting.tp * setting.dp, 8) << op.name;
    if (op.tp_class == TpClass::kPartitioned) {
      EXPECT_LE(setting.tp, std::max(op.max_tp, 1)) << op.name;
    }
  }
}

TEST_F(ConfigTest, ShortStringMentionsStages) {
  auto config = MakeEvenConfig(graph_, cluster_, 2, 1);
  ASSERT_TRUE(config.ok());
  const std::string s = config->ShortString();
  EXPECT_NE(s.find("s0["), std::string::npos);
  EXPECT_NE(s.find("s1["), std::string::npos);
}

// Property sweep: even configs across models/stage counts validate and
// respect the minimum-microbatch invariant.
class EvenConfigSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int, int>> {};

TEST_P(EvenConfigSweep, ValidatesEverywhere) {
  const auto& [model_name, gpus, stages] = GetParam();
  auto graph = models::BuildByName(model_name);
  ASSERT_TRUE(graph.ok());
  const ClusterSpec cluster = ClusterSpec::WithGpuCount(gpus);
  auto config = MakeEvenConfig(*graph, cluster, stages, 1);
  if (stages > gpus) {
    EXPECT_FALSE(config.ok());
    return;
  }
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_TRUE(config->Validate(*graph, cluster).ok());
  // mbs is the minimum feasible: every op's dp divides it.
  for (const StageConfig& stage : config->stages()) {
    for (const OpParallel& setting : stage.ops) {
      EXPECT_EQ(config->microbatch_size() % setting.dp, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvenConfigSweep,
    ::testing::Combine(::testing::Values("gpt3-0.35b", "t5-0.77b",
                                         "wresnet-0.5b"),
                       ::testing::Values(4, 8, 16),
                       ::testing::Values(1, 2, 3, 4, 6, 8)));

}  // namespace
}  // namespace aceso
