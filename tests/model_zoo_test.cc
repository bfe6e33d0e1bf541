#include "src/ir/models/model_zoo.h"

#include <gtest/gtest.h>

#include <cmath>

namespace aceso {
namespace {

// Every zoo model must land reasonably close to its advertised parameter
// count (paper Table 2 sizes).
class ZooSizeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSizeTest, ParamCountMatchesName) {
  const std::string name = GetParam();
  auto graph = models::BuildByName(name);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  const size_t dash = name.rfind('-');
  const double advertised = std::atof(name.substr(dash + 1).c_str());
  const double actual = static_cast<double>(graph->TotalParamCount()) / 1e9;
  // Within 40% of the advertised size: the ladder hyper-parameters are
  // standard, but embeddings and heads shift small models.
  EXPECT_GT(actual, advertised * 0.6) << graph->Summary();
  EXPECT_LT(actual, advertised * 1.45) << graph->Summary();
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSizeTest,
                         ::testing::ValuesIn(models::ZooNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == '.') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(ZooTest, Gpt3UsesPaperTrainingSetup) {
  const OpGraph g = models::Gpt3(1.3);
  EXPECT_EQ(g.precision(), Precision::kFp16);
  EXPECT_EQ(g.global_batch_size(), 1024);
}

TEST(ZooTest, WideResnetUsesFp32AndBatch1536) {
  const OpGraph g = models::WideResnet(0.5);
  EXPECT_EQ(g.precision(), Precision::kFp32);
  EXPECT_EQ(g.global_batch_size(), 1536);
}

TEST(ZooTest, GptSizesAreOrdered) {
  double prev = 0;
  for (double size : {0.35, 1.3, 2.6, 6.7, 13.0}) {
    const OpGraph g = models::Gpt3(size);
    const double params = static_cast<double>(g.TotalParamCount());
    EXPECT_GT(params, prev);
    prev = params;
  }
}

TEST(ZooTest, T5HasHeterogeneousStructure) {
  const OpGraph g = models::T5(0.77);
  // Both encoder ops (seq 2048) and decoder cross-attention ops exist.
  bool has_cross = false;
  for (const Operator& op : g.ops()) {
    if (op.kind == OpKind::kCrossAttnCore) {
      has_cross = true;
    }
  }
  EXPECT_TRUE(has_cross);
}

TEST(ZooTest, T5EncoderActivationsLargerThanDecoder) {
  const OpGraph g = models::T5(0.77);
  int64_t enc_act = 0;
  int64_t dec_act = 0;
  for (const Operator& op : g.ops()) {
    if (op.kind == OpKind::kGelu) {
      if (op.name.rfind("enc", 0) == 0) {
        enc_act = op.out_bytes;
      } else if (op.name.rfind("dec", 0) == 0) {
        dec_act = op.out_bytes;
      }
    }
  }
  EXPECT_EQ(enc_act, dec_act * 4);  // seq 2048 vs 512
}

TEST(ZooTest, DeepTransformerScalesByLayers) {
  const OpGraph g64 = models::DeepTransformer(64);
  const OpGraph g128 = models::DeepTransformer(128);
  EXPECT_EQ(g128.num_ops() - 3, 2 * (g64.num_ops() - 3));  // minus emb+head
}

TEST(ZooTest, DeepTransformer1KLayers) {
  const OpGraph g = models::DeepTransformer(1000);
  EXPECT_GT(g.num_ops(), 8000);
}

TEST(ZooTest, BuildByNameRejectsUnknown) {
  EXPECT_FALSE(models::BuildByName("gpt5-100t").ok());
  EXPECT_FALSE(models::BuildByName("gpt3-9.9b").ok());
  EXPECT_FALSE(models::BuildByName("").ok());
}

TEST(ZooTest, BuildByNameRejectsTrailingJunk) {
  // The whole size must parse: these would otherwise alias real models.
  for (const char* alias :
       {"deepnet-4zz", "deepnet-16x", "deepnet- 16", "deepnet-+16",
        "deepnet-", "gpt3-2.6bx", "gpt3-2.6bb", "gpt3-2.6xb", "gpt3- 2.6b",
        "gpt3-+2.6b", "gpt3-", "t5-3bb", "wresnet-2b!", "bert-1.2bq"}) {
    EXPECT_FALSE(models::BuildByName(alias).ok()) << alias;
  }
  EXPECT_TRUE(models::BuildByName("deepnet-16").ok());
  EXPECT_TRUE(models::BuildByName("gpt3-2.6b").ok());
}

TEST(ZooTest, BuildByNameDeepnet) {
  auto g = models::BuildByName("deepnet-16");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->name(), "deepnet-16");
}

TEST(ZooTest, BertLadder) {
  double prev = 0;
  for (const double size : {0.34, 1.2, 3.9}) {
    const OpGraph g = models::Bert(size);
    const double params = static_cast<double>(g.TotalParamCount()) / 1e9;
    EXPECT_GT(params, prev);
    EXPECT_GT(params, size * 0.6) << g.Summary();
    EXPECT_LT(params, size * 1.6) << g.Summary();
    prev = params;
    // Encoder-only: no cross-attention ops.
    for (const Operator& op : g.ops()) {
      EXPECT_NE(op.kind, OpKind::kCrossAttnCore);
    }
  }
}

TEST(ZooTest, BuildByNameBert) {
  auto g = models::BuildByName("bert-1.2b");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->name(), "bert-1.2b");
  EXPECT_FALSE(models::BuildByName("bert-99b").ok());
}

TEST(ZooTest, GpusForSizeIndexLadder) {
  EXPECT_EQ(models::GpusForSizeIndex(0), 1);
  EXPECT_EQ(models::GpusForSizeIndex(1), 4);
  EXPECT_EQ(models::GpusForSizeIndex(2), 8);
  EXPECT_EQ(models::GpusForSizeIndex(3), 16);
  EXPECT_EQ(models::GpusForSizeIndex(4), 32);
}

TEST(ZooTest, SummaryContainsName) {
  const OpGraph g = models::Gpt3(0.35);
  EXPECT_NE(g.Summary().find("gpt3-0.35b"), std::string::npos);
}

}  // namespace
}  // namespace aceso
