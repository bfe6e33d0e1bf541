#include "src/ir/models/model_zoo.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/common/logging.h"
#include "src/ir/model_builder.h"

namespace aceso {
namespace models {
namespace {

constexpr int64_t kVocab = 51200;  // Megatron's padded GPT-2 vocabulary

struct GptVariant {
  double size_billions;
  int layers;
  int64_t hidden;
  int64_t heads;
};

// Standard GPT-3 family ladder (Brown et al., Table 2.1), as used by the
// paper.
constexpr GptVariant kGptVariants[] = {
    {0.35, 24, 1024, 16},
    {1.3, 24, 2048, 16},
    {2.6, 32, 2560, 32},
    {6.7, 32, 4096, 32},
    {13, 40, 5120, 40},
};

struct T5Variant {
  double size_billions;
  int layers;  // encoder layers == decoder layers
  int64_t hidden;
  int64_t ffn;
  int64_t heads;
};

// T5 ladder: 0.77B/3B/11B follow Raffel et al. (d_model 1024 with growing
// d_ff); 6B/22B double the 3B/11B FFN width, preserving the family's
// "wide-FFN" structure.
constexpr T5Variant kT5Variants[] = {
    {0.77, 24, 1024, 4096, 16},
    {3, 24, 1024, 16384, 32},
    {6, 24, 1024, 32768, 32},
    {11, 24, 1024, 65536, 64},
    {22, 24, 1024, 131072, 64},
};

struct WrnVariant {
  double size_billions;
  int width;  // channel multiplier over ResNet-50's base widths
};

// Parameters scale ~quadratically in width; these multipliers land the model
// at the paper's sizes (0.5/2/4/6.8/13 B params).
constexpr WrnVariant kWrnVariants[] = {
    {0.5, 4}, {2, 9}, {4, 12}, {6.8, 16}, {13, 22},
};

std::string SizeTag(double size_billions) {
  char buf[32];
  if (size_billions == static_cast<int>(size_billions)) {
    std::snprintf(buf, sizeof(buf), "%db", static_cast<int>(size_billions));
  } else {
    std::snprintf(buf, sizeof(buf), "%gb", size_billions);
  }
  return buf;
}

OpGraph BuildGpt(const GptVariant& v, int64_t batch, int64_t seq) {
  OpGraph graph("gpt3-" + SizeTag(v.size_billions), Precision::kFp16, batch);
  AppendEmbedding(graph, "", kVocab, v.hidden, seq);
  TransformerLayerSpec layer;
  layer.hidden = v.hidden;
  layer.ffn_hidden = 4 * v.hidden;
  layer.num_heads = v.heads;
  layer.seq_len = seq;
  for (int i = 0; i < v.layers; ++i) {
    AppendTransformerLayer(graph, "dec" + std::to_string(i) + ".", layer);
  }
  AppendLmHead(graph, "", kVocab, v.hidden, seq);
  return graph;
}

}  // namespace

OpGraph Gpt3(double size_billions) {
  for (const GptVariant& v : kGptVariants) {
    if (v.size_billions == size_billions) {
      return BuildGpt(v, /*batch=*/1024, /*seq=*/2048);
    }
  }
  ACESO_CHECK(false) << "unknown GPT-3 size: " << size_billions;
  return OpGraph();
}

OpGraph T5(double size_billions) {
  for (const T5Variant& v : kT5Variants) {
    if (v.size_billions != size_billions) {
      continue;
    }
    OpGraph graph("t5-" + SizeTag(v.size_billions), Precision::kFp16, 1024);
    const int64_t enc_seq = 2048;
    const int64_t dec_seq = 512;
    AppendEmbedding(graph, "enc.", kVocab, v.hidden, enc_seq);
    TransformerLayerSpec enc_layer;
    enc_layer.hidden = v.hidden;
    enc_layer.ffn_hidden = v.ffn;
    enc_layer.num_heads = v.heads;
    enc_layer.seq_len = enc_seq;
    for (int i = 0; i < v.layers; ++i) {
      AppendTransformerLayer(graph, "enc" + std::to_string(i) + ".",
                             enc_layer);
    }
    TransformerLayerSpec dec_layer = enc_layer;
    dec_layer.seq_len = dec_seq;
    dec_layer.cross_seq_len = enc_seq;
    for (int i = 0; i < v.layers; ++i) {
      AppendTransformerLayer(graph, "dec" + std::to_string(i) + ".",
                             dec_layer);
    }
    AppendLmHead(graph, "dec.", kVocab, v.hidden, dec_seq);
    return graph;
  }
  ACESO_CHECK(false) << "unknown T5 size: " << size_billions;
  return OpGraph();
}

OpGraph WideResnet(double size_billions) {
  for (const WrnVariant& v : kWrnVariants) {
    if (v.size_billions != size_billions) {
      continue;
    }
    OpGraph graph("wresnet-" + SizeTag(v.size_billions), Precision::kFp32,
                  1536);
    const int w = v.width;
    AppendConvStem(graph, "", 3, 64L * w, 224);
    // ResNet-50 stage plan: (blocks, bottleneck channels, out channels,
    // input spatial size).
    struct StagePlan {
      int blocks;
      int64_t mid;
      int64_t out;
      int64_t hw;
    };
    const StagePlan plan[] = {
        {3, 64L * w, 256L * w, 56},
        {4, 128L * w, 512L * w, 28},
        {6, 256L * w, 1024L * w, 14},
        {3, 512L * w, 2048L * w, 7},
    };
    int64_t in_channels = 64L * w;
    int64_t hw = 56;
    for (int s = 0; s < 4; ++s) {
      for (int b = 0; b < plan[s].blocks; ++b) {
        BottleneckSpec block;
        block.in_channels = in_channels;
        block.bottleneck_channels = plan[s].mid;
        block.out_channels = plan[s].out;
        // First block of stages 2-4 downsamples.
        block.stride = (b == 0 && s > 0) ? 2 : 1;
        block.in_hw = (b == 0 && s > 0) ? plan[s].hw * 2 : plan[s].hw;
        AppendBottleneckBlock(
            graph, "s" + std::to_string(s) + "b" + std::to_string(b) + ".",
            block);
        in_channels = plan[s].out;
        hw = plan[s].hw;
      }
    }
    AppendClassifierHead(graph, "", in_channels, hw, 1000);
    return graph;
  }
  ACESO_CHECK(false) << "unknown Wide-ResNet size: " << size_billions;
  return OpGraph();
}

OpGraph DeepTransformer(int num_layers) {
  ACESO_CHECK_GT(num_layers, 0);
  // DeepNet-style deep-narrow setting: hidden 1024, 16 heads, seq 1024.
  OpGraph graph("deepnet-" + std::to_string(num_layers), Precision::kFp16,
                256);
  const int64_t hidden = 1024;
  const int64_t seq = 1024;
  AppendEmbedding(graph, "", kVocab, hidden, seq);
  TransformerLayerSpec layer;
  layer.hidden = hidden;
  layer.ffn_hidden = 4 * hidden;
  layer.num_heads = 16;
  layer.seq_len = seq;
  for (int i = 0; i < num_layers; ++i) {
    AppendTransformerLayer(graph, "dec" + std::to_string(i) + ".", layer);
  }
  AppendLmHead(graph, "", kVocab, hidden, seq);
  return graph;
}

OpGraph Bert(double size_billions) {
  struct BertVariant {
    double size_billions;
    int layers;
    int64_t hidden;
    int64_t heads;
  };
  // bert-large plus two scaled-up siblings (Megatron's BERT ladder).
  constexpr BertVariant kVariants[] = {
      {0.34, 24, 1024, 16},
      {1.2, 24, 2048, 32},
      {3.9, 48, 2560, 40},
  };
  for (const BertVariant& v : kVariants) {
    if (v.size_billions != size_billions) {
      continue;
    }
    OpGraph graph("bert-" + SizeTag(v.size_billions), Precision::kFp16, 256);
    const int64_t seq = 512;
    AppendEmbedding(graph, "", kVocab, v.hidden, seq);
    TransformerLayerSpec layer;
    layer.hidden = v.hidden;
    layer.ffn_hidden = 4 * v.hidden;
    layer.num_heads = v.heads;
    layer.seq_len = seq;
    for (int i = 0; i < v.layers; ++i) {
      AppendTransformerLayer(graph, "enc" + std::to_string(i) + ".", layer);
    }
    // Masked-LM head, as in BERT pre-training.
    AppendLmHead(graph, "", kVocab, v.hidden, seq);
    return graph;
  }
  ACESO_CHECK(false) << "unknown BERT size: " << size_billions;
  return OpGraph();
}

StatusOr<OpGraph> BuildByName(const std::string& name) {
  auto starts_with = [&](const char* prefix) {
    return name.rfind(prefix, 0) == 0;
  };
  // The whole tail must be the number: "gpt3-2.6bx" or "deepnet-4zz" name
  // no model (atof/atoi would read them as gpt3-2.6b and deepnet-4). A tail
  // that does not parse yields a size no variant has.
  auto parse_size = [&](const char* prefix) -> double {
    std::string tail = name.substr(std::string(prefix).size());
    if (!tail.empty() && tail.back() == 'b') {
      tail.pop_back();
    }
    if (tail.empty() || !std::isdigit(static_cast<unsigned char>(tail[0]))) {
      return -1.0;
    }
    char* end = nullptr;
    const double size = std::strtod(tail.c_str(), &end);
    return *end == '\0' ? size : -1.0;
  };
  if (starts_with("gpt3-")) {
    for (const GptVariant& v : kGptVariants) {
      if (std::abs(v.size_billions - parse_size("gpt3-")) < 1e-9) {
        return Gpt3(v.size_billions);
      }
    }
  } else if (starts_with("t5-")) {
    for (const T5Variant& v : kT5Variants) {
      if (std::abs(v.size_billions - parse_size("t5-")) < 1e-9) {
        return T5(v.size_billions);
      }
    }
  } else if (starts_with("wresnet-")) {
    for (const WrnVariant& v : kWrnVariants) {
      if (std::abs(v.size_billions - parse_size("wresnet-")) < 1e-9) {
        return WideResnet(v.size_billions);
      }
    }
  } else if (starts_with("deepnet-")) {
    const std::string tail = name.substr(8);
    char* end = nullptr;
    const long layers = std::strtol(tail.c_str(), &end, 10);
    if (!tail.empty() && std::isdigit(static_cast<unsigned char>(tail[0])) &&
        *end == '\0' && layers > 0 && layers <= 1024) {
      return DeepTransformer(static_cast<int>(layers));
    }
  } else if (starts_with("bert-")) {
    for (const double size : {0.34, 1.2, 3.9}) {
      if (std::abs(size - parse_size("bert-")) < 1e-9) {
        return Bert(size);
      }
    }
  }
  return InvalidArgument("unknown model name: " + name);
}

std::vector<std::string> ZooNames() {
  return {
      "gpt3-0.35b", "gpt3-1.3b", "gpt3-2.6b", "gpt3-6.7b", "gpt3-13b",
      "t5-0.77b",   "t5-3b",     "t5-6b",     "t5-11b",    "t5-22b",
      "wresnet-0.5b", "wresnet-2b", "wresnet-4b", "wresnet-6.8b",
      "wresnet-13b",
  };
}

int GpusForSizeIndex(int size_index) {
  constexpr int kGpus[] = {1, 4, 8, 16, 32};
  ACESO_CHECK_GE(size_index, 0);
  ACESO_CHECK_LT(size_index, 5);
  return kGpus[size_index];
}

}  // namespace models
}  // namespace aceso
