// Known-answer tests for the fault injector's random streams.
//
// Every trial result in the repo is a function of these three streams: the
// raw LFSR words, the alias-table bit positions, and the geometric gap
// draws.  The values below were recorded from the sampler implementations
// that produced the committed golden CSVs; any rewrite of the samplers
// (branch-free selects, inlining, table layout) must reproduce them word
// for word.  The rate-1e-3 gaps go through the inverse-CDF form and so
// also pin libm's log() on the build host.
#include <gtest/gtest.h>

#include <cstdint>

#include "faulty/bit_distribution.h"
#include "faulty/gap_sampler.h"
#include "faulty/lfsr.h"

namespace {

using namespace robustify::faulty;

constexpr int kDraws = 64;
constexpr std::uint64_t kSeed = 42;

constexpr std::uint64_t kLfsrWords[kDraws] = {
    0x06ca0a95b7e825c7ull, 0xc402765859dba8b0ull, 0xe66bd76e2be35b4bull,
    0xeebaa5bd9105aba3ull, 0x98b99aefc2d0cd72ull, 0x3ee12b07a31bbde2ull,
    0xf7da823b1ccd151eull, 0x71da651945c06931ull, 0x327c71aca0ede62dull,
    0x64fc633f725aececull, 0x1506159336cf41a1ull, 0x37a4b2b82b0770d8ull,
    0xebd823b6f3d78e51ull, 0x80f2d344342fe8bcull, 0x76a9b6c50fef2c11ull,
    0xe144f9ad0f1c7c8dull, 0x8e392d193fff661eull, 0x9459474fa4a01f2eull,
    0x64f0c145063ef3e7ull, 0xd70757e3d7219209ull, 0x9effad4cb6457d02ull,
    0xe18e481ed07a41f3ull, 0x4dcc9153426f68eaull, 0x205a14597981f2afull,
    0xd01180093fb03cbeull, 0x80f495078ac9d874ull, 0x9dbca8f4ce4432f7ull,
    0x573c54b9922388e0ull, 0x8fa0258902f60445ull, 0x4ea1708b7a0bdf17ull,
    0xae0565bdaa5a3462ull, 0xa276b6a75203fc99ull, 0xf9b729e6e409dcc3ull,
    0x595ccc4744464a55ull, 0x17d4331d2922e962ull, 0xaa55404e9110a680ull,
    0xdf96b52775d8f200ull, 0x81c932e40a95b5b0ull, 0xd4200e547088f7bfull,
    0xfc07551eb10c8d87ull, 0x9932f6ec645bd059ull, 0x9e7428832d27d776ull,
    0xe5df57a0415fff9full, 0x932552f93bcdfec1ull, 0xfd622a04ab08e922ull,
    0xb6b36327b9f9eadcull, 0x20a2da2cb6b4f048ull, 0xcca4686efe6b9ebdull,
    0xdd8c6fb1924fd904ull, 0xd875ca552c278527ull, 0x06386c78747115cfull,
    0x12b8b35677244beaull, 0xd03212a3552b9d06ull, 0xb9d37296671457acull,
    0x1394c995dd7972e8ull, 0x3fdea3c8dfc57ce6ull, 0x5c24418b0f9ab95cull,
    0x661f6df4b24b0566ull, 0x02f3dd6df069a094ull, 0x6f857e29f075a038ull,
    0x49000bdb53623a96ull, 0xb668db8e4a385d45ull, 0xa18219dcbe12cd23ull,
    0x087511e9b1dab3e4ull,
};

constexpr int kBimodalBits[kDraws] = {
    0, 49, 51, 51, 49, 0, 51, 4, 0, 2, 5, 0, 51, 47, 4, 51,
    49, 49, 2, 50, 50, 51, 1, 8, 52, 47, 50, 1, 49, 1, 43, 50,
    51, 2, 4, 50, 51, 47, 53, 63, 49, 50, 51, 49, 63, 7, 8, 51,
    51, 54, 0, 3, 52, 45, 3, 0, 23, 2, 0, 3, 1, 7, 50, 2,
};

struct GapAnswers {
  double rate;
  std::uint64_t gaps[kDraws];
};

constexpr GapAnswers kGapAnswers[] = {
    {1e-3,
     {
         3628, 266, 105, 69, 516, 1403, 32, 809, 1622, 929, 2498, 1525, 81, 685, 768, 127,
         587, 545, 930, 174, 476, 126, 1190, 2067, 207, 685, 484, 1076, 577, 1179, 385, 454,
         24, 1051, 2373, 407, 135, 678, 187, 15, 513, 479, 107, 553, 10, 337, 2058, 223,
         144, 167, 3715, 2614, 206, 320, 2569, 1387, 1021, 918, 4460, 830, 1254, 338, 460, 3408,
     }},
    {1.0 / 64,
     {
         1, 49, 164, 15, 91, 12, 25, 5, 158, 119, 35, 37, 25, 182, 19, 8,
         52, 32, 39, 145, 43, 148, 221, 53, 101, 323, 51, 55, 54, 1, 4, 52,
         46, 4, 86, 25, 0, 81, 103, 2, 27, 51, 73, 27, 59, 24, 20, 16,
         5, 10, 33, 15, 3, 146, 22, 48, 79, 22, 181, 7, 49, 27, 147, 30,
     }},
    {0.05,
     {
         1, 49, 13, 17, 38, 14, 91, 11, 25, 5, 12, 15, 32, 29, 12, 1,
         37, 25, 9, 2, 12, 18, 8, 52, 32, 2, 21, 1, 18, 4, 3, 85,
         4, 3, 11, 32, 53, 101, 2, 13, 1, 67, 8, 51, 11, 54, 1, 3,
         52, 5, 3, 14, 23, 25, 0, 0, 18, 4, 40, 2, 27, 51, 5, 10,
     }},
    {0.1,
     {
         1, 49, 9, 10, 2, 14, 12, 0, 11, 25, 5, 12, 9, 1, 0, 8,
         1, 37, 25, 7, 2, 8, 19, 8, 52, 1, 2, 0, 1, 19, 3, 2,
         14, 22, 4, 3, 8, 1, 7, 65, 2, 9, 2, 17, 4, 7, 6, 8,
         7, 1, 4, 6, 4, 4, 14, 23, 0, 0, 0, 18, 4, 2, 2, 27,
     }},
    {0.25,
     {
         0, 3, 5, 5, 1, 0, 6, 1, 0, 0, 5, 0, 5, 1, 1, 4,
         1, 1, 0, 4, 2, 4, 0, 8, 3, 1, 2, 0, 1, 0, 2, 2,
         7, 0, 4, 2, 4, 1, 4, 9, 1, 2, 5, 1, 9, 2, 8, 3,
         4, 4, 0, 3, 3, 2, 3, 0, 0, 0, 0, 0, 0, 2, 2, 2,
     }},
};

TEST(RngKnownAnswers, LfsrWords) {
  Lfsr rng(kSeed);
  for (int i = 0; i < kDraws; ++i) EXPECT_EQ(rng.next(), kLfsrWords[i]) << "draw " << i;
}

TEST(RngKnownAnswers, BimodalBitPositions) {
  const BitDistribution& bits = SharedBitDistribution(BitModel::kBimodal);
  Lfsr rng(kSeed);
  for (int i = 0; i < kDraws; ++i) EXPECT_EQ(bits.sample(rng), kBimodalBits[i]) << "draw " << i;
}

TEST(RngKnownAnswers, GeometricGaps) {
  for (const GapAnswers& answers : kGapAnswers) {
    const GeometricGapSampler& gaps = GeometricGapSampler::Shared(answers.rate);
    Lfsr rng(kSeed);
    for (int i = 0; i < kDraws; ++i) {
      EXPECT_EQ(gaps.Sample(rng), answers.gaps[i]) << "rate " << answers.rate << " draw " << i;
    }
  }
}

}  // namespace
