// Seeded byte-mutation tests for the hand-rolled text parsers: campaign
// spec files (campaign::ParseSpec) and NDJSON queries
// (service::QueryService::ParseQueryJson).  Every mutant of a valid input
// must either parse or be rejected through the parser's error channel
// (std::runtime_error / a false return with a message) — never crash, hang,
// or throw anything else — and must get the same verdict on a second run.
// The mutation stream is a fixed-seed std::mt19937_64, so every run checks
// the same mutants; the sanitizer build turns the corpus into a
// memory-safety sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/spec.h"
#include "service/query_service.h"

namespace {

using namespace robustify;

constexpr int kMutantsPerSeed = 400;

// Bytes the parsers treat specially, weighted up so mutants probe the
// grammar rather than only the values.
constexpr char kSyntax[] = "=#,\n\r\t {}[]\":/\\.-+e0123456789";

// Applies one to four random edits: overwrite a byte, delete a span,
// insert a byte, duplicate a span (repeats keys and lines), or truncate.
std::string Mutate(const std::string& text, std::mt19937_64& rng) {
  std::string out = text;
  const auto pick = [&rng](std::size_t n) {
    return n == 0 ? std::size_t{0} : static_cast<std::size_t>(rng() % n);
  };
  const auto random_byte = [&rng, &pick]() {
    return (rng() & 1) != 0 ? kSyntax[pick(sizeof(kSyntax) - 1)]
                            : static_cast<char>(rng() & 0xff);
  };
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    const std::size_t at = pick(out.size() + 1);
    switch (rng() % 5) {
      case 0:
        if (at < out.size()) out[at] = random_byte();
        break;
      case 1:
        out.erase(at, 1 + pick(8));
        break;
      case 2:
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), random_byte());
        break;
      case 3: {
        const std::string span = out.substr(at, 1 + pick(48));
        out.insert(pick(out.size() + 1), span);
        break;
      }
      default:
        out.resize(at);
        break;
    }
  }
  return out;
}

// "ok:" + the canonical form of what parsed, or "err:" + the message.
std::string SpecVerdict(const std::string& text) {
  std::istringstream is(text);
  try {
    return "ok:" + campaign::FormatSpec(campaign::ParseSpec(is));
  } catch (const std::runtime_error& e) {
    return std::string("err:") + e.what();
  }
}

std::string QueryVerdict(const std::string& line) {
  service::Query q;
  std::string error;
  if (!service::QueryService::ParseQueryJson(line, &q, &error)) {
    EXPECT_FALSE(error.empty()) << "rejected without a message: " << line;
    return "err:" + error;
  }
  std::ostringstream os;
  os.precision(17);
  os << "ok:" << q.cmd << '|' << q.app << '|' << q.series << '|' << q.rate << '|'
     << q.ci << '|' << q.allow_fresh << q.allow_surrogate;
  return os.str();
}

std::vector<std::string> SpecCorpus() {
  std::vector<std::string> corpus;
  for (const std::string& name : campaign::RegistryNames()) {
    corpus.push_back(campaign::FormatSpec(campaign::RegistrySpec(name)));
  }
  corpus.push_back(
      "# hand-written\n"
      "app = fig6_1   # scenario key\n"
      "rates = 0, 1e-4, 0.25\n"
      "series = SGD+AS,SQS\n"
      "series = Base\n"
      "shard = 1/3\n"
      "model = intermittent\n"
      "op_classes = arith,mem\n"
      "window_mean = 48\n"
      "window_rate = 0.5\n"
      "guard_flops = 1000000\n"
      "guard_bailout = true\n");
  return corpus;
}

TEST(ParserFuzz, SpecMutantsParseOrRejectDeterministically) {
  const std::vector<std::string> corpus = SpecCorpus();
  int parsed = 0, rejected = 0;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    std::mt19937_64 rng(0x5EED0000u + s);
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string mutant = Mutate(corpus[s], rng);
      std::string first;
      ASSERT_NO_THROW(first = SpecVerdict(mutant)) << "seed " << s << " mutant " << m;
      EXPECT_EQ(SpecVerdict(mutant), first) << "seed " << s << " mutant " << m;
      if (first.rfind("ok:", 0) != 0) {
        ++rejected;
        continue;
      }
      ++parsed;
      // Whatever parses has a canonical form that parses back to itself.
      EXPECT_EQ(SpecVerdict(first.substr(3)), first) << "seed " << s << " mutant " << m;
    }
  }
  // The corpus must exercise both outcomes, or the mutator is too weak (or
  // too strong) to say anything.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

TEST(ParserFuzz, QueryMutantsParseOrRejectDeterministically) {
  const std::vector<std::string> corpus = {
      R"({"app":"fig6_6","series":"CG,N=10","rate":1e-3,"ci":0.05})",
      R"({"app":"fig6_1","series":"SGD+AS,\"SQS\"","rate":0.25,"fresh":false,"surrogate":true})",
      R"({ "cmd" : "stats" })",
  };
  int parsed = 0, rejected = 0;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    std::mt19937_64 rng(0xC0FFEE00u + s);
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string mutant = Mutate(corpus[s], rng);
      std::string first;
      ASSERT_NO_THROW(first = QueryVerdict(mutant)) << "seed " << s << " mutant " << m;
      EXPECT_EQ(QueryVerdict(mutant), first) << "seed " << s << " mutant " << m;
      (first.rfind("ok:", 0) == 0 ? parsed : rejected) += 1;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// Duplicated keys are the mutation last-wins parsing used to absorb
// silently; both parsers now name them.
TEST(ParserFuzz, DuplicateKeysAreRejected) {
  EXPECT_NE(SpecVerdict("app = fig6_1\nrates = 0\nseed = 3\nseed = 4\n")
                .find("duplicate key 'seed'"),
            std::string::npos);
  EXPECT_EQ(SpecVerdict("app = fig6_1\nrates = 0\nseries = Base\nseries = Base\n")
                .rfind("ok:", 0),
            0u);
  EXPECT_NE(QueryVerdict(R"({"app":"a","series":"A","rate":1,"app":"b"})")
                .find("duplicate key 'app'"),
            std::string::npos);
}

}  // namespace
