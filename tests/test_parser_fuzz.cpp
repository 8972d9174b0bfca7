// Seeded byte-mutation tests for the hand-rolled text parsers: campaign
// spec files (campaign::ParseSpec), NDJSON queries
// (service::QueryService::ParseQueryJson) and checkpoint journals
// (campaign::CampaignJournal::Load).  Every mutant of a valid input must
// either parse or be rejected through the parser's error channel
// (std::runtime_error / a false return with a message / a journal that
// does not exist or ends early) — never crash, hang, or throw anything
// else — and must get the same verdict on a second run.
// The mutation stream is a fixed-seed std::mt19937_64, so every run checks
// the same mutants; the sanitizer build turns the corpus into a
// memory-safety sweep.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
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

// A temp file private to the running test: ctest runs each test as its own
// process, in parallel, so a name shared by two tests lets them clobber it.
std::string TestTempPath(const std::string& suffix) {
  return ::testing::TempDir() + "/robustify_fuzz_" +
         ::testing::UnitTest::GetInstance()->current_test_info()->name() + suffix;
}

// Loads `text` as a journal file.
campaign::CampaignJournal::Loaded LoadJournalText(const std::string& text) {
  const std::string path = TestTempPath(".journal");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  campaign::CampaignJournal::Loaded loaded = campaign::CampaignJournal::Load(path);
  std::remove(path.c_str());
  return loaded;
}

// What Load() makes of `loaded`, as text: "ok:" + the header fingerprint
// and every record's fields (the metric as %a, exact), or "absent" when it
// refused the file.  A torn or malformed line ends the record list.
std::string JournalVerdict(const campaign::CampaignJournal::Loaded& loaded) {
  if (!loaded.exists) return "absent";
  std::string verdict = "ok:" + std::to_string(loaded.fingerprint);
  for (const campaign::TrialRecord& r : loaded.records) {
    char metric[64];
    std::snprintf(metric, sizeof(metric), "%a", r.metric);
    verdict += '|' + std::to_string(r.series) + ',' + std::to_string(r.rate) + ',' +
               std::to_string(r.trial) + ',' + std::to_string(r.success) + ',' + metric +
               ',' + std::to_string(r.faulty_flops) + ',' +
               std::to_string(r.faults_injected) + ',' + std::to_string(r.verdict);
  }
  return verdict;
}

std::string JournalVerdict(const std::string& text) {
  return JournalVerdict(LoadJournalText(text));
}

// Writes `records` under `fingerprint` with the journal's own writer and
// returns the file's bytes.
std::string WriteJournal(std::uint64_t fingerprint,
                         const std::vector<campaign::TrialRecord>& records) {
  const std::string path = TestTempPath("_written.journal");
  campaign::CampaignJournal(path).RewriteAndOpen(fingerprint, records);
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

std::vector<std::string> JournalCorpus() {
  std::vector<campaign::TrialRecord> records;
  const double metrics[] = {0.0, -0.0, 1.5, 1e-300, 6.02e23,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 7; ++i) {
    campaign::TrialRecord r;
    r.series = i % 3;
    r.rate = i % 4;
    r.trial = 10 * i;
    r.verdict = i % 4;
    r.success = r.verdict == 0;
    r.metric = metrics[i];
    r.faulty_flops = 1000003ull * static_cast<std::uint64_t>(i + 1) << 20;
    r.faults_injected = static_cast<std::uint64_t>(i) * 17;
    records.push_back(r);
  }
  std::vector<std::string> corpus = {WriteJournal(0x0123456789abcdefull, records),
                                     WriteJournal(0xffffffffffffffffull, {})};
  // A journal from before the guarded executor: seven fields per record.
  corpus.push_back(WriteJournal(42, {records[0]}) + "t 1 2 3 1 0x1.8p+1 100 3\n" +
                   "t 1 2 4 0 -inf 18446744073709551615 0\n");
  return corpus;
}

TEST(ParserFuzz, JournalMutantsParseOrRejectDeterministically) {
  const std::vector<std::string> corpus = JournalCorpus();
  int parsed = 0, rejected = 0;
  for (std::size_t s = 0; s < corpus.size(); ++s) {
    // The unmutated corpus parses in full.
    ASSERT_EQ(JournalVerdict(corpus[s]).rfind("ok:", 0), 0u) << "corpus " << s;
    std::mt19937_64 rng(0x10A7AB00u + s);
    for (int m = 0; m < kMutantsPerSeed; ++m) {
      const std::string mutant = Mutate(corpus[s], rng);
      std::string first;
      ASSERT_NO_THROW(first = JournalVerdict(mutant)) << "seed " << s << " mutant " << m;
      EXPECT_EQ(JournalVerdict(mutant), first) << "seed " << s << " mutant " << m;
      if (first == "absent") {
        ++rejected;
        continue;
      }
      ++parsed;
      // Whatever loads, rewritten by the journal's own writer, loads back
      // to the same records.
      const campaign::CampaignJournal::Loaded loaded = LoadJournalText(mutant);
      EXPECT_EQ(JournalVerdict(WriteJournal(loaded.fingerprint, loaded.records)), first)
          << "seed " << s << " mutant " << m;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// A final line without its '\n' is torn even when it parses: cut after the
// fault counter, a verdict-3 line reads as a legacy 7-field line with the
// wrong verdict; cut inside a counter, it reads a smaller one.
TEST(ParserFuzz, UnterminatedFinalRecordIsTorn) {
  const std::string header = WriteJournal(7, {});
  const std::string whole = "t 0 1 2 0 0x1p-1 123 45 3\n";
  const campaign::CampaignJournal::Loaded clean = LoadJournalText(header + whole);
  ASSERT_EQ(clean.records.size(), 1u);
  EXPECT_EQ(clean.records[0].verdict, 3);
  EXPECT_TRUE(clean.clean_tail);
  for (const std::size_t cut : {whole.size() - 1, whole.size() - 3, whole.size() - 5}) {
    const campaign::CampaignJournal::Loaded torn =
        LoadJournalText(header + whole + whole.substr(0, cut));
    EXPECT_EQ(torn.records.size(), 1u) << "cut at " << cut;
    EXPECT_FALSE(torn.clean_tail) << "cut at " << cut;
  }
  EXPECT_TRUE(LoadJournalText(header).clean_tail);
  EXPECT_FALSE(LoadJournalText(header.substr(0, header.size() - 1)).clean_tail);
}

}  // namespace
