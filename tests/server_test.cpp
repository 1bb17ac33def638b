// Tests for src/server: the JSON layer, the Service protocol core, and the
// TCP daemon + client. The headline properties pinned here are the ones
// the serving layer sells: protocol errors never kill the daemon, deadlines
// degrade instead of stalling, repeated requests hit the model caches, and
// N concurrent clients get byte-identical responses to a serial replay
// (this file runs under TSan in CI, so the identity check doubles as the
// data-race probe).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aig/aig.hpp"
#include "aig/aig_io.hpp"
#include "aig/aig_random.hpp"
#include "core/bits.hpp"
#include "core/rng.hpp"
#include "obs/trace.hpp"
#include "sat/cec.hpp"
#include "server/client.hpp"
#include "server/json.hpp"
#include "server/server.hpp"
#include "server/service.hpp"
#include "synth/script.hpp"

namespace lsml {
namespace {

using server::Client;
using server::Deadline;
using server::Json;
using server::Server;
using server::ServerOptions;
using server::Service;
using server::ServiceOptions;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "lsml_server_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// PLA text for a full truth table of `fn` over `num_inputs` variables.
std::string pla_for(std::size_t num_inputs,
                    const std::function<bool(std::uint32_t)>& fn) {
  std::ostringstream os;
  os << ".i " << num_inputs << "\n.o 1\n";
  for (std::uint32_t row = 0; row < (1u << num_inputs); ++row) {
    for (std::size_t bit = 0; bit < num_inputs; ++bit) {
      os << (((row >> bit) & 1u) != 0 ? '1' : '0');
    }
    os << ' ' << (fn(row) ? '1' : '0') << '\n';
  }
  os << ".e\n";
  return os.str();
}

std::string aag_text(const aig::Aig& g) {
  std::ostringstream os;
  aig::write_aag(g, os);
  return os.str();
}

aig::Aig or2_circuit() {
  aig::Aig g(2);
  g.add_output(g.or2(g.pi(0), g.pi(1)));
  return g;
}

aig::Aig and2_circuit() {
  aig::Aig g(2);
  g.add_output(g.and2(g.pi(0), g.pi(1)));
  return g;
}

Json handle(Service& service, const Json& request) {
  return Json::parse(service.handle_line(request.dump()));
}

Json make_request(const char* type) {
  Json r = Json::object();
  r.set("type", type);
  return r;
}

Json learn_request(const std::string& pla, const std::string& learner = "dt") {
  Json r = make_request("learn");
  r.set("learner", learner);
  r.set("pla", pla);
  return r;
}

/// A deadline whose clock started `elapsed_ms` ago — how tests make expiry
/// deterministic without sleeping.
std::chrono::steady_clock::time_point received_ago(std::int64_t elapsed_ms) {
  return std::chrono::steady_clock::now() -
         std::chrono::milliseconds(elapsed_ms);
}

// ===================================================================== JSON

TEST(JsonTest, DumpParseRoundTrip) {
  Json obj = Json::object();
  obj.set("s", "line1\nline2\t\"quoted\"\\");
  obj.set("i", std::int64_t{-42});
  obj.set("d", 0.25);
  obj.set("b", true);
  obj.set("n", Json());
  Json arr = Json::array();
  arr.push_back(Json("x"));
  arr.push_back(Json(std::int64_t{7}));
  obj.set("a", std::move(arr));

  const std::string text = obj.dump();
  const Json back = Json::parse(text);
  EXPECT_EQ(back.at("s").as_string(), "line1\nline2\t\"quoted\"\\");
  EXPECT_EQ(back.at("i").as_int(), -42);
  EXPECT_DOUBLE_EQ(back.at("d").as_double(), 0.25);
  EXPECT_TRUE(back.at("b").as_bool());
  EXPECT_TRUE(back.at("n").is_null());
  EXPECT_EQ(back.at("a").size(), 2u);
  EXPECT_EQ(back.at("a").at(0).as_string(), "x");
  // Canonical: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(back.dump(), text);
}

TEST(JsonTest, PreservesMemberOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
}

TEST(JsonTest, ParsesEscapesAndUnicode) {
  const Json v = Json::parse(R"({"k":"aA\né 😀"})");
  EXPECT_EQ(v.at("k").as_string(), "aA\n\xc3\xa9 \xf0\x9f\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), server::JsonError);
  EXPECT_THROW(Json::parse("{"), server::JsonError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), server::JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), server::JsonError);
  EXPECT_THROW(Json::parse("[1,2"), server::JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), server::JsonError);
  EXPECT_THROW(Json::parse("truth"), server::JsonError);
  EXPECT_THROW(Json::parse("{} trailing"), server::JsonError);
  EXPECT_THROW(Json::parse("\"bad \\q escape\""), server::JsonError);
  EXPECT_THROW(Json::parse("\"ctrl \x01\""), server::JsonError);
  EXPECT_THROW(Json::parse("01"), server::JsonError);
}

TEST(JsonTest, NumbersKeepIntegerness) {
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(Json::parse("1.5e3").as_double(), 1500.0);
  // Shortest-round-trip doubles re-parse bit-exactly.
  const double x = 0.1234567890123456789;
  EXPECT_EQ(Json(x).dump(), Json::parse(Json(x).dump()).dump());
}

/// Bytes a string scan must stop at ('"', '\\', 0x00-0x1f) and bytes it
/// must run past (0x7f, 0x80-0xff, UTF-8 sequences, plain ASCII), as
/// strings so a multi-byte sequence counts as one placement.
std::vector<std::string> scan_probe_bytes() {
  std::vector<std::string> probes = {"\"", "\\", "\x7f", "a", "/", " ",
                                     "\xc3\xa9", "\xf0\x9f\x98\x80"};
  for (int b = 0x00; b < 0x20; ++b) {
    probes.emplace_back(1, static_cast<char>(b));
  }
  for (int b = 0x80; b <= 0xff; ++b) {
    probes.emplace_back(1, static_cast<char>(b));
  }
  return probes;
}

// Frozen copy of the byte-at-a-time scan the parser and serializer used
// before find_special_byte.
std::size_t reference_find_special_byte(const char* data, std::size_t from,
                                        std::size_t size) {
  std::size_t i = from;
  while (i < size) {
    const unsigned char c = static_cast<unsigned char>(data[i]);
    if (c == '"' || c == '\\' || c < 0x20) {
      break;
    }
    ++i;
  }
  return i;
}

TEST(JsonTest, StringScanMatchesFrozenByteScanner) {
  // Each probe at every offset 0-17 from every start, followed by 0-9
  // plain bytes, in an exact-size heap buffer (the sanitized build flags
  // any read past the end). A second probe after the first checks that
  // the scan stops at the first one.
  std::size_t stops = 0;
  for (const std::string& probe : scan_probe_bytes()) {
    for (const std::string& second : {std::string(), std::string("\""),
                                      std::string(1, '\x01')}) {
      for (std::size_t at = 0; at <= 17; ++at) {
        for (std::size_t tail = 0; tail <= 9; ++tail) {
          std::string text(at, '0');
          text += probe;
          text.append(tail, 'a');
          text += second;
          const std::vector<char> buffer(text.begin(), text.end());
          for (std::size_t from = 0; from <= buffer.size(); ++from) {
            const std::size_t want = reference_find_special_byte(
                buffer.data(), from, buffer.size());
            ASSERT_EQ(server::find_special_byte(buffer.data(), from,
                                                buffer.size()),
                      want)
                << "probe 0x" << std::hex
                << static_cast<int>(static_cast<unsigned char>(probe[0]))
                << std::dec << " at " << at << " from " << from;
            stops += want < buffer.size() ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(stops, 0u);
}

TEST(JsonTest, StringScanOutcomesArePinned) {
  // Every probe byte at every offset 0-17 of a string body, followed by
  // 0-9 plain bytes, so it also sits within 8 bytes of the end of the text;
  // each body is parsed as a document, inside an array (which also runs
  // the element-count prescan), as an object key, and unterminated. The
  // transcript of parsed values (re-dumped) and error messages, including
  // every "at byte N", is pinned by a hash taken from the byte-at-a-time
  // scanner this parser used to have.
  std::string transcript;
  std::size_t values = 0;
  std::size_t errors = 0;
  for (const std::string& probe : scan_probe_bytes()) {
    for (std::size_t at = 0; at <= 17; ++at) {
      for (std::size_t tail = 0; tail <= 9; ++tail) {
        std::string body;
        for (std::size_t i = 0; i < at; ++i) {
          body.push_back(i % 3 == 0 ? '1' : '0');
        }
        body += probe;
        for (std::size_t i = 0; i < tail; ++i) {
          body.push_back(i % 2 == 0 ? 'n' : '0');
        }
        for (const std::string& text :
             {"\"" + body + "\"", "[\"0101\",\"" + body + "\",\"11\"]",
              "{\"" + body + "\":1}", "\"" + body}) {
          try {
            transcript += Json::parse(text).dump();
            ++values;
          } catch (const server::JsonError& e) {
            transcript += e.what();
            ++errors;
          }
          transcript.push_back('\n');
        }
      }
    }
  }
  EXPECT_EQ(values + errors, 168u * 18 * 10 * 4);
  EXPECT_EQ(values, 72864u);
  EXPECT_EQ(errors, 48096u);
  EXPECT_EQ(core::fnv1a(transcript.data(), transcript.size()),
            7617503486224319200ULL);
}

/// `parse(text).dump()`, or the JsonError message when parsing throws.
std::string parse_outcome(const std::string& text) {
  try {
    return Json::parse(text).dump();
  } catch (const server::JsonError& e) {
    return std::string("error: ") + e.what();
  }
}

/// A JSON array of `k` distinct row strings followed by `tail`.
std::string rows_then(std::size_t k, const std::string& tail) {
  std::string text = "[";
  for (std::size_t i = 0; i < k; ++i) {
    text += "\"r" + std::to_string(i) + "\",";
  }
  return text + tail + "]";
}

TEST(JsonTest, StringArrayRoundTripsArePinned) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"[]", "[]"},
      {" [ ] ", "[]"},
      {"[\"\"]", "[\"\"]"},
      {"[\"\",\"\",\"x\",\"\"]", "[\"\",\"\",\"x\",\"\"]"},
      {"[ \"01\" ,\n\"10\"\t]", "[\"01\",\"10\"]"},
      {R"(["a\"b","c\\d","e\nf","\u0031","\ud83d\ude00","\/"])",
       "[\"a\\\"b\",\"c\\\\d\",\"e\\nf\",\"1\",\"\xf0\x9f\x98\x80\",\"/\"]"},
      {R"(["01","01"])", "[\"01\",\"01\"]"},
      {"[[\"01\",\"10\"],[\"11\"],[],[\"\"]]",
       "[[\"01\",\"10\"],[\"11\"],[],[\"\"]]"},
      {"[\"a\",[\"b\",\"c\"],\"d\"]", "[\"a\",[\"b\",\"c\"],\"d\"]"},
      {R"(["a" "b"])", "error: expected ',' or ']' in array at byte 6"},
      {R"(["a",])", "error: bad number at byte 5"},
      {R"(["a",1,])", "error: bad number at byte 7"},
      {R"(["a)", "error: unterminated string at byte 3"},
      {R"(["a\)", "error: truncated escape at byte 4"},
      {R"(["a","b)", "error: unterminated string at byte 7"},
      {R"(["a","b")", "error: unexpected end of JSON text at byte 8"},
      {R"(["a",)", "error: unexpected end of JSON text at byte 5"},
      {R"(["a\q"])", "error: unknown escape at byte 5"},
      {R"(["a","\ud800"])", "error: unpaired UTF-16 surrogate at byte 12"},
      {R"(["a"] x)", "error: trailing characters after JSON value at byte 6"},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(parse_outcome(text), want) << text;
  }
  // A non-string element after k strings, then more strings after it.
  for (const std::size_t k : {1u, 2u, 64u, 65u}) {
    for (const std::string& tail :
         {std::string("7"), std::string("null"), std::string("true"),
          std::string("-1.5"), std::string("[\"x\"]"),
          std::string("{\"k\":\"v\"}"), std::string("7,\"after\",\"\"")}) {
      const std::string text = rows_then(k, tail);
      EXPECT_EQ(parse_outcome(text), text) << text;
      const Json parsed = Json::parse(text);
      ASSERT_EQ(parsed.size(), k + (tail.back() == '"' ? 3 : 1)) << text;
      EXPECT_EQ(parsed.at(k - 1).as_string(),
                std::string(1, 'r').append(std::to_string(k - 1)));
      EXPECT_FALSE(parsed.at(k).is_string());
    }
    // ...and malformed after k strings: the message and byte are the ones
    // a shorter array gets, shifted by the prefix.
    const std::size_t prefix = rows_then(k, "").size() - 1;
    EXPECT_EQ(parse_outcome(rows_then(k, "1,")),
              "error: bad number at byte " + std::to_string(prefix + 2));
    EXPECT_EQ(parse_outcome(rows_then(k, "\"a\" \"b\"")),
              "error: expected ',' or ']' in array at byte " +
                  std::to_string(prefix + 5));
  }
  // Accessors on string array elements.
  const Json parsed = Json::parse(R"(["01","1\n0",""])");
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at(0).as_string(), "01");
  EXPECT_EQ(parsed.at(1).as_string(), "1\n0");
  EXPECT_EQ(parsed.at(2).as_string(), "");
  EXPECT_TRUE(parsed.at(2).is_string());
  const auto message = [](const std::function<void()>& f) {
    try {
      f();
    } catch (const server::JsonError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  EXPECT_EQ(message([&] { (void)parsed.at(3); }),
            "JSON array index out of range");
  EXPECT_EQ(message([&] { (void)parsed.at(0).as_int(); }),
            "JSON value is not a number");
  EXPECT_EQ(message([&] { (void)parsed.as_string(); }),
            "JSON value is not a string");
  EXPECT_EQ(message([&] { (void)parsed.at("k"); }), "missing JSON member 'k'");
  EXPECT_EQ(message([&] { (void)parsed.members(); }),
            "JSON value is not an object");
  EXPECT_EQ(parsed.find("k"), nullptr);
}

TEST(JsonTest, CopiesOfAParsedStringArrayDoNotSeeEachOthersPushes) {
  const Json original = Json::parse(R"(["01","10","11"])");
  const std::string text = original.dump();
  Json copy = original;
  copy.push_back(Json("00"));
  copy.push_back(Json(std::int64_t{5}));
  EXPECT_EQ(original.size(), 3u);
  EXPECT_EQ(original.dump(), text);
  EXPECT_EQ(copy.size(), 5u);
  EXPECT_EQ(copy.dump(), R"(["01","10","11","00",5])");
  // The other way round: the copy keeps what it had when it was taken.
  Json grown = Json::parse(R"(["a","b"])");
  const Json kept = grown;
  (void)kept.at(1);
  grown.push_back(Json("c"));
  EXPECT_EQ(kept.dump(), R"(["a","b"])");
  EXPECT_EQ(kept.at(1).as_string(), "b");
  EXPECT_EQ(grown.dump(), R"(["a","b","c"])");
}

TEST(JsonTest, ArrayElementReferencesAreStable) {
  const Json rows = Json::parse(R"(["01","10","11"])");
  const Json* first = &rows.at(0);
  const Json* last = &rows.at(2);
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_EQ(&rows.at(0), first);
    EXPECT_EQ(&rows.at(2), last);
    EXPECT_EQ(&rows.at(0).as_string(), &first->as_string());
  }
  EXPECT_EQ(first->as_string(), "01");
  EXPECT_EQ(last->as_string(), "11");
}

TEST(JsonTest, StringViewsCoverBothArrayForms) {
  // Parsed all-string, parsed mixed, and built with push_back: strings
  // (empty ones too) view their bytes, other elements are null views.
  Json built = Json::array();
  built.push_back(Json("1\n"));
  built.push_back(Json());
  built.push_back(Json(""));
  for (const Json& array :
       {Json::parse(R"(["1\n","","x"])"), Json::parse(R"(["1\n",null,""])"),
        built}) {
    std::vector<std::string_view> views = {"stale", "stale", "stale", "x"};
    array.string_views_into(&views);
    ASSERT_EQ(views.size(), 3u) << array.dump();
    EXPECT_EQ(views[0], "1\n");
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(views[i].data() == nullptr, !array.at(i).is_string()) << i;
      if (array.at(i).is_string()) {
        EXPECT_EQ(views[i], array.at(i).as_string()) << i;
      }
    }
  }
  std::vector<std::string_view> views = {"stale"};
  Json::parse("[]").string_views_into(&views);
  EXPECT_TRUE(views.empty());
  EXPECT_THROW(Json::parse("\"01\"").string_views_into(&views),
               server::JsonError);
}

TEST(JsonTest, ConcurrentReadsOfOneParsedDocumentAgree) {
  // Four threads read one parsed document at once, each through every
  // accessor, before any element was built; under TSan this is the race
  // probe for the packed arrays' build-once elements.
  constexpr int kThreads = 4;
  std::string text = R"({"inputs":[)";
  std::vector<std::string> rows;
  for (int r = 0; r < 300; ++r) {
    rows.push_back(std::to_string(r * 7919));
    text += (r > 0 ? ",\"" : "\"") + rows.back() + "\"";
  }
  text += R"(],"batches":[["01","10"],["11"]]})";
  const Json doc = Json::parse(text);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const Json& inputs = doc.at("inputs");
      std::vector<std::string_view> views;
      for (int pass = 0; pass < 20; ++pass) {
        for (std::size_t i = 0; i < rows.size(); ++i) {
          const std::size_t r = (i * 31 + static_cast<std::size_t>(t)) %
                                rows.size();
          mismatches[t] += inputs.at(r).as_string() == rows[r] ? 0 : 1;
        }
        inputs.string_views_into(&views);
        mismatches[t] += views.size() == rows.size() &&
                                 views[t] == rows[static_cast<std::size_t>(t)]
                             ? 0
                             : 1;
        mismatches[t] += inputs.size() == rows.size() ? 0 : 1;
        mismatches[t] += doc.dump() == Json::parse(text).dump() ? 0 : 1;
        mismatches[t] +=
            doc.at("batches").at(0).at(0).as_string() == "01" ? 0 : 1;
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(JsonTest, ModelIdRoundTrip) {
  const std::string id = server::model_id_from_hash(0x0123456789abcdefULL);
  EXPECT_EQ(id, "m-0123456789abcdef");
  std::uint64_t hash = 0;
  EXPECT_TRUE(server::model_hash_from_id(id, &hash));
  EXPECT_EQ(hash, 0x0123456789abcdefULL);
  EXPECT_FALSE(server::model_hash_from_id("m-123", &hash));
  EXPECT_FALSE(server::model_hash_from_id("x-0123456789abcdef", &hash));
  EXPECT_FALSE(server::model_hash_from_id("m-0123456789abcdeg", &hash));
}

// ================================================== Service: protocol errors

TEST(ServiceTest, MalformedRequestsAreErrorsNotCrashes) {
  Service service;
  for (const char* line : {
           "not json at all",
           "{\"type\":\"learn\"",   // truncated JSON
           "[1,2,3]",               // not an object
           "{}",                    // no type
           "{\"type\":42}",         // type not a string
           "{\"type\":\"nope\"}",   // unknown type
           "{\"type\":\"learn\"}",  // missing fields
           "{\"type\":\"eval\",\"model\":\"bogus\"}",
           "{\"type\":\"synth\",\"aag\":\"not an aiger file\"}",
           "{\"type\":\"cec\",\"a\":\"x\",\"b\":\"y\"}",
       }) {
    const Json response = Json::parse(service.handle_line(line));
    EXPECT_FALSE(response.at("ok").as_bool()) << line;
    EXPECT_FALSE(response.at("error").as_string().empty()) << line;
  }
  EXPECT_EQ(service.stats().errors.load(), 10u);
  // The service still works afterwards.
  EXPECT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
}

TEST(ServiceTest, DeeplyNestedJsonIsAnErrorNotAStackOverflow) {
  Service service;
  // 100k open brackets would overflow the stack in an unbounded
  // recursive-descent parser; the depth cap turns it into one failed
  // request.
  const Json response =
      Json::parse(service.handle_line(std::string(100000, '[')));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("nesting"),
            std::string::npos);
  EXPECT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
}

TEST(ServiceTest, ConcurrentIdenticalLearnsFitOnce) {
  // Single-flight: on a cold service, N threads asking for the same model
  // elect one leader; everyone gets the same bytes and exactly one refit
  // happens no matter how the threads interleave.
  Service service;
  const std::string line =
      learn_request(pla_for(4, [](std::uint32_t r) { return r % 6 == 1; }))
          .dump();
  constexpr int kThreads = 16;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { responses[t] = service.handle_line(line); });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(responses[t], responses[0]);
    EXPECT_TRUE(Json::parse(responses[t]).at("ok").as_bool());
  }
  EXPECT_EQ(service.stats().learns.load(), 1u);
}

TEST(ServiceTest, EchoesRequestId) {
  Service service;
  Json request = make_request("ping");
  request.set("id", std::int64_t{17});
  Json response = handle(service, request);
  EXPECT_EQ(response.at("id").as_int(), 17);
  // Ids are echoed on errors too, and may be strings.
  Json bad = make_request("nope");
  bad.set("id", "abc");
  response = handle(service, bad);
  EXPECT_EQ(response.at("id").as_string(), "abc");
  EXPECT_FALSE(response.at("ok").as_bool());
}

TEST(ServiceTest, LearnValidation) {
  Service service;
  const std::string pla = pla_for(2, [](std::uint32_t r) { return r != 0; });

  Json request = learn_request(pla, "no-such-learner");
  EXPECT_NE(handle(service, request).at("error").as_string().find(
                "no learner named"),
            std::string::npos);

  request = learn_request(".i 2\n.o 1\ngarbage\n.e\n");
  EXPECT_NE(handle(service, request).at("error").as_string().find("bad PLA"),
            std::string::npos);

  request = learn_request(pla);
  request.set("valid_pla",
              pla_for(3, [](std::uint32_t r) { return r != 0; }));
  EXPECT_NE(handle(service, request).at("error").as_string().find(
                "input count differs"),
            std::string::npos);

  request = learn_request(pla);
  request.set("seed", std::int64_t{-1});
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());
}

TEST(ServiceTest, EvalValidation) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  const std::string id = learned.at("model").as_string();

  Json request = make_request("eval");
  request.set("model", id);
  EXPECT_NE(handle(service, request).at("error").as_string().find("inputs"),
            std::string::npos);

  request.set("inputs", Json::array());
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());

  Json wrong_len = Json::array();
  wrong_len.push_back(Json("101"));
  request.set("inputs", std::move(wrong_len));
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());

  Json bad_char = Json::array();
  bad_char.push_back(Json("1x"));
  request.set("inputs", std::move(bad_char));
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());

  Json unknown = make_request("eval");
  unknown.set("model", "m-00000000000000ff");
  Json inputs = Json::array();
  inputs.push_back(Json("11"));
  unknown.set("inputs", std::move(inputs));
  EXPECT_NE(handle(service, unknown).at("error").as_string().find(
                "unknown model"),
            std::string::npos);
}

TEST(ServiceTest, EvalRowCapIsEnforced) {
  ServiceOptions options;
  options.max_eval_rows = 3;
  Service service(options);
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r == 3; })));
  Json request = make_request("eval");
  request.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (int i = 0; i < 4; ++i) {
    inputs.push_back(Json("11"));
  }
  request.set("inputs", std::move(inputs));
  EXPECT_NE(handle(service, request).at("error").as_string().find("row cap"),
            std::string::npos);

  // The cap sums over "batches" too: 2 + 2 rows against a cap of 3.
  Json batched = make_request("eval");
  batched.set("model", learned.at("model").as_string());
  Json batches = Json::array();
  for (int b = 0; b < 2; ++b) {
    Json batch = Json::array();
    batch.push_back(Json("11"));
    batch.push_back(Json("00"));
    batches.push_back(std::move(batch));
  }
  batched.set("batches", std::move(batches));
  EXPECT_NE(handle(service, batched).at("error").as_string().find("row cap"),
            std::string::npos);
}

TEST(ServiceTest, BatchesValidation) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; })));
  const std::string id = learned.at("model").as_string();

  // 'inputs' and 'batches' are mutually exclusive.
  Json both = make_request("eval");
  both.set("model", id);
  Json inputs = Json::array();
  inputs.push_back(Json("11"));
  both.set("inputs", std::move(inputs));
  Json batches = Json::array();
  Json batch = Json::array();
  batch.push_back(Json("11"));
  batches.push_back(std::move(batch));
  both.set("batches", std::move(batches));
  EXPECT_NE(handle(service, both).at("error").as_string().find("exactly one"),
            std::string::npos);

  Json empty = make_request("eval");
  empty.set("model", id);
  empty.set("batches", Json::array());
  EXPECT_FALSE(handle(service, empty).at("ok").as_bool());

  Json empty_batch = make_request("eval");
  empty_batch.set("model", id);
  Json holds_empty = Json::array();
  holds_empty.push_back(Json::array());
  empty_batch.set("batches", std::move(holds_empty));
  EXPECT_FALSE(handle(service, empty_batch).at("ok").as_bool());
}

/// PLA text over `num_inputs` variables with a few fixed rows — enough for
/// a learner to return a circuit over every input.
std::string wide_pla(std::size_t num_inputs) {
  std::ostringstream os;
  os << ".i " << num_inputs << "\n.o 1\n";
  for (std::size_t row = 0; row < 8; ++row) {
    for (std::size_t bit = 0; bit < num_inputs; ++bit) {
      os << (((row * 7 + bit * 3) % 5) < 2 ? '1' : '0');
    }
    os << ' ' << (row % 3 == 0 ? '1' : '0') << '\n';
  }
  os << ".e\n";
  return os.str();
}

TEST(ServiceTest, EvalRowErrorsNameTheFirstBadRowInRowOrder) {
  // The error names the first bad row in row order and says why it is bad,
  // whatever column the bad byte sits in and whatever kind of row follows.
  constexpr std::size_t kPis = 70;
  Service service;
  const Json learned = handle(service, learn_request(wide_pla(kPis)));
  ASSERT_TRUE(learned.at("ok").as_bool()) << learned.dump();
  ASSERT_EQ(learned.at("inputs").as_int(), static_cast<std::int64_t>(kPis));
  const std::string id = learned.at("model").as_string();
  const std::string good(kPis, '0');
  const auto with_char = [&](std::size_t col, char c) {
    std::string row = good;
    row[col] = c;
    return row;
  };
  const auto eval_error = [&](const Json& rows) {
    Json request = make_request("eval");
    request.set("model", id);
    request.set("inputs", rows);
    const Json response = handle(service, request);
    EXPECT_FALSE(response.at("ok").as_bool()) << response.dump();
    return response.at("error").as_string();
  };
  const auto rows_with = [&](std::size_t n,
                             const std::vector<std::pair<std::size_t, Json>>&
                                 replaced) {
    Json rows = Json::array();
    for (std::size_t r = 0; r < n; ++r) {
      Json row(good);
      for (const auto& [at, value] : replaced) {
        if (at == r) {
          row = value;
        }
      }
      rows.push_back(std::move(row));
    }
    return rows;
  };
  const std::string wrong_shape = "-character 0/1 string";

  // A wrong-length row before a bad-char row in the same 64-row block.
  EXPECT_EQ(eval_error(rows_with(
                40, {{10, Json(good.substr(1))}, {20, with_char(0, 'x')}})),
            "inputs[10] must be a 70" + wrong_shape);
  EXPECT_EQ(eval_error(rows_with(
                40, {{10, with_char(5, '2')}, {20, Json(good + "0")}})),
            "inputs[10] holds a character other than 0/1");
  // A bad char at column >= 64 of an earlier row against column 0 of a
  // later row, within one block and across blocks.
  EXPECT_EQ(eval_error(rows_with(
                16, {{3, with_char(66, 'x')}, {5, with_char(0, '2')}})),
            "inputs[3] holds a character other than 0/1");
  EXPECT_EQ(eval_error(rows_with(
                130, {{63, with_char(69, ' ')}, {64, with_char(0, 'x')}})),
            "inputs[63] holds a character other than 0/1");
  EXPECT_EQ(eval_error(rows_with(
                130, {{100, with_char(64, '\xff')}, {129, Json(good + "1")}})),
            "inputs[100] holds a character other than 0/1");
  // Rows that are not strings.
  EXPECT_EQ(eval_error(rows_with(
                8, {{2, Json(std::int64_t{5})}, {4, with_char(1, 'x')}})),
            "inputs[2] must be a 70" + wrong_shape);
  EXPECT_EQ(eval_error(rows_with(3, {{0, Json()}})),
            "inputs[0] must be a 70" + wrong_shape);
  EXPECT_EQ(eval_error(rows_with(3, {{1, Json::array()}})),
            "inputs[1] must be a 70" + wrong_shape);

  // A batches[g][r] failure in a later batch, at a row offset that is not
  // a multiple of 64.
  Json request = make_request("eval");
  request.set("model", id);
  Json batches = Json::array();
  batches.push_back(rows_with(3, {}));
  batches.push_back(rows_with(70, {{65, with_char(67, 'x')}}));
  batches.push_back(rows_with(2, {{0, Json(true)}}));
  request.set("batches", batches);
  Json response = handle(service, request);
  EXPECT_EQ(response.at("error").as_string(),
            "batches[1][65] holds a character other than 0/1");
  batches = Json::array();
  batches.push_back(rows_with(3, {}));
  batches.push_back(rows_with(70, {}));
  batches.push_back(rows_with(2, {{1, Json(good.substr(3))}}));
  request.set("batches", batches);
  response = handle(service, request);
  EXPECT_EQ(response.at("error").as_string(),
            "batches[2][1] must be a 70" + wrong_shape);

  // The service keeps answering, and the same rows evaluate once fixed.
  batches = Json::array();
  batches.push_back(rows_with(3, {}));
  batches.push_back(rows_with(70, {{65, with_char(67, '1')}}));
  request.set("batches", batches);
  response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("rows").as_int(), 73);
}

TEST(ServiceTest, WideBatchedEvalMatchesOneRowEvals) {
  // Every row of batches at unaligned offsets, on a model wider than one
  // 64-bit word, evaluates as it does alone in a one-row request.
  constexpr std::size_t kPis = 70;
  Service service;
  const Json learned = handle(service, learn_request(wide_pla(kPis)));
  ASSERT_TRUE(learned.at("ok").as_bool()) << learned.dump();
  const std::string id = learned.at("model").as_string();
  core::Rng rng(29);
  std::vector<std::string> rows;
  Json batches = Json::array();
  for (const std::size_t n : {3u, 130u, 61u}) {
    Json batch = Json::array();
    for (std::size_t r = 0; r < n; ++r) {
      std::string row(kPis, '0');
      for (char& c : row) {
        c = rng.flip(0.5) ? '1' : '0';
      }
      rows.push_back(row);
      batch.push_back(Json(row));
    }
    batches.push_back(std::move(batch));
  }
  Json request = make_request("eval");
  request.set("model", id);
  request.set("batches", std::move(batches));
  const Json response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  std::string batched;
  for (std::size_t b = 0; b < 3; ++b) {
    batched += response.at("batches").at(b).at("outputs").at(0).as_string();
  }
  ASSERT_EQ(batched.size(), rows.size());
  std::string alone;
  for (const std::string& row : rows) {
    Json one = make_request("eval");
    one.set("model", id);
    Json inputs = Json::array();
    inputs.push_back(Json(row));
    one.set("inputs", std::move(inputs));
    alone += handle(service, one).at("outputs").at(0).as_string();
  }
  EXPECT_EQ(batched, alone);
  // A learner that ignored the rows would make this check vacuous.
  EXPECT_NE(batched.find('0'), std::string::npos);
  EXPECT_NE(batched.find('1'), std::string::npos);
}

// ====================================================== Service: happy path

TEST(ServiceTest, LearnThenEvalMatchesTheFunction) {
  Service service;
  // OR over 2 inputs: every learner nails this, so eval must reproduce it.
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(learned.at("train_acc").as_double(), 1.0);
  EXPECT_EQ(learned.at("inputs").as_int(), 2);
  EXPECT_EQ(learned.at("verified").as_string(), "-");

  Json request = make_request("eval");
  request.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (const char* row : {"00", "10", "01", "11"}) {
    inputs.push_back(Json(row));
  }
  request.set("inputs", std::move(inputs));
  const Json evaled = handle(service, request);
  ASSERT_TRUE(evaled.at("ok").as_bool());
  EXPECT_EQ(evaled.at("rows").as_int(), 4);
  EXPECT_EQ(evaled.at("outputs").at(0).as_string(), "0111");
}

TEST(ServiceTest, EscapedEvalRowsMatchPlainRows) {
  // A row spelled with escapes ("0\u0031" for "01") is the same row: the
  // response is byte-identical to the one for the plain spelling, in
  // `inputs` and in `batches`.
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(2, [](std::uint32_t r) { return r == 2; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  const std::string head =
      R"({"type":"eval","model":")" + learned.at("model").as_string() + "\",";
  const std::string plain =
      service.handle_line(head + R"("inputs":["00","01","10","11"]})");
  EXPECT_NE(plain.find(R"("outputs":["0100"])"), std::string::npos) << plain;
  EXPECT_EQ(service.handle_line(head + R"("inputs":["00","0\u0031",)"
                                       R"("1\u0030","\u0031\u0031"]})"),
            plain);
  const std::string batched_plain =
      service.handle_line(head + R"("batches":[["01"],["00","10","11"]]})");
  EXPECT_EQ(service.handle_line(head + R"("batches":[["0\u0031"],)"
                                       R"(["00","\u00310","11"]]})"),
            batched_plain);
  // An escape that decodes to a non-0/1 byte is the usual row error.
  EXPECT_NE(service.handle_line(head + R"("inputs":["00","0\n"]})")
                .find("inputs[1] holds a character other than 0/1"),
            std::string::npos);
}

TEST(ServiceTest, BatchedEvalRunsOneSweepAndMatchesPerBatchEvals) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(3, [](std::uint32_t r) { return r % 3 == 1; })));
  ASSERT_TRUE(learned.at("ok").as_bool());
  const std::string id = learned.at("model").as_string();

  const std::vector<std::vector<const char*>> batch_rows = {
      {"000", "100", "010"},
      {"110", "001"},
      {"101", "011", "111", "000"},
  };
  // Per-batch baseline: one plain eval per batch.
  std::vector<std::string> baseline_outputs;
  for (const auto& rows : batch_rows) {
    Json request = make_request("eval");
    request.set("model", id);
    Json inputs = Json::array();
    for (const char* row : rows) {
      inputs.push_back(Json(row));
    }
    request.set("inputs", std::move(inputs));
    const Json response = handle(service, request);
    ASSERT_TRUE(response.at("ok").as_bool());
    baseline_outputs.push_back(response.at("outputs").at(0).as_string());
  }

  const std::uint64_t sweeps_before = service.stats().eval_sweeps.load();
  Json request = make_request("eval");
  request.set("model", id);
  Json batches = Json::array();
  for (const auto& rows : batch_rows) {
    Json batch = Json::array();
    for (const char* row : rows) {
      batch.push_back(Json(row));
    }
    batches.push_back(std::move(batch));
  }
  request.set("batches", std::move(batches));
  const Json response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("rows").as_int(), 9);
  ASSERT_EQ(response.at("batches").size(), batch_rows.size());
  for (std::size_t b = 0; b < batch_rows.size(); ++b) {
    const Json& entry = response.at("batches").at(b);
    EXPECT_EQ(entry.at("rows").as_int(),
              static_cast<std::int64_t>(batch_rows[b].size()));
    // Each batch's slice of the shared sweep is byte-identical to its own
    // standalone eval — the batching determinism contract.
    EXPECT_EQ(entry.at("outputs").at(0).as_string(), baseline_outputs[b]);
  }
  // N batches, ONE sweep.
  EXPECT_EQ(service.stats().eval_sweeps.load(), sweeps_before + 1);
}

TEST(ServiceTest, ConcurrentSameModelEvalsCoalesceIntoFewerSweeps) {
  Service service;
  const Json learned = handle(
      service,
      learn_request(pla_for(4, [](std::uint32_t r) { return r % 5 == 2; })));
  ASSERT_TRUE(learned.at("ok").as_bool());

  // A wide eval (32k rows) so each sweep leaves a real window for other
  // requests to pile onto the flight.
  constexpr std::size_t kRows = 32768;
  Json request = make_request("eval");
  request.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  core::Rng rng(3);
  for (std::size_t i = 0; i < kRows; ++i) {
    std::string row(4, '0');
    for (auto& c : row) {
      c = (rng.next() & 1u) != 0 ? '1' : '0';
    }
    inputs.push_back(Json(std::move(row)));
  }
  request.set("inputs", std::move(inputs));
  const std::string line = request.dump();
  const std::string baseline = service.handle_line(line);

  // Coalescing depends on real overlap, so storm in rounds (with a start
  // barrier each round) until a shared sweep is observed; each round
  // re-checks the byte-identity contract unconditionally.
  constexpr int kThreads = 16;
  constexpr int kIters = 4;
  constexpr int kMaxRounds = 10;
  for (int round = 0; round < kMaxRounds; ++round) {
    std::vector<std::vector<std::string>> responses(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        for (int i = 0; i < kIters; ++i) {
          responses[t].push_back(service.handle_line(line));
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
    // Coalescing must never change a byte of any response...
    for (int t = 0; t < kThreads; ++t) {
      for (const std::string& response : responses[t]) {
        ASSERT_EQ(response, baseline) << "round " << round;
      }
    }
    if (service.stats().eval_sweeps.load() < service.stats().evals.load()) {
      break;
    }
  }
  // ...only how many sweeps served them: the storm rode shared sweeps.
  const std::uint64_t evals = service.stats().evals.load();
  const std::uint64_t sweeps = service.stats().eval_sweeps.load();
  EXPECT_LT(sweeps, evals);
  EXPECT_GE(service.stats().eval_coalesced.load(), evals - sweeps);
}

TEST(ServiceTest, SynthOptimizesAndStaysEquivalent) {
  Service service;
  core::Rng rng(7);
  aig::ConeOptions cone;
  cone.num_inputs = 12;
  cone.num_ands = 150;
  const aig::Aig in = aig::random_cone(cone, rng);

  Json request = make_request("synth");
  request.set("aag", aag_text(in));
  request.set("script", "resyn2");
  const Json response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("script").as_string(),
            synth::Script::preset("resyn2").str());
  EXPECT_GT(response.at("trace").size(), 0u);
  EXPECT_LE(response.at("ands").as_int(), response.at("ands_in").as_int());

  std::istringstream optimized_text(response.at("aag").as_string());
  const aig::Aig optimized = aig::read_aag(optimized_text);
  const sat::CecResult cec = sat::cec(in, optimized);
  EXPECT_EQ(cec.status, sat::CecStatus::kEquivalent);
}

TEST(ServiceTest, SynthAutoSearchesAndNamesTheWinner) {
  Service service;
  core::Rng rng(11);
  aig::ConeOptions cone;
  cone.num_inputs = 10;
  cone.num_ands = 120;
  const aig::Aig in = aig::random_cone(cone, rng);

  Json request = make_request("synth");
  request.set("aag", aag_text(in));
  request.set("script", "auto");
  const Json response = handle(service, request);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  // The chosen script is a real, parseable pass list, and its fingerprint
  // rides along so clients can key replays on the winner's identity.
  const synth::Script winner =
      synth::Script::parse(response.at("script").as_string());
  EXPECT_FALSE(winner.passes.empty());
  EXPECT_EQ(response.at("script_fp").as_string().size(), 16u);

  std::istringstream optimized_text(response.at("aag").as_string());
  const aig::Aig optimized = aig::read_aag(optimized_text);
  const sat::CecResult cec = sat::cec(in, optimized);
  EXPECT_EQ(cec.status, sat::CecStatus::kEquivalent);

  // Auto never loses to the fixed default: same request with resyn2.
  Json fixed = make_request("synth");
  fixed.set("aag", aag_text(in));
  const Json baseline = handle(service, fixed);
  ASSERT_TRUE(baseline.at("ok").as_bool());
  EXPECT_LE(response.at("ands").as_int(), baseline.at("ands").as_int());
  // Fixed-script responses stay byte-compatible: no script_fp field.
  EXPECT_FALSE(baseline.has("script_fp"));
}

TEST(ServiceTest, SynthRejectsBadScript) {
  Service service;
  Json request = make_request("synth");
  request.set("aag", aag_text(or2_circuit()));
  request.set("script", "zz;yy");
  EXPECT_NE(handle(service, request).at("error").as_string().find(
                "bad 'script'"),
            std::string::npos);
}

TEST(ServiceTest, CecVerdicts) {
  Service service;
  Json request = make_request("cec");
  request.set("a", aag_text(or2_circuit()));
  request.set("b", aag_text(or2_circuit()));
  EXPECT_EQ(handle(service, request).at("verdict").as_string(), "equivalent");

  request.set("b", aag_text(and2_circuit()));
  const Json response = handle(service, request);
  EXPECT_EQ(response.at("verdict").as_string(), "not_equivalent");
  const std::string cube = response.at("counterexample").as_string();
  ASSERT_EQ(cube.size(), 2u);
  std::vector<std::uint8_t> row{static_cast<std::uint8_t>(cube[0] == '1'),
                                static_cast<std::uint8_t>(cube[1] == '1')};
  EXPECT_NE(or2_circuit().eval_row(row)[0], and2_circuit().eval_row(row)[0]);

  // Shape mismatch is a usage error, not a verdict.
  Json mismatched = make_request("cec");
  mismatched.set("a", aag_text(or2_circuit()));
  aig::Aig three(3);
  three.add_output(three.pi(2));
  mismatched.set("b", aag_text(three));
  EXPECT_FALSE(handle(service, mismatched).at("ok").as_bool());
}

TEST(ServiceTest, CecRejectsOutOfRangeAagAndKeepsServing) {
  Service service;
  Json request = make_request("cec");
  request.set("a", aag_text(or2_circuit()));
  // The AND line reads variable 4000 of a 3-variable file.
  request.set("b", "aag 3 2 0 1 1\n2\n4\n6\n6 2 8000\n");
  const Json response = handle(service, request);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("out of range"),
            std::string::npos)
      << response.dump();

  request.set("b", aag_text(or2_circuit()));
  const Json next = handle(service, request);
  ASSERT_TRUE(next.at("ok").as_bool()) << next.dump();
  EXPECT_EQ(next.at("verdict").as_string(), "equivalent");
}

TEST(ServiceTest, AagHeaderTooLargeForItsTextIsAnErrorAndServingGoesOn) {
  // A one-line AIGER text declaring 2e9 inputs and ANDs once made the
  // reader allocate gigabytes before it read a literal.
  Service service;
  const std::string huge = "aag 2000000000 2000000000 0 0 0\n";
  Json cec = make_request("cec");
  cec.set("a", huge);
  cec.set("b", aag_text(or2_circuit()));
  Json response = handle(service, cec);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").as_string(),
            "bad AIGER in 'a': read_aag: header declares more literals than "
            "the text holds");
  Json synth = make_request("synth");
  synth.set("aag", "aag 1000000000 0 0 0 1000000000\n2 0 0\n");
  response = handle(service, synth);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("text holds"),
            std::string::npos)
      << response.dump();

  cec.set("a", aag_text(or2_circuit()));
  response = handle(service, cec);
  ASSERT_TRUE(response.at("ok").as_bool()) << response.dump();
  EXPECT_EQ(response.at("verdict").as_string(), "equivalent");
}

// =========================================================== Service: caches

TEST(ServiceTest, RepeatedLearnIsAMemoryCacheHit) {
  Service service;
  const std::string pla =
      pla_for(4, [](std::uint32_t r) { return (r & 3) == 2; });
  const std::string first = service.handle_line(learn_request(pla).dump());
  const std::string second = service.handle_line(learn_request(pla).dump());
  EXPECT_EQ(first, second);  // bit-identical, no cached-ness marker
  EXPECT_EQ(service.stats().learns.load(), 1u);
  EXPECT_GE(service.stats().model_memory_hits.load(), 1u);
}

TEST(ServiceTest, ModelIdDependsOnContent) {
  Service service;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 3 == 0; });
  const Json a = handle(service, learn_request(pla));
  Json with_seed = learn_request(pla);
  with_seed.set("seed", std::int64_t{1});
  const Json b = handle(service, with_seed);
  const Json c = handle(service, learn_request(pla, "rf"));
  EXPECT_NE(a.at("model").as_string(), b.at("model").as_string());
  EXPECT_NE(a.at("model").as_string(), c.at("model").as_string());
  EXPECT_EQ(service.stats().learns.load(), 3u);
}

TEST(ServiceTest, LruEvictsOldestModel) {
  ServiceOptions options;
  options.model_capacity = 2;
  Service service(options);
  std::vector<std::string> ids;
  for (std::uint32_t k = 0; k < 3; ++k) {
    const Json learned = handle(
        service, learn_request(pla_for(
                     3, [k](std::uint32_t r) { return (r & 3) == k; })));
    ASSERT_TRUE(learned.at("ok").as_bool());
    ids.push_back(learned.at("model").as_string());
  }
  EXPECT_EQ(service.models_cached(), 2u);
  // No disk level configured, so the evicted model is gone...
  Json request = make_request("eval");
  request.set("model", ids[0]);
  Json inputs = Json::array();
  inputs.push_back(Json("000"));
  request.set("inputs", std::move(inputs));
  EXPECT_FALSE(handle(service, request).at("ok").as_bool());
  // ...while the two recent ones still serve.
  request.set("model", ids[2]);
  EXPECT_TRUE(handle(service, request).at("ok").as_bool());
}

TEST(ServiceTest, ShardedStoreKeepsGlobalLruOrder) {
  // Entries land in different shards by id hash, but eviction must still
  // follow the GLOBAL access order — exactly what a single-map LRU did.
  ServiceOptions options;
  options.model_capacity = 4;
  options.store_shards = 4;
  Service service(options);
  std::vector<std::string> ids;
  for (std::uint32_t k = 0; k < 6; ++k) {
    const Json learned = handle(
        service, learn_request(pla_for(
                     3, [k](std::uint32_t r) { return (r % 7) == k; })));
    ASSERT_TRUE(learned.at("ok").as_bool());
    ids.push_back(learned.at("model").as_string());
  }
  EXPECT_EQ(service.models_cached(), 4u);
  EXPECT_EQ(service.stats().model_evictions.load(), 2u);
  Json request = make_request("eval");
  Json inputs = Json::array();
  inputs.push_back(Json("000"));
  request.set("inputs", std::move(inputs));
  // The two oldest are gone, the four recent ones serve.
  for (std::size_t k = 0; k < ids.size(); ++k) {
    request.set("model", ids[k]);
    EXPECT_EQ(handle(service, request).at("ok").as_bool(), k >= 2) << k;
  }
  EXPECT_GT(service.models_cached_bytes(), 0u);
}

TEST(ServiceTest, StoreByteBudgetEvicts) {
  ServiceOptions options;
  options.model_capacity = 64;
  options.model_store_bytes = 1;  // nothing fits: every put evicts
  Service service(options);
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 2 == 1; });
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  EXPECT_EQ(service.models_cached(), 0u);
  EXPECT_GE(service.stats().model_evictions.load(), 1u);
  // With no memory entry and no disk level, the same learn refits.
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  EXPECT_EQ(service.stats().learns.load(), 2u);
}

TEST(ServiceTest, DiskCacheServesAcrossServiceInstances) {
  const std::string dir = temp_dir("disk_cache");
  ServiceOptions options;
  options.cache_dir = dir;
  const std::string pla =
      pla_for(4, [](std::uint32_t r) { return (r >> 1) % 2 == 1; });

  std::string first_line;
  std::string model_id;
  {
    Service service(options);
    first_line = service.handle_line(learn_request(pla).dump());
    model_id = Json::parse(first_line).at("model").as_string();
    EXPECT_EQ(service.stats().learns.load(), 1u);
  }
  {
    // A "restarted server": same cache dir, fresh memory.
    Service service(options);
    const std::string replay = service.handle_line(learn_request(pla).dump());
    EXPECT_EQ(replay, first_line);
    EXPECT_EQ(service.stats().learns.load(), 0u);  // no refit
    EXPECT_EQ(service.stats().model_disk_hits.load(), 1u);

    // eval by model id alone also restores from disk.
    Service fresh(options);
    Json request = make_request("eval");
    request.set("model", model_id);
    Json inputs = Json::array();
    inputs.push_back(Json("0100"));
    request.set("inputs", std::move(inputs));
    EXPECT_TRUE(handle(fresh, request).at("ok").as_bool());
    EXPECT_EQ(fresh.stats().model_disk_hits.load(), 1u);
  }
  std::filesystem::remove_all(dir);
}

// ========================================================= Service: deadlines

TEST(ServiceTest, ExpiredDeadlineGatesHeavyWork) {
  Service service;
  Json request = learn_request(
      pla_for(3, [](std::uint32_t r) { return r % 5 == 0; }));
  request.set("deadline_ms", std::int64_t{10});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(100)));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());
  EXPECT_EQ(service.stats().deadline_expired.load(), 1u);
  EXPECT_EQ(service.stats().learns.load(), 0u);

  // The same request with a live deadline succeeds.
  const Json live =
      Json::parse(service.handle_line(request.dump(), received_ago(0)));
  EXPECT_TRUE(live.at("ok").as_bool());
}

TEST(ServiceTest, ExpiredDeadlineStillServesCacheHits) {
  Service service;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return r % 5 == 1; });
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  Json request = learn_request(pla);
  request.set("deadline_ms", std::int64_t{10});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(100)));
  EXPECT_TRUE(response.at("ok").as_bool());  // cache hits beat deadlines
}

TEST(ServiceTest, CecDeadlineDegradesToUndecided) {
  Service service;
  Json request = make_request("cec");
  request.set("a", aag_text(or2_circuit()));
  request.set("b", aag_text(and2_circuit()));
  request.set("deadline_ms", std::int64_t{5});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(50)));
  EXPECT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("verdict").as_string(), "undecided");
  EXPECT_TRUE(response.at("expired").as_bool());
  EXPECT_EQ(service.stats().deadline_expired.load(), 1u);
}

TEST(ServiceTest, SynthDeadlineExpiryIsAnError) {
  Service service;
  Json request = make_request("synth");
  request.set("aag", aag_text(or2_circuit()));
  request.set("deadline_ms", std::int64_t{5});
  const Json response =
      Json::parse(service.handle_line(request.dump(), received_ago(50)));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());
}

// ============================================================ Service: stdio

TEST(ServiceTest, ServeStreamAnswersLineByLine) {
  Service service;
  std::istringstream in(
      "{\"id\":1,\"type\":\"ping\"}\n"
      "\n"  // blank lines are skipped
      "this is not json\n"
      "{\"id\":2,\"type\":\"ping\"}\n");
  std::ostringstream out;
  const std::uint64_t answered = service.serve_stream(in, out, 1 << 20);
  EXPECT_EQ(answered, 3u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 1);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 2);
}

TEST(ServiceTest, ServeStreamEnforcesRequestCap) {
  Service service;
  const std::string big(512, 'x');
  std::istringstream in("{\"type\":\"ping\"}\n" + big + "\n");
  std::ostringstream out;
  service.serve_stream(in, out, 256);
  EXPECT_NE(out.str().find("max-request-bytes"), std::string::npos);
}

// ================================================================ telemetry

TEST(ServiceTest, MetricsOpExposesPrometheusFamilies) {
  Service service;
  const std::string pla =
      pla_for(3, [](std::uint32_t r) { return (r & 1) != 0; });
  ASSERT_TRUE(handle(service, learn_request(pla)).at("ok").as_bool());
  const Json response = handle(service, make_request("metrics"));
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("content_type").as_string(),
            "text/plain; version=0.0.4");
  const std::string text = response.at("text").as_string();
  // Families from the server, synth, and per-op histogram layers; the
  // learn above guarantees each is non-trivial.
  EXPECT_NE(text.find("# TYPE lsml_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE lsml_server_op_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("lsml_server_op_us_count{op=\"learn\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lsml_synth_runs_total"), std::string::npos);
  EXPECT_NE(text.find("lsml_server_models_cached 1"), std::string::npos);
}

TEST(ServiceTest, StatsAndMetricsReadTheSameCells) {
  // Satellite contract: `stats` fields are aliases over the registry, so
  // the two ops can never disagree on a quiesced service.
  Service service;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(handle(service, make_request("ping")).at("ok").as_bool());
  }
  const Json stats = handle(service, make_request("stats"));
  const std::string text =
      handle(service, make_request("metrics")).at("text").as_string();
  // stats itself bumped `requests` after its own snapshot, so read the
  // metrics text for the final value and compare pings exactly.
  EXPECT_EQ(stats.at("pings").as_int(), 3);
  EXPECT_NE(text.find("lsml_server_pings_total 3"), std::string::npos);
}

TEST(ServiceTest, ResponsesAreBitIdenticalWithTracingOnOrOff) {
  // The determinism contract: telemetry is a side channel, so the same
  // request stream yields byte-identical responses with the tracer off,
  // on, and re-enabled mid-stream.
  const std::string pla =
      pla_for(4, [](std::uint32_t r) { return (r * 5 + 1) % 3 == 0; });
  aig::ConeOptions cone;
  cone.num_inputs = 6;
  cone.num_ands = 40;
  core::Rng rng(7);
  const aig::Aig circuit = aig::random_cone(cone, rng);
  const auto transcript = [&](bool tracing) {
    if (tracing) {
      obs::Tracer::enable();
    } else {
      obs::Tracer::disable();
    }
    Service service;
    std::vector<std::string> lines;
    lines.push_back(service.handle_line(learn_request(pla).dump()));
    const Json learned = Json::parse(lines.back());
    Json eval = make_request("eval");
    eval.set("model", learned.at("model").as_string());
    Json inputs = Json::array();
    inputs.push_back(Json("0110"));
    inputs.push_back(Json("1011"));
    eval.set("inputs", std::move(inputs));
    lines.push_back(service.handle_line(eval.dump()));
    Json synth = make_request("synth");
    synth.set("aag", aag_text(circuit));
    lines.push_back(service.handle_line(synth.dump()));
    Json cec = make_request("cec");
    cec.set("a", aag_text(or2_circuit()));
    cec.set("b", aag_text(and2_circuit()));
    lines.push_back(service.handle_line(cec.dump()));
    return lines;
  };
  const std::vector<std::string> off = transcript(false);
  const std::vector<std::string> on = transcript(true);
  obs::Tracer::disable();
  obs::Tracer::reset();
  const std::vector<std::string> off_again = transcript(false);
  EXPECT_EQ(off, on);
  EXPECT_EQ(off, off_again);
}

// ================================================================ TCP daemon

ServerOptions test_server_options() {
  ServerOptions options;
  options.port = 0;  // ephemeral
  options.num_threads = 4;
  return options;
}

TEST(ServerTest, StartServeStop) {
  Server server(test_server_options());
  server.start();
  ASSERT_GT(server.port(), 0);
  Client client;
  client.connect("127.0.0.1", server.port());
  const Json pong = client.request(make_request("ping"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_EQ(server.stats().connections.load(), 1u);
  server.stop();
  // stop() is idempotent and re-entrant with the destructor.
  server.stop();
}

TEST(ServerTest, ProtocolErrorKeepsTheConnectionOpen) {
  Server server(test_server_options());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  const std::string error_line = client.roundtrip("definitely not json");
  EXPECT_FALSE(Json::parse(error_line).at("ok").as_bool());
  // Same connection, next request fine.
  EXPECT_TRUE(client.request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, OversizedRequestIsRejectedAndConnectionClosed) {
  ServerOptions options = test_server_options();
  options.max_request_bytes = 256;
  Server server(options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  const std::string big(4096, 'a');
  const std::string response = client.roundtrip(big);
  EXPECT_NE(response.find("max-request-bytes"), std::string::npos);
  std::string next;
  EXPECT_FALSE(client.recv_line(&next));  // server hung up

  // Also when the oversized line trickles in without a newline.
  Client slow;
  slow.connect("127.0.0.1", server.port());
  slow.send_raw(std::string(8192, 'b'));  // no terminator
  std::string reject;
  ASSERT_TRUE(slow.recv_line(&reject));
  EXPECT_NE(reject.find("max-request-bytes"), std::string::npos);
  EXPECT_GE(server.stats().oversized_rejects.load(), 2u);

  // The daemon itself survives.
  Client again;
  again.connect("127.0.0.1", server.port());
  EXPECT_TRUE(again.request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, ClientDisconnectsDoNotKillTheDaemon) {
  Server server(test_server_options());
  server.start();

  {  // mid-request: partial line, then gone
    Client client;
    client.connect("127.0.0.1", server.port());
    client.send_raw("{\"type\":\"pi");
    client.close();
  }
  {  // half-close mid-request
    Client client;
    client.connect("127.0.0.1", server.port());
    client.send_raw("{\"type\":\"ping\"");
    client.shutdown_write();
    std::string line;
    EXPECT_FALSE(client.recv_line(&line));  // dropped, never answered
  }
  {  // full request, then gone before the response is read
    Client client;
    client.connect("127.0.0.1", server.port());
    client.send_line(make_request("ping").dump());
    client.close();
  }
  // Daemon still healthy.
  Client client;
  client.connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.request(make_request("ping")).at("ok").as_bool());
}

TEST(ServerTest, RequestsDrippedOneByteAtATimeAreFramedCorrectly) {
  // Regression for the raw-byte path: the transport must frame lines
  // incrementally no matter how the bytes arrive — including one byte per
  // segment across two pipelined requests.
  Server server(test_server_options());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Json first = make_request("ping");
  first.set("id", std::int64_t{1});
  Json second = make_request("ping");
  second.set("id", std::int64_t{2});
  const std::string bytes = first.dump() + "\n" + second.dump() + "\n";
  for (const char c : bytes) {
    client.send_raw(std::string(1, c));
  }
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 1);
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_EQ(Json::parse(line).at("id").as_int(), 2);
}

TEST(ServerTest, HalfOpenPeerStillReceivesOwedResponses) {
  // A peer that half-closes AFTER a complete request is owed its response:
  // shutdown(SHUT_WR) ends requests, not the connection.
  Server server(test_server_options());
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  Json request = make_request("ping");
  request.set("sleep_ms", std::int64_t{100});  // half-close races the work
  client.send_line(request.dump());
  client.shutdown_write();
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_TRUE(Json::parse(line).at("ok").as_bool());
  EXPECT_FALSE(client.recv_line(&line));  // then an orderly EOF
}

TEST(ServerTest, OversizedLineMidPipelineAnswersEarlierRequestsFirst) {
  // One segment carrying a valid request AND the start of a poison line:
  // the framed request is answered, then the reject, then the close.
  ServerOptions options = test_server_options();
  options.max_request_bytes = 256;
  Server server(options);
  server.start();
  Client client;
  client.connect("127.0.0.1", server.port());
  client.send_raw(make_request("ping").dump() + "\n" +
                  std::string(4096, 'x'));  // no terminator, already > cap
  std::string line;
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_TRUE(Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(client.recv_line(&line));
  EXPECT_NE(line.find("max-request-bytes"), std::string::npos);
  EXPECT_FALSE(client.recv_line(&line));  // connection closed
  EXPECT_EQ(server.stats().oversized_rejects.load(), 1u);
}

TEST(ServerTest, SlowReaderTriggersBackpressureAndLosesNothing) {
  ServerOptions options = test_server_options();
  options.write_high_water_bytes = 4096;
  options.send_buffer_bytes = 16384;  // fixed, so ~100 KB responses jam
  Server server(options);
  server.start();

  // Learn a tiny model, then request wide evals (~100k-char outputs) on a
  // connection whose receive window is clamped to 4 KB and whose reader
  // does not read for a while: responses pile up server-side, cross the
  // high-water mark, and pause the read side — without dropping a byte.
  Client setup;
  setup.connect("127.0.0.1", server.port());
  const Json learned = Json::parse(setup.roundtrip(
      learn_request(pla_for(2, [](std::uint32_t r) { return r != 0; }))
          .dump()));
  ASSERT_TRUE(learned.at("ok").as_bool());

  Json eval = make_request("eval");
  eval.set("model", learned.at("model").as_string());
  Json inputs = Json::array();
  for (int i = 0; i < 100000; ++i) {
    inputs.push_back(Json(i % 2 != 0 ? "11" : "00"));
  }
  eval.set("inputs", std::move(inputs));
  const std::string line = eval.dump();
  const std::string expected = setup.roundtrip(line);

  constexpr int kRequests = 6;
  Client slow;
  slow.connect("127.0.0.1", server.port(), 4096);
  std::thread writer([&] {
    for (int i = 0; i < kRequests; ++i) {
      slow.send_line(line);
    }
  });
  // Let responses pile into the paused connection before draining them.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < kRequests; ++i) {
    std::string response;
    ASSERT_TRUE(slow.recv_line(&response)) << i;
    EXPECT_EQ(response, expected) << i;
  }
  writer.join();
  EXPECT_GE(server.stats().backpressure_pauses.load(), 1u);
}

TEST(ServerTest, ConnectionCapRejectsTheExtraClient) {
  ServerOptions options = test_server_options();
  options.max_connections = 2;
  Server server(options);
  server.start();

  Client a;
  Client b;
  a.connect("127.0.0.1", server.port());
  b.connect("127.0.0.1", server.port());
  // Both slots land before the cap check sees the third connection.
  EXPECT_TRUE(a.request(make_request("ping")).at("ok").as_bool());
  EXPECT_TRUE(b.request(make_request("ping")).at("ok").as_bool());

  Client extra;
  extra.connect("127.0.0.1", server.port());
  std::string line;
  ASSERT_TRUE(extra.recv_line(&line));
  EXPECT_NE(line.find("connection limit"), std::string::npos);
  EXPECT_FALSE(extra.recv_line(&line));  // closed right after
  EXPECT_EQ(server.stats().over_connection_cap.load(), 1u);

  // Freeing a slot readmits new clients (once the loop sees the close).
  b.close();
  bool admitted = false;
  for (int attempt = 0; attempt < 200 && !admitted; ++attempt) {
    try {
      Client again;
      again.connect("127.0.0.1", server.port());
      admitted = again.request(make_request("ping")).at("ok").as_bool();
    } catch (const std::exception&) {
      // Rejected connections may RST before the error line arrives.
    }
    if (!admitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(admitted);
}

TEST(ServerTest, DeadlineExpiresWhileQueuedBehindABusyWorker) {
  ServerOptions options = test_server_options();
  options.num_threads = 1;  // one worker: the sleeper blocks the queue
  Server server(options);
  server.start();

  Client sleeper;
  sleeper.connect("127.0.0.1", server.port());
  Json sleep_request = make_request("ping");
  sleep_request.set("sleep_ms", std::int64_t{400});
  sleeper.send_line(sleep_request.dump());
  // Give the worker time to claim the sleeping ping.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Client hurried;
  hurried.connect("127.0.0.1", server.port());
  Json learn = learn_request(
      pla_for(4, [](std::uint32_t r) { return r % 7 == 0; }));
  learn.set("deadline_ms", std::int64_t{50});
  const Json response = Json::parse(hurried.roundtrip(learn.dump()));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());

  std::string pong;
  ASSERT_TRUE(sleeper.recv_line(&pong));
  EXPECT_TRUE(Json::parse(pong).at("ok").as_bool());
}

TEST(ServerTest, PipelinedRequestsAreStampedWhenFramedNotWhenServed) {
  // Two requests written in one batch on one connection: a slow ping and
  // a tightly-deadlined learn. The learn's deadline clock must start when
  // its line arrived — i.e. the time it spends waiting behind the ping
  // counts — not when the ping finished.
  ServerOptions options = test_server_options();
  options.num_threads = 1;
  Server server(options);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  Json slow = make_request("ping");
  slow.set("sleep_ms", std::int64_t{300});
  Json hurried = learn_request(
      pla_for(4, [](std::uint32_t r) { return r % 9 == 2; }));
  hurried.set("deadline_ms", std::int64_t{50});
  client.send_raw(slow.dump() + "\n" + hurried.dump() + "\n");

  std::string first;
  std::string second;
  ASSERT_TRUE(client.recv_line(&first));
  ASSERT_TRUE(client.recv_line(&second));
  EXPECT_TRUE(Json::parse(first).at("ok").as_bool());
  const Json response = Json::parse(second);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_TRUE(response.at("expired").as_bool());
  EXPECT_EQ(server.service().stats().learns.load(), 0u);
}

// The acceptance-criteria test: 256 concurrent clients replaying a fixed
// request set get byte-identical responses to a serial replay — across the
// event loop, the eval coalescer, and the sharded store. Runs under TSan
// in CI, so it is also the concurrency torture test.
TEST(ServerTest, ConcurrentClientsAreBitIdenticalToSerial) {
  // A request mix that exercises every stateful path: learns (shared model
  // store), evals (reads), synth (process-wide memo), cec (SAT).
  std::vector<std::string> request_set;
  for (int k = 0; k < 4; ++k) {
    request_set.push_back(
        learn_request(pla_for(4, [k](std::uint32_t r) {
          return ((r >> (k % 3)) & 1u) == (k % 2 ? 1u : 0u) && r % 3 != 2;
        })).dump());
  }
  core::Rng rng(11);
  aig::ConeOptions cone;
  cone.num_inputs = 10;
  cone.num_ands = 80;
  const aig::Aig circuit = aig::random_cone(cone, rng);
  {
    Json synth = make_request("synth");
    synth.set("aag", aag_text(circuit));
    synth.set("script", "fast");
    request_set.push_back(synth.dump());
    Json cec = make_request("cec");
    cec.set("a", aag_text(or2_circuit()));
    cec.set("b", aag_text(and2_circuit()));
    request_set.push_back(cec.dump());
  }

  ServerOptions options = test_server_options();
  options.num_threads = 0;  // hardware width
  Server server(options);
  server.start();
  const int port = server.port();

  // Serial baseline, including the eval that depends on a learned id.
  std::vector<std::string> baseline;
  {
    Client client;
    client.connect("127.0.0.1", port);
    for (const std::string& line : request_set) {
      baseline.push_back(client.roundtrip(line));
    }
    const Json learned = Json::parse(baseline[0]);
    Json eval = make_request("eval");
    eval.set("model", learned.at("model").as_string());
    Json inputs = Json::array();
    for (const char* row : {"0000", "1010", "1111"}) {
      inputs.push_back(Json(row));
    }
    eval.set("inputs", std::move(inputs));
    request_set.push_back(eval.dump());
    baseline.push_back(client.roundtrip(request_set.back()));
  }

  constexpr int kClients = 256;
  std::vector<std::vector<std::string>> responses(kClients);
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        Client client;
        client.connect("127.0.0.1", port);
        for (const std::string& line : request_set) {
          responses[c].push_back(client.roundtrip(line));
        }
      } catch (const std::exception& e) {
        failures[c] = e.what();
      }
    });
  }
  for (auto& thread : clients) {
    thread.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(failures[c].empty()) << "client " << c << ": " << failures[c];
    ASSERT_EQ(responses[c].size(), baseline.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(responses[c][i], baseline[i])
          << "client " << c << ", request " << i;
    }
  }
  // All that load refit each model exactly once.
  EXPECT_EQ(server.service().stats().learns.load(), 4u);
}

}  // namespace
}  // namespace lsml
