#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace fsdl {
namespace {

TEST(Serialize, RoundTripPreservesEveryLabelBitForBit) {
  const Graph g = make_grid2d(9, 9);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  std::stringstream ss;
  save_labeling(scheme, ss);
  const auto loaded = load_labeling(ss);

  ASSERT_EQ(loaded.num_vertices(), scheme.num_vertices());
  EXPECT_EQ(loaded.top_level(), scheme.top_level());
  EXPECT_EQ(loaded.vertex_bits(), scheme.vertex_bits());
  EXPECT_EQ(loaded.params().c, scheme.params().c);
  EXPECT_EQ(loaded.params().faithful_radii, scheme.params().faithful_radii);
  EXPECT_DOUBLE_EQ(loaded.params().epsilon, scheme.params().epsilon);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(loaded.label_bits(v), scheme.label_bits(v)) << "v=" << v;
  }
  EXPECT_EQ(loaded.total_bits(), scheme.total_bits());
}

TEST(Serialize, LoadedSchemeAnswersIdentically) {
  const Graph g = make_cycle(80);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::compact(1.0, 2));
  std::stringstream ss;
  save_labeling(scheme, ss);
  const auto loaded = load_labeling(ss);

  const ForbiddenSetOracle original(scheme), reloaded(loaded);
  Rng rng(77);
  for (int k = 0; k < 150; ++k) {
    const Vertex s = rng.vertex(80), t = rng.vertex(80);
    FaultSet f;
    for (unsigned j = 0; j < 2; ++j) {
      const Vertex x = rng.vertex(80);
      if (x != s && x != t) f.add_vertex(x);
    }
    EXPECT_EQ(original.distance(s, t, f), reloaded.distance(s, t, f));
  }
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = make_path(60);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  const std::string path = ::testing::TempDir() + "scheme.fsdl";
  save_labeling(scheme, path);
  const auto loaded = load_labeling(path);
  EXPECT_EQ(loaded.total_bits(), scheme.total_bits());
}

TEST(Serialize, DeltaCodecSurvivesRoundTrip) {
  const Graph g = make_path(70);
  BuildOptions delta;
  delta.codec = LabelCodec::kDelta;
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0), delta);
  std::stringstream ss;
  save_labeling(scheme, ss);
  const auto loaded = load_labeling(ss);
  EXPECT_EQ(loaded.codec(), LabelCodec::kDelta);
  const ForbiddenSetOracle a(scheme), b(loaded);
  FaultSet f;
  f.add_vertex(30);
  EXPECT_EQ(a.distance(0, 69, f), b.distance(0, 69, f));
}

// Size and CRC-32 of whole label files, recorded from the bit-at-a-time
// codec: a change to the bits labels are written with shows up here.
TEST(Serialize, LabelFilesMatchRecordedBytes) {
  struct Case {
    const char* name;
    Graph graph;
    SchemeParams params;
    LabelCodec codec;
    std::size_t bytes;
    std::uint32_t crc;
  };
  const Case cases[] = {
      {"grid classic", make_grid2d(12, 12), SchemeParams::compact(1.0, 2),
       LabelCodec::kClassic, 1509695, 4216890110u},
      {"grid delta", make_grid2d(12, 12), SchemeParams::compact(1.0, 2),
       LabelCodec::kDelta, 685575, 4210328916u},
      {"cycle classic", make_cycle(90), SchemeParams::faithful(1.0),
       LabelCodec::kClassic, 1358575, 916579940u},
      {"cycle delta", make_cycle(90), SchemeParams::faithful(1.0),
       LabelCodec::kDelta, 648471, 813089279u},
  };
  for (const Case& c : cases) {
    BuildOptions options;
    options.codec = c.codec;
    const auto scheme = ForbiddenSetLabeling::build(c.graph, c.params, options);
    std::ostringstream out;
    save_labeling(scheme, out);
    const std::string blob = out.str();
    EXPECT_EQ(blob.size(), c.bytes) << c.name;
    EXPECT_EQ(crc32(blob.data(), blob.size()), c.crc) << c.name;
  }
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream ss("this is not a labeling file");
  EXPECT_THROW(load_labeling(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncation) {
  const Graph g = make_path(30);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  std::stringstream ss;
  save_labeling(scheme, ss);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_labeling(cut), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_labeling(std::string("/nonexistent/dir/x.fsdl")),
               std::runtime_error);
}

TEST(Serialize, EveryFlippedBitIsRejectedByCrc) {
  const Graph g = make_path(20);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  std::stringstream ss;
  save_labeling(scheme, ss);
  const std::string good = ss.str();
  const std::uint64_t failures_before = labeling_crc_failures();

  // Flip one bit in every byte past the 16-byte header — body bytes and
  // the CRC trailer itself (a corrupt trailer must not verify either).
  // Every single corruption must throw; none may load into a scheme that
  // would answer queries.
  Rng rng(11);
  std::uint64_t crc_rejections = 0;
  for (std::size_t pos = 16; pos < good.size(); ++pos) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ (1 << rng.below(8)));
    std::stringstream corrupt(bad);
    try {
      (void)load_labeling(corrupt);
      FAIL() << "bit flip at byte " << pos << " loaded successfully";
    } catch (const LabelingCrcError&) {
      // The distinct type is load-bearing: Server::reload uses it to
      // classify the failure as crc_failed without consulting globals.
      ++crc_rejections;
    } catch (const std::runtime_error&) {
      // Structural rejection (truncated/corrupt field) before the CRC.
    }
  }
  EXPECT_GT(crc_rejections, 0u);
  // The global counter (exported as fsdl_label_crc_failures_total) saw
  // every CRC rejection.
  EXPECT_EQ(labeling_crc_failures() - failures_before, crc_rejections);
}

TEST(Serialize, RejectsOldFormatVersionWithActionableMessage) {
  const Graph g = make_path(20);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  std::stringstream ss;
  save_labeling(scheme, ss);
  std::string bytes = ss.str();
  bytes[4] = 1;  // version field follows the 4-byte magic
  std::stringstream old(bytes);
  try {
    (void)load_labeling(old);
    FAIL() << "version-1 file loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 1"), std::string::npos) << what;
    EXPECT_NE(what.find("rebuild"), std::string::npos) << what;
  }
}

TEST(Serialize, RejectsImplausibleBodySizeWithoutAllocating) {
  // Magic + version, then a body_size claiming 2^63 bytes: the loader must
  // refuse up front instead of trying to allocate.
  std::string bytes = "FSDL";
  const std::uint32_t version = 3;
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  const std::uint64_t huge = 1ull << 63;
  bytes.append(reinterpret_cast<const char*>(&huge), 8);
  std::stringstream ss(bytes);
  try {
    (void)load_labeling(ss);
    FAIL() << "implausible size accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos);
  }
}

TEST(Serialize, LyingBodySizeHitsEofNotOverread) {
  // A plausible-but-wrong size (larger than the real body) must surface as
  // truncation when the stream runs dry.
  const Graph g = make_path(20);
  const auto scheme = ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  std::stringstream ss;
  save_labeling(scheme, ss);
  std::string bytes = ss.str();
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + 8, 8);
  size += 4096;
  std::memcpy(bytes.data() + 8, &size, 8);
  std::stringstream lying(bytes);
  try {
    (void)load_labeling(lying);
    FAIL() << "lying size accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
  }
}

TEST(Serialize, FailedSaveLeavesExistingFileIntact) {
  // save_labeling() goes through tmp+fsync+rename, so a save that cannot
  // complete must never clobber (or even touch) the previous good file.
  const Graph g = make_path(16);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  const std::string path = ::testing::TempDir() + "serialize_atomic.fsdl";
  save_labeling(scheme, path);
  const auto before = load_labeling(path);  // sanity: good file on disk

  // A save into a nonexistent directory fails before any rename.
  EXPECT_THROW(
      save_labeling(scheme, ::testing::TempDir() + "no_dir_zz/out.fsdl"),
      std::runtime_error);

  // The original file still loads bit-for-bit.
  const auto after = load_labeling(path);
  ASSERT_EQ(after.num_vertices(), before.num_vertices());
  EXPECT_EQ(after.total_bits(), before.total_bits());
  std::remove(path.c_str());
}

TEST(Serialize, StaleTmpFromKilledSaverIsInvisibleToLoad) {
  // A saver killed mid-write leaves only "<path>.tmp" behind; the target
  // path either has the old complete file or nothing. Loading must never
  // see the torn bytes.
  const Graph g = make_path(16);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  const std::string path = ::testing::TempDir() + "serialize_stale.fsdl";
  save_labeling(scheme, path);
  {
    std::ofstream tmp(path + ".tmp", std::ios::binary);
    tmp << "FSDLtorn-half-written";
  }
  const auto loaded = load_labeling(path);  // unaffected by the .tmp
  EXPECT_EQ(loaded.num_vertices(), scheme.num_vertices());
  // And a new atomic save replaces both cleanly.
  save_labeling(scheme, path);
  EXPECT_EQ(load_labeling(path).total_bits(), scheme.total_bits());
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
}

}  // namespace
}  // namespace fsdl
