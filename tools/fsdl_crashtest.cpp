// fsdl_crashtest — crash-consistency torture orchestrator for the
// persistence and I/O paths, driven by the failpoint registry
// (util/failpoint.hpp).
//
// Three phases, each gating an invariant the stack promises:
//
//   A. Save-path abort sweep. Enumerate every failpoint hit of
//      save_labeling(path) (mkstemp, each write(2), fsync, close, rename,
//      dir-fsync, completion), then for every (point, hit-index) fork a
//      child that SIGKILLs itself exactly there. After each kill the store
//      file must be byte-identical to the complete OLD labeling or the
//      complete NEW one — never missing, truncated, or torn — and a
//      restarted loader must CRC-validate it and serve correct distances
//      from it. An in-process errno:EIO sweep over the same hit-points
//      then asserts every failed save reports the error AND leaves the old
//      file intact, and that EINTR/short-write injections are retried to a
//      successful, complete save.
//
//   B. Reload under fault. An admin server hot-reloads (RELOAD opcode —
//      the same Server::reload() that SIGHUP drives in fsdl_serve) while
//      failpoints inject an open failure, a torn read, an allocation
//      failure, a snapshot-build failure, and CRC bit rot. Every failure
//      must leave the old snapshot serving (verified distances, epoch
//      unchanged) and be classified correctly in
//      fsdl_label_reloads_total{result=ok|crc_failed|error}; the armed
//      points must show up in fsdl_failpoint_hits_total{point}.
//
//   C. Socket storm. Verified query load through a real server while
//      EINTR storms and short reads/writes hammer every socket site
//      (client send/recv, reactor recv/try_flush). Gate: zero violations —
//      every answer equals the local oracle's answer on the same labeling.
//
//   fsdl_crashtest [--work-dir DIR] [--seed S] [--emit-corpus DIR]
//
// --emit-corpus DIR additionally writes torn-file artifacts (truncations
// at every header/section boundary, CRC-flipped trailers, bit-flipped
// bodies) for seeding the fuzz_serialize corpus with real crash shapes.
#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/labeling.hpp"
#include "core/oracle.hpp"
#include "core/serialize.hpp"
#include "graph/fault_view.hpp"
#include "graph/generators.hpp"
#include "server/client.hpp"
#include "server/server.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsdl;

int g_failures = 0;

#define CHECK(cond, ...)                               \
  do {                                                 \
    if (!(cond)) {                                     \
      std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__); \
      std::fprintf(stderr, __VA_ARGS__);               \
      std::fprintf(stderr, "\n");                      \
      ++g_failures;                                    \
    }                                                  \
  } while (0)

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(2);
  }
}

/// The two labeling versions every phase flips between, plus their exact
/// serialized bytes (what "complete-old" / "complete-new" means on disk).
struct Fixture {
  Graph graph;
  ForbiddenSetLabeling old_scheme;
  ForbiddenSetLabeling new_scheme;
  std::string old_bytes;
  std::string new_bytes;
  std::string path;  // the store file under torture
  double old_eps = 1.0;
  double new_eps = 0.5;
};

Fixture make_fixture(const std::string& work_dir) {
  Fixture fix;
  fix.graph = make_grid2d(8, 8);
  fix.old_scheme = ForbiddenSetLabeling::build(
      fix.graph, SchemeParams::faithful(fix.old_eps));
  fix.new_scheme = ForbiddenSetLabeling::build(
      fix.graph, SchemeParams::faithful(fix.new_eps));
  std::ostringstream oss_old(std::ios::binary);
  save_labeling(fix.old_scheme, oss_old);
  fix.old_bytes = oss_old.str();
  std::ostringstream oss_new(std::ios::binary);
  save_labeling(fix.new_scheme, oss_new);
  fix.new_bytes = oss_new.str();
  fix.path = work_dir + "/store.fsdl";
  return fix;
}

/// Every failpoint on the save_labeling(path) route, in program order.
const char* kSavePoints[] = {
    "serialize.save.alloc",   "atomic_file.mkstemp",
    "atomic_file.write",      "atomic_file.fsync",
    "atomic_file.close",      "atomic_file.rename",
    "atomic_file.dir_fsync",  "atomic_file.dir_fsync.sync",
    "atomic_file.done",
};

/// Points where an injected hard error must NOT fail the save (best-effort
/// directory persistence, post-completion marker).
bool best_effort_point(const std::string& point) {
  return point == "atomic_file.dir_fsync" ||
         point == "atomic_file.dir_fsync.sync" ||
         point == "atomic_file.done";
}

/// Remove `store.fsdl.tmp.*` leftovers a killed child may strand. Returns
/// how many there were (stale tmps are allowed; a torn `path` is not).
unsigned sweep_stale_tmps(const std::string& work_dir) {
  unsigned stale = 0;
  DIR* dir = ::opendir(work_dir.c_str());
  if (dir == nullptr) return 0;
  while (dirent* e = ::readdir(dir)) {
    const std::string name = e->d_name;
    if (name.rfind("store.fsdl.tmp.", 0) == 0) {
      ::unlink((work_dir + "/" + name).c_str());
      ++stale;
    }
  }
  ::closedir(dir);
  return stale;
}

/// The Phase A invariant: the store is byte-identical to complete-old or
/// complete-new, and a fresh loader serves correct distances from it.
void verify_store(const Fixture& fix, Rng& rng, const char* what) {
  std::string bytes;
  if (!read_file(fix.path, bytes)) {
    CHECK(false, "%s: store file missing", what);
    return;
  }
  const bool is_old = bytes == fix.old_bytes;
  const bool is_new = bytes == fix.new_bytes;
  CHECK(is_old || is_new,
        "%s: store is torn (%zu bytes, old=%zu new=%zu)", what, bytes.size(),
        fix.old_bytes.size(), fix.new_bytes.size());
  if (!is_old && !is_new) return;
  try {
    // Restarted-loader check: CRC sweep + parse + a few served queries.
    const ForbiddenSetLabeling loaded = load_labeling(fix.path);
    const ForbiddenSetOracle oracle(loaded);
    const double eps = is_old ? fix.old_eps : fix.new_eps;
    const Vertex n = fix.graph.num_vertices();
    for (int q = 0; q < 4; ++q) {
      const Vertex s = rng.vertex(n);
      const Vertex t = rng.vertex(n);
      FaultSet f;
      const Vertex x = rng.vertex(n);
      if (x != s && x != t) f.add_vertex(x);
      const Dist got = oracle.distance(s, t, f);
      const Dist exact = distance_avoiding(fix.graph, s, t, f);
      if (exact == kInfDist || got == kInfDist) {
        CHECK(got == exact, "%s: infinity mismatch s=%u t=%u", what, s, t);
      } else {
        CHECK(got >= exact && static_cast<double>(got) <=
                                  (1.0 + eps) * static_cast<double>(exact),
              "%s: stretch violation s=%u t=%u got=%u exact=%u", what, s, t,
              got, exact);
      }
    }
  } catch (const std::exception& e) {
    CHECK(false, "%s: restarted loader rejected an intact store: %s", what,
          e.what());
  }
}

// ---------------------------------------------------------------- Phase A

void phase_a(const Fixture& fix, const std::string& work_dir,
             std::uint64_t seed) {
  Rng rng(seed);

  // Count pass: arm every save point with `off` so evaluate() counts hits
  // without injecting, and record how many times each point is reached.
  {
    std::string spec;
    for (const char* p : kSavePoints) spec += std::string(p) + "=off;";
    const std::string err = failpoint::arm(spec);
    CHECK(err.empty(), "count-pass arm failed: %s", err.c_str());
  }
  write_file(fix.path, fix.old_bytes);
  save_labeling(fix.new_scheme, fix.path);
  std::vector<std::pair<std::string, std::uint64_t>> hit_counts;
  std::uint64_t total_hits = 0;
  for (const char* p : kSavePoints) {
    const std::uint64_t h = failpoint::hits(p);
    CHECK(h > 0, "save path never reached failpoint %s", p);
    hit_counts.emplace_back(p, h);
    total_hits += h;
  }
  failpoint::disarm_all();

  // Abort sweep: SIGKILL a forked child at every single hit of every
  // point; the parent asserts complete-old-or-complete-new every time.
  unsigned aborts = 0;
  for (const auto& [point, hits] : hit_counts) {
    for (std::uint64_t k = 1; k <= hits; ++k) {
      write_file(fix.path, fix.old_bytes);
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid == 0) {
        failpoint::disarm_all();
        const std::string err =
            failpoint::arm(point + "=abort@nth:" + std::to_string(k));
        if (!err.empty()) ::_exit(4);
        try {
          save_labeling(fix.new_scheme, fix.path);
        } catch (...) {
        }
        ::_exit(3);  // the abort must have fired before we got here
      }
      CHECK(pid > 0, "fork failed: %s", std::strerror(errno));
      if (pid < 0) return;
      int status = 0;
      ::waitpid(pid, &status, 0);
      CHECK(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
            "child for %s hit %llu did not die by SIGKILL (status=%d)",
            point.c_str(), static_cast<unsigned long long>(k), status);
      const std::string what = "abort@" + point;
      verify_store(fix, rng, what.c_str());
      ++aborts;
    }
  }
  const unsigned stale = sweep_stale_tmps(work_dir);

  // Errno sweep (in-process): EIO at each hit must fail the save loudly
  // and leave the old file byte-intact — except at the best-effort points,
  // where the save must still complete.
  unsigned errnos = 0;
  for (const auto& [point, hits] : hit_counts) {
    for (std::uint64_t k = 1; k <= hits; ++k) {
      write_file(fix.path, fix.old_bytes);
      const std::string err =
          failpoint::arm(point + "=errno:EIO@nth:" + std::to_string(k));
      CHECK(err.empty(), "errno arm failed: %s", err.c_str());
      bool saved = true;
      std::string message;
      try {
        save_labeling(fix.new_scheme, fix.path);
      } catch (const std::exception& e) {
        saved = false;
        message = e.what();
      }
      failpoint::disarm_all();
      if (best_effort_point(point)) {
        CHECK(saved, "EIO at best-effort %s failed the save: %s",
              point.c_str(), message.c_str());
      } else {
        CHECK(!saved, "EIO at %s hit %llu did not fail the save",
              point.c_str(), static_cast<unsigned long long>(k));
        CHECK(!saved && !message.empty(), "EIO at %s produced no message",
              point.c_str());
      }
      std::string bytes;
      CHECK(read_file(fix.path, bytes), "store missing after EIO at %s",
            point.c_str());
      CHECK(bytes == (saved ? fix.new_bytes : fix.old_bytes),
            "store not byte-intact after EIO at %s hit %llu", point.c_str(),
            static_cast<unsigned long long>(k));
      ++errnos;
    }
  }
  sweep_stale_tmps(work_dir);

  // Retry semantics: EINTR at write/fsync and short writes must be
  // absorbed — the save completes and the file is the complete new bytes.
  const char* retry_specs[] = {
      "atomic_file.write=errno:EINTR@nth:1",
      "atomic_file.fsync=errno:EINTR@nth:1",
      "atomic_file.write=short:512",
      "atomic_file.write=short:1",
  };
  for (const char* spec : retry_specs) {
    write_file(fix.path, fix.old_bytes);
    const std::string err = failpoint::arm(spec);
    CHECK(err.empty(), "retry arm failed: %s", err.c_str());
    bool saved = true;
    try {
      save_labeling(fix.new_scheme, fix.path);
    } catch (const std::exception& e) {
      saved = false;
      CHECK(false, "save under \"%s\" failed: %s", spec, e.what());
    }
    const std::uint64_t fires = failpoint::fires("atomic_file.write") +
                                failpoint::fires("atomic_file.fsync");
    CHECK(fires > 0, "retry spec \"%s\" never fired", spec);
    failpoint::disarm_all();
    std::string bytes;
    if (saved && read_file(fix.path, bytes)) {
      CHECK(bytes == fix.new_bytes, "save under \"%s\" left a torn file",
            spec);
    }
  }

  std::printf("phase A: %u abort kills + %u errno injections across %llu "
              "hit-points (%u stale tmps cleaned), store never torn\n",
              aborts, errnos, static_cast<unsigned long long>(total_hits),
              stale);
}

// ---------------------------------------------------------------- Phase B

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

void phase_b(Fixture& fix, std::uint64_t seed) {
  Rng rng(seed + 1);
  write_file(fix.path, fix.old_bytes);

  server::ServerOptions opt;
  opt.workers = 2;
  opt.cache_capacity = 16;
  opt.label_path = fix.path;
  opt.admin = true;
  server::Server srv(fix.old_scheme, opt);
  srv.start();
  server::Client client;
  client.connect("127.0.0.1", srv.port());

  const ForbiddenSetOracle local(fix.old_scheme);
  auto serving_ok = [&](const char* what) {
    const Vertex n = fix.graph.num_vertices();
    const Vertex s = rng.vertex(n);
    const Vertex t = rng.vertex(n);
    FaultSet f;
    const Vertex x = rng.vertex(n);
    if (x != s && x != t) f.add_vertex(x);
    const Dist got = client.dist(s, t, f);
    CHECK(got == local.distance(s, t, f),
          "%s: old snapshot answered wrong distance s=%u t=%u", what, s, t);
  };

  // Clean hot reload over the wire (the admin RELOAD opcode drives the
  // same Server::reload() path SIGHUP does in fsdl_serve).
  const std::string reply = client.admin_reload();
  CHECK(contains(reply, "epoch=2"), "clean RELOAD reply: %s", reply.c_str());
  CHECK(srv.metrics().reloads(server::ReloadResult::kOk) == 1,
        "clean reload not counted ok");

  struct FaultCase {
    const char* spec;
    const char* expect_in_error;
    server::ReloadResult classified;
  };
  const FaultCase cases[] = {
      {"serialize.load.crc=errno:EIO@nth:1", "CRC32",
       server::ReloadResult::kCrcFailed},
      {"serialize.load.read=errno:EIO@nth:1", "truncated",
       server::ReloadResult::kError},
      {"serialize.load.alloc=errno:ENOMEM@nth:1", "alloc",
       server::ReloadResult::kError},
      {"server.reload.publish=errno:EIO@nth:1", "alloc",
       server::ReloadResult::kError},
      {"serialize.load.open=errno:EIO@nth:1", "cannot open",
       server::ReloadResult::kError},
  };
  std::uint64_t expect_errors = 0;
  std::uint64_t expect_crc = 0;
  for (const FaultCase& c : cases) {
    const std::uint64_t epoch_before = srv.label_epoch();
    const std::string err = failpoint::arm(c.spec);
    CHECK(err.empty(), "arm %s: %s", c.spec, err.c_str());
    const std::string reload_error = srv.reload();
    CHECK(!reload_error.empty(), "reload under %s did not fail", c.spec);
    CHECK(contains(reload_error, c.expect_in_error),
          "reload under %s: error \"%s\" lacks \"%s\"", c.spec,
          reload_error.c_str(), c.expect_in_error);
    if (c.classified == server::ReloadResult::kCrcFailed) ++expect_crc;
    else ++expect_errors;
    CHECK(srv.metrics().reloads(c.classified) ==
              (c.classified == server::ReloadResult::kCrcFailed
                   ? expect_crc
                   : expect_errors),
          "reload under %s misclassified", c.spec);
    CHECK(srv.label_epoch() == epoch_before,
          "failed reload under %s bumped the epoch", c.spec);
    serving_ok(c.spec);
    // Export check on the last case, while the point is still armed: the
    // armed run must be observable in the Prometheus exposition.
    if (std::string(c.spec).rfind("serialize.load.open", 0) == 0) {
      const std::string prom = client.metrics();
      CHECK(contains(prom, "fsdl_label_reloads_total{result=\"ok\"} 1"),
            "prometheus reload ok counter wrong");
      CHECK(contains(prom,
                     "fsdl_label_reloads_total{result=\"crc_failed\"} 1"),
            "prometheus reload crc_failed counter wrong");
      CHECK(contains(prom, "fsdl_label_reloads_total{result=\"error\"} 4"),
            "prometheus reload error counter wrong");
      CHECK(contains(
                prom,
                "fsdl_failpoint_hits_total{point=\"serialize.load.open\"} 1"),
            "fsdl_failpoint_hits_total missing the armed point");
    }
    failpoint::disarm_all();
  }

  // With every fault disarmed the same file reloads cleanly again.
  CHECK(srv.reload().empty(), "post-fault reload failed");
  CHECK(srv.metrics().reloads(server::ReloadResult::kOk) == 2,
        "post-fault reload not counted ok");
  serving_ok("post-fault");
  srv.stop();

  std::printf("phase B: 2 clean + %zu faulted reloads, old snapshot served "
              "through every failure, counters classified ok=2 "
              "crc_failed=%llu error=%llu\n",
              std::size(cases), static_cast<unsigned long long>(expect_crc),
              static_cast<unsigned long long>(expect_errors));
}

// ---------------------------------------------------------------- Phase C

void phase_c(const Fixture& fix, std::uint64_t seed) {
  server::ServerOptions opt;
  opt.workers = 4;
  opt.cache_capacity = 32;
  server::Server srv(fix.old_scheme, opt);
  srv.start();

  // EINTR storms must use every:K >= 2: a correctly-retrying site would
  // spin forever under every:1 (the retry is itself the next hit).
  const std::string err = failpoint::arm(
      "client.send=short:3@every:2;client.recv=errno:EINTR@every:3;"
      "reactor.recv=errno:EINTR@every:3;reactor.send=short:7@every:2");
  CHECK(err.empty(), "storm arm failed: %s", err.c_str());

  const ForbiddenSetOracle local(fix.old_scheme);
  server::Client client;
  client.connect("127.0.0.1", srv.port());
  Rng rng(seed + 2);
  const Vertex n = fix.graph.num_vertices();
  unsigned answered = 0;
  for (int q = 0; q < 250; ++q) {
    const Vertex s = rng.vertex(n);
    const Vertex t = rng.vertex(n);
    FaultSet f;
    const std::size_t num_faults = rng.below(4);
    while (f.size() < num_faults) {
      const Vertex x = rng.vertex(n);
      if (x != s && x != t) f.add_vertex(x);
    }
    try {
      if (q % 10 == 9) {
        // Exercise multi-frame responses under the storm too.
        std::vector<std::pair<Vertex, Vertex>> pairs = {
            {s, t}, {t, s}, {s, s}};
        const std::vector<Dist> got = client.batch(pairs, f);
        for (std::size_t i = 0; i < pairs.size(); ++i) {
          CHECK(got[i] == local.distance(pairs[i].first, pairs[i].second, f),
                "storm batch violation q=%d i=%zu", q, i);
        }
      } else {
        const Dist got = client.dist(s, t, f);
        CHECK(got == local.distance(s, t, f),
              "storm violation q=%d s=%u t=%u", q, s, t);
      }
      ++answered;
    } catch (const std::exception& e) {
      CHECK(false, "storm query failed q=%d: %s", q, e.what());
    }
  }
  CHECK(answered == 250, "storm answered %u/250", answered);
  CHECK(failpoint::fires("client.send") > 0, "client.send storm never fired");
  CHECK(failpoint::fires("client.recv") > 0, "client.recv storm never fired");
  CHECK(failpoint::fires("reactor.recv") > 0,
        "reactor.recv storm never fired");
  CHECK(failpoint::fires("reactor.send") > 0,
        "reactor.send storm never fired");
  failpoint::disarm_all();
  srv.stop();

  std::printf("phase C: 250/250 storm queries answered, zero violations\n");
}

// ------------------------------------------------------------- corpus

void emit_corpus(const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
  // A deliberately small labeling: fuzz seeds should be structural shapes
  // for the mutator to bend, not megabytes of label bits (the CI fuzz run
  // caps inputs at 64 KiB anyway).
  const Graph g = make_grid2d(4, 4);
  const auto scheme =
      ForbiddenSetLabeling::build(g, SchemeParams::faithful(1.0));
  std::ostringstream os(std::ios::binary);
  save_labeling(scheme, os);
  const std::string bytes = os.str();
  // v3 layout: magic[4] version[4] body_size[8] body[N] crc[4].
  const std::size_t header = 16;
  const std::size_t body = bytes.size() - header - 4;
  auto emit = [&](const std::string& name, std::string artifact) {
    write_file(dir + "/" + name, artifact);
  };
  const std::size_t cuts[] = {2,          4,          8,
                              12,         header,     header + body / 3,
                              header + body - 1, header + body,
                              header + body + 2};
  for (const std::size_t cut : cuts) {
    char name[64];
    std::snprintf(name, sizeof name, "torn_trunc_%zu.fsdl", cut);
    emit(name, bytes.substr(0, cut));
  }
  std::string crc_flip = bytes;
  crc_flip.back() = static_cast<char>(crc_flip.back() ^ 0x01);
  emit("torn_crc_flip.fsdl", crc_flip);
  std::string body_flip = bytes;
  body_flip[header + body / 2] =
      static_cast<char>(body_flip[header + body / 2] ^ 0x80);
  emit("torn_body_flip.fsdl", body_flip);
  std::string version_bump = bytes;
  version_bump[4] = static_cast<char>(version_bump[4] + 1);
  emit("torn_version_bump.fsdl", version_bump);
  std::printf("corpus: wrote %zu torn artifacts to %s\n",
              std::size(cuts) + 3, dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string work_dir;
  std::string corpus_dir;
  std::uint64_t seed = 42;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    if (arg == "--work-dir" && k + 1 < argc) {
      work_dir = argv[++k];
    } else if (arg == "--emit-corpus" && k + 1 < argc) {
      corpus_dir = argv[++k];
    } else if (arg == "--seed" && k + 1 < argc) {
      seed = std::strtoull(argv[++k], nullptr, 10);
    } else {
      std::fprintf(stderr,
                   "usage: fsdl_crashtest [--work-dir DIR] [--seed S] "
                   "[--emit-corpus DIR]\n");
      return 2;
    }
  }
  if (work_dir.empty()) {
    char tmpl[] = "/tmp/fsdl_crashtest.XXXXXX";
    if (::mkdtemp(tmpl) == nullptr) {
      std::fprintf(stderr, "mkdtemp failed: %s\n", std::strerror(errno));
      return 2;
    }
    work_dir = tmpl;
  } else {
    ::mkdir(work_dir.c_str(), 0755);  // ok if it already exists
  }

  Fixture fix = make_fixture(work_dir);
  std::printf("fixture: grid 8x8, old=%zuB (eps=%.1f) new=%zuB (eps=%.1f), "
              "store=%s\n",
              fix.old_bytes.size(), fix.old_eps, fix.new_bytes.size(),
              fix.new_eps, fix.path.c_str());

  if (!corpus_dir.empty()) emit_corpus(corpus_dir);

  // Phase A first: it forks, and fork is only safe while this process has
  // no server/client threads (the label builder joins its pool).
  phase_a(fix, work_dir, seed);
  phase_b(fix, seed);
  phase_c(fix, seed);

  std::remove(fix.path.c_str());
  if (g_failures > 0) {
    std::fprintf(stderr, "fsdl_crashtest: %d FAILURE(S)\n", g_failures);
    return 1;
  }
  std::printf("fsdl_crashtest: all phases passed\n");
  return 0;
}
