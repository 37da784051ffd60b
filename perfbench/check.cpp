// Answer checks, run after the timed phases: every served distance must be
// sound against exact BFS on G\F, be ∞ exactly when s and t are
// disconnected, and equal the in-process ForbiddenSetOracle::distance.
#include <atomic>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

std::string describe_query(const RequestStream& stream, std::size_t i) {
  const Query& q = stream.queries[i];
  const fsdl::FaultSet& f = stream.fault_sets[q.fault_set];
  std::ostringstream os;
  os << "s=" << q.s << " t=" << q.t << " Fv=[";
  for (std::size_t k = 0; k < f.vertices().size(); ++k) {
    os << (k ? "," : "") << f.vertices()[k];
  }
  os << "] Fe=[";
  for (std::size_t k = 0; k < f.edges().size(); ++k) {
    os << (k ? "," : "") << f.edges()[k].first << "-" << f.edges()[k].second;
  }
  os << "]";
  return os.str();
}

}  // namespace

References compute_references(const fsdl::Graph& g,
                              const fsdl::ForbiddenSetOracle& oracle,
                              const RequestStream& stream, std::size_t count,
                              unsigned threads) {
  References refs;
  refs.exact.assign(count, fsdl::kInfDist);
  refs.oracle.assign(count, fsdl::kInfDist);
  // ForbiddenSetOracle::distance decodes through PreparedFaults; preparing
  // once per fault set gives the same answers at a fraction of the cost.
  // The first query of each set is also asked through distance() itself,
  // and any disagreement is reported.
  std::vector<std::vector<std::size_t>> by_set(stream.fault_sets.size());
  for (std::size_t i = 0; i < count; ++i) {
    by_set[stream.queries[i].fault_set].push_back(i);
  }
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t k; (k = next.fetch_add(1)) < by_set.size();) {
      if (by_set[k].empty()) continue;
      const fsdl::FaultSet& f = stream.fault_sets[k];
      const fsdl::PreparedFaults prepared = oracle.prepare(f);
      for (std::size_t i : by_set[k]) {
        const Query& q = stream.queries[i];
        refs.exact[i] = fsdl::distance_avoiding(g, q.s, q.t, f);
        refs.oracle[i] =
            prepared.query(oracle.label(q.s), oracle.label(q.t)).distance;
      }
      const std::size_t first = by_set[k].front();
      const Query& q = stream.queries[first];
      if (oracle.distance(q.s, q.t, f) != refs.oracle[first]) {
        std::lock_guard<std::mutex> lock(mu);
        if (refs.disagreement.empty()) {
          refs.disagreement = "ForbiddenSetOracle::distance differs from its "
                              "prepared form: " + describe_query(stream, first);
        }
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned k = 0; k < threads; ++k) pool.emplace_back(work);
  for (auto& th : pool) th.join();
  return refs;
}

void check_answers(const PhaseRun& run, const RequestStream& stream,
                   const References& refs, CheckResult& out) {
  for (std::size_t i = 0; i < run.answer.size(); ++i) {
    if (run.outcome[i] != Outcome::kOk) continue;
    ++out.checked;
    const Dist got = run.answer[i];
    const Dist exact = refs.exact[i];
    const char* what = nullptr;
    if ((got == fsdl::kInfDist) != (exact == fsdl::kInfDist)) {
      what = "infinite iff disconnected";
    } else if (got < exact) {
      what = "unsound (shorter than exact G\\F distance)";
    } else if (got != refs.oracle[i]) {
      what = "differs from ForbiddenSetOracle::distance";
    }
    if (what != nullptr) {
      if (out.violations++ == 0) {
        std::ostringstream os;
        os << what << ": " << describe_query(stream, i) << " served=" << got
           << " exact=" << exact << " oracle=" << refs.oracle[i];
        out.first_violation = os.str();
      }
      continue;
    }
    if (exact != fsdl::kInfDist && exact > 0) {
      out.stretch_sum += static_cast<double>(got) / static_cast<double>(exact);
      ++out.stretch_count;
    }
  }
}

double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0;
}

}  // namespace perfbench
