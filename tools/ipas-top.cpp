//===- tools/ipas-top.cpp - Live campaign monitor over a JSONL trace ------===//
//
// Part of the IPAS reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Tails a growing IPAS trace file and renders a refreshing live view of
/// every campaign in it, driven by the `campaign.heartbeat` records the
/// campaign monitor thread emits (docs/OBSERVABILITY.md):
///
///   ipas-top trace.jsonl                 # follow until all campaigns end
///   ipas-top trace.jsonl --once          # one snapshot of current state
///   ipas-top trace.jsonl --check-stall   # non-interactive health check
///
/// Heartbeats arrive on a wall-clock cadence independent of the run
/// rate, so a campaign that stops beating is stalled even when the
/// process is alive: in follow mode a campaign is flagged STALLED once
/// no heartbeat lands for --stall-factor x its every_ms cadence of
/// local time, and --check-stall replays a finished (or truncated)
/// trace and exits nonzero when any campaign that started beating never
/// reached a terminal state — a final heartbeat or a campaign.done —
/// or had an inter-heartbeat gap beyond the stall budget. That makes a
/// truncated trace (killed campaign) detectable from the file alone.
///
/// `--selftest-tail` exercises the tail-while-written path in-process:
/// a writer thread appends a synthetic campaign (header, begin,
/// heartbeats every few ms, final heartbeat, done) to the given path
/// while the normal follow loop consumes it; it exits 0 only if live
/// frames rendered while the file was still growing and the terminal
/// heartbeat was observed. The CTest suite runs it on every build.
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "support/ArgParser.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace ipas;
using namespace ipas::obs;

namespace {

const char *const OutcomeNames[] = {"crash", "hang", "detected", "masked",
                                    "soc"};
constexpr size_t NumOutcomeNames = 5;

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Live state of one campaign label, folded from its trace records.
struct CampaignState {
  std::string Label;
  uint64_t Runs = 0; ///< From campaign.begin, else the heartbeat's runs.
  std::string Backend;
  uint64_t Done = 0;
  uint64_t Seq = 0;
  uint64_t EveryMs = 0;
  double WallS = 0.0;
  double RunsPerSec = 0.0;
  double EtaS = 0.0;
  uint64_t Outcomes[NumOutcomeNames] = {};
  uint64_t PrunedRuns = 0;
  uint64_t VmRuns = 0;
  uint64_t InterpRuns = 0;
  uint64_t HeartbeatsSeen = 0;
  uint64_t LastHeartbeatTsUs = 0;
  uint64_t MaxGapUs = 0;       ///< Largest inter-heartbeat trace-time gap.
  uint64_t LastLocalBeatMs = 0; ///< Local receive time of the last beat.
  bool SawFinal = false;
  bool SawDone = false;

  bool terminal() const { return SawFinal || SawDone; }
};

/// Incremental JSONL tailer: repeated poll() calls return the newly
/// appended complete lines, buffering a trailing partial line until its
/// newline arrives (the writer may be mid-record when we read).
class TraceTail {
public:
  explicit TraceTail(std::string Path) : Path(std::move(Path)) {}

  bool poll(std::vector<std::string> &Lines) {
    if (!In.is_open()) {
      In.open(Path, std::ios::binary);
      if (!In)
        return false;
    }
    In.clear(); // reset EOF from the previous poll
    char Buf[65536];
    while (In.read(Buf, sizeof(Buf)), In.gcount() > 0)
      Partial.append(Buf, static_cast<size_t>(In.gcount()));
    size_t Start = 0;
    for (size_t Nl; (Nl = Partial.find('\n', Start)) != std::string::npos;
         Start = Nl + 1)
      Lines.push_back(Partial.substr(Start, Nl - Start));
    Partial.erase(0, Start);
    return true;
  }

private:
  std::string Path;
  std::ifstream In;
  std::string Partial;
};

/// Folds trace records into per-label campaign state, in file order.
struct Monitor {
  std::map<std::string, CampaignState> Campaigns;
  size_t Records = 0;
  size_t BadLines = 0;

  void feed(const std::string &Line) {
    if (Line.empty())
      return;
    std::optional<JsonValue> Parsed = parseJson(Line);
    if (!Parsed || !Parsed->isObject()) {
      ++BadLines;
      return;
    }
    ++Records;
    const JsonValue *Type = Parsed->get("type");
    if (!Type || !Type->isString() || Type->asString() != "event")
      return;
    const JsonValue *Name = Parsed->get("name");
    const JsonValue *Attrs = Parsed->get("attrs");
    if (!Name || !Name->isString() || !Attrs)
      return;
    const std::string &Ev = Name->asString();
    if (Ev != "campaign.begin" && Ev != "campaign.heartbeat" &&
        Ev != "campaign.done")
      return;
    const JsonValue *L = Attrs->get("label");
    CampaignState &S = Campaigns[L && L->isString() ? L->asString()
                                                   : std::string("campaign")];
    if (S.Label.empty())
      S.Label = L && L->isString() ? L->asString() : "campaign";

    if (Ev == "campaign.begin") {
      if (const JsonValue *V = Attrs->get("runs"))
        S.Runs = V->asU64();
      if (const JsonValue *V = Attrs->get("backend"))
        S.Backend = V->asString();
      return;
    }
    if (Ev == "campaign.done") {
      S.SawDone = true;
      if (const JsonValue *V = Attrs->get("runs"))
        S.Done = S.Runs = V->asU64();
      return;
    }
    // campaign.heartbeat
    uint64_t Ts = 0;
    if (const JsonValue *V = Parsed->get("ts_us"))
      Ts = V->asU64();
    if (S.HeartbeatsSeen && Ts > S.LastHeartbeatTsUs)
      S.MaxGapUs = std::max(S.MaxGapUs, Ts - S.LastHeartbeatTsUs);
    S.LastHeartbeatTsUs = Ts;
    S.LastLocalBeatMs = nowMs();
    ++S.HeartbeatsSeen;
    if (const JsonValue *V = Attrs->get("seq"))
      S.Seq = V->asU64();
    if (const JsonValue *V = Attrs->get("done"))
      S.Done = V->asU64();
    if (const JsonValue *V = Attrs->get("runs"))
      S.Runs = V->asU64();
    if (const JsonValue *V = Attrs->get("every_ms"))
      S.EveryMs = V->asU64();
    if (const JsonValue *V = Attrs->get("wall_s"))
      S.WallS = V->asNumber();
    if (const JsonValue *V = Attrs->get("runs_per_sec"))
      S.RunsPerSec = V->asNumber();
    if (const JsonValue *V = Attrs->get("eta_seconds"))
      S.EtaS = V->asNumber();
    for (size_t K = 0; K != NumOutcomeNames; ++K)
      if (const JsonValue *V = Attrs->get(OutcomeNames[K]))
        S.Outcomes[K] = V->asU64();
    if (const JsonValue *V = Attrs->get("pruned"))
      S.PrunedRuns = V->asU64();
    if (const JsonValue *V = Attrs->get("vm_runs"))
      S.VmRuns = V->asU64();
    if (const JsonValue *V = Attrs->get("interp_runs"))
      S.InterpRuns = V->asU64();
    if (const JsonValue *V = Attrs->get("final"))
      S.SawFinal = V->K == JsonValue::Kind::Bool && V->B;
  }
};

/// The stall budget in ms for a campaign's heartbeat cadence; 0 means
/// the campaign never advertised a cadence (no heartbeat yet).
uint64_t stallBudgetMs(const CampaignState &S, int64_t StallFactor) {
  if (!S.EveryMs)
    return 0;
  return S.EveryMs * static_cast<uint64_t>(StallFactor > 1 ? StallFactor : 1);
}

void renderCampaign(const CampaignState &S, bool Stalled) {
  double Frac = S.Runs ? static_cast<double>(S.Done) /
                             static_cast<double>(S.Runs)
                       : 0.0;
  const int Width = 30;
  int Fill = static_cast<int>(Frac * Width + 0.5);
  std::string Bar(static_cast<size_t>(Fill), '=');
  if (Fill < Width && Fill > 0)
    Bar.back() = '>';
  Bar.resize(Width, ' ');
  const char *Status = S.terminal() ? "done" : Stalled ? "STALLED" : "running";
  std::printf("%-16s [%s] %5.1f%%  %" PRIu64 "/%" PRIu64 " runs  %s%s%s\n",
              S.Label.c_str(), Bar.c_str(), 100.0 * Frac, S.Done, S.Runs,
              Status, S.Backend.empty() ? "" : "  backend ",
              S.Backend.c_str());
  if (S.HeartbeatsSeen)
    std::printf("  wall %.1fs  %.0f runs/s  eta %.1fs  hb seq %" PRIu64
                " every %" PRIu64 "ms\n",
                S.WallS, S.RunsPerSec, S.EtaS, S.Seq, S.EveryMs);
  std::printf("  crash %" PRIu64 "  hang %" PRIu64 "  detected %" PRIu64
              "  masked %" PRIu64 "  soc %" PRIu64 "  pruned %" PRIu64
              "  | vm %" PRIu64 "  interp %" PRIu64 "\n",
              S.Outcomes[0], S.Outcomes[1], S.Outcomes[2], S.Outcomes[3],
              S.Outcomes[4], S.PrunedRuns, S.VmRuns, S.InterpRuns);
}

/// One frame of the live view. Returns true if every known campaign has
/// reached a terminal state.
bool renderFrame(const Monitor &M, const std::string &Path,
                 int64_t StallFactor, bool Clear, size_t Frame) {
  if (Clear)
    std::printf("\x1b[H\x1b[2J");
  std::printf("ipas-top — %s (frame %zu, %zu records)\n", Path.c_str(),
              Frame, M.Records);
  bool AllTerminal = !M.Campaigns.empty();
  uint64_t Now = nowMs();
  for (const auto &[Label, S] : M.Campaigns) {
    bool Stalled = false;
    uint64_t Budget = stallBudgetMs(S, StallFactor);
    if (!S.terminal() && Budget && S.LastLocalBeatMs &&
        Now - S.LastLocalBeatMs > Budget)
      Stalled = true;
    renderCampaign(S, Stalled);
    AllTerminal &= S.terminal();
  }
  if (M.Campaigns.empty())
    std::printf("  (no campaign records yet)\n");
  std::fflush(stdout);
  return AllTerminal;
}

/// Post-mortem health check: replay the whole file and demand that every
/// campaign that started beating reached a terminal state, and that no
/// inter-heartbeat trace-time gap blew the stall budget. Exit code is
/// the number of unhealthy campaigns.
int checkStall(const Monitor &M, int64_t StallFactor) {
  int Unhealthy = 0;
  for (const auto &[Label, S] : M.Campaigns) {
    if (!S.HeartbeatsSeen && !S.SawDone) {
      // Began but produced neither heartbeats nor a done event: with
      // heartbeats disabled this is normal, so only flag it when the
      // campaign also never finished.
      std::fprintf(stderr,
                   "ipas-top: campaign '%s' has no terminal record "
                   "(truncated trace?)\n",
                   Label.c_str());
      ++Unhealthy;
      continue;
    }
    if (S.HeartbeatsSeen && !S.terminal()) {
      std::fprintf(stderr,
                   "ipas-top: campaign '%s' stalled at %" PRIu64 "/%" PRIu64
                   " runs: heartbeats stop without a final heartbeat or "
                   "campaign.done (truncated trace?)\n",
                   Label.c_str(), S.Done, S.Runs);
      ++Unhealthy;
      continue;
    }
    uint64_t BudgetUs = stallBudgetMs(S, StallFactor) * 1000;
    if (BudgetUs && S.MaxGapUs > BudgetUs) {
      std::fprintf(stderr,
                   "ipas-top: campaign '%s' heartbeat gap %.1fms exceeds "
                   "stall budget %.1fms (factor %" PRId64 " x %" PRIu64
                   "ms cadence)\n",
                   Label.c_str(), static_cast<double>(S.MaxGapUs) / 1e3,
                   static_cast<double>(BudgetUs) / 1e3, StallFactor,
                   S.EveryMs);
      ++Unhealthy;
      continue;
    }
    std::printf("ok: campaign '%s' %" PRIu64 "/%" PRIu64
                " runs, %" PRIu64 " heartbeat(s), terminal\n",
                Label.c_str(), S.Done, S.Runs, S.HeartbeatsSeen);
  }
  if (M.Campaigns.empty()) {
    std::fprintf(stderr, "ipas-top: trace contains no campaign records\n");
    return 1;
  }
  return Unhealthy;
}

/// --selftest-tail writer: appends a synthetic campaign to \p Path on a
/// few-ms cadence, mimicking the TraceSink JSONL shapes exactly. The
/// follow loop in main() consumes it concurrently.
void selftestWriter(const std::string &Path, uint64_t Runs,
                    uint64_t BeatMs) {
  std::ofstream Out(Path, std::ios::binary | std::ios::app);
  auto Sleep = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(BeatMs));
  };
  Out << "{\"type\":\"header\",\"version\":1,\"ts_us\":0,\"attrs\":"
         "{\"tool\":\"ipas-top-selftest\"}}\n";
  Out << "{\"type\":\"event\",\"name\":\"campaign.begin\",\"ts_us\":1,"
         "\"attrs\":{\"label\":\"selftest\",\"runs\":"
      << Runs << ",\"backend\":\"vm\"}}\n";
  Out.flush();
  uint64_t Ts = 1000;
  for (uint64_t Beat = 0; Beat <= Runs; Beat += 25) {
    Sleep();
    Ts += BeatMs * 1000;
    bool Final = Beat == Runs;
    uint64_t Done = Beat;
    Out << "{\"type\":\"event\",\"name\":\"campaign.heartbeat\",\"ts_us\":"
        << Ts << ",\"attrs\":{\"label\":\"selftest\",\"seq\":" << Beat / 25
        << ",\"wall_s\":" << static_cast<double>(Ts) * 1e-6
        << ",\"done\":" << Done << ",\"runs\":" << Runs
        << ",\"runs_per_sec\":1000.0,\"eta_seconds\":0.5,\"every_ms\":"
        << BeatMs << ",\"crash\":0,\"hang\":0,\"detected\":" << Done / 2
        << ",\"masked\":" << Done - Done / 2
        << ",\"soc\":0,\"pruned\":0,\"vm_runs\":" << Done
        << ",\"interp_runs\":0,\"final\":" << (Final ? "true" : "false")
        << "}}\n";
    Out.flush();
  }
  Out << "{\"type\":\"event\",\"name\":\"campaign.done\",\"ts_us\":"
      << Ts + 10 << ",\"attrs\":{\"label\":\"selftest\",\"runs\":" << Runs
      << "}}\n";
  Out.flush();
}

} // namespace

int main(int Argc, char **Argv) {
  bool Once = false, CheckStall = false, NoClear = false, Selftest = false;
  int64_t IntervalMs = 200, StallFactor = 5, MaxWaitMs = 0;
  ArgParser P("ipas-top: live campaign monitor over a growing IPAS trace");
  P.addBool("once", &Once, "render one snapshot of the current file and exit");
  P.addBool("check-stall", &CheckStall,
            "read the whole file and exit nonzero when any campaign that "
            "emitted heartbeats lacks a terminal heartbeat/done record or "
            "exceeded the stall budget");
  P.addInt("interval-ms", &IntervalMs,
           "poll/redraw cadence in follow mode (default 200)");
  P.addInt("stall-factor", &StallFactor,
           "flag a stall after this many missed heartbeat cadences "
           "(default 5)");
  P.addInt("max-wait-ms", &MaxWaitMs,
           "give up following after this much wall time (0 = forever)");
  P.addBool("no-clear", &NoClear,
            "do not clear the terminal between frames (append frames; "
            "useful for logs and tests)");
  P.addBool("selftest-tail", &Selftest,
            "write a synthetic live campaign to the given path from a "
            "background thread while tailing it; exit 0 only if live "
            "frames and the terminal heartbeat were observed");
  if (!P.parse(Argc, Argv))
    return 2;
  if (P.positionals().size() != 1) {
    std::fprintf(stderr, "usage: ipas-top <trace.jsonl> [flags]\n%s",
                 P.usage().c_str());
    return 2;
  }
  const std::string &Path = P.positionals()[0];

  Monitor M;
  std::vector<std::string> Lines;

  if (CheckStall || Once) {
    TraceTail Tail(Path);
    if (!Tail.poll(Lines)) {
      std::fprintf(stderr, "ipas-top: cannot open '%s'\n", Path.c_str());
      return 2;
    }
    for (const std::string &L : Lines)
      M.feed(L);
    if (CheckStall)
      return checkStall(M, StallFactor);
    renderFrame(M, Path, StallFactor, false, 0);
    return 0;
  }

  std::thread Writer;
  if (Selftest) {
    // 8 beats of 25 runs at a 20ms cadence ~ a 160ms campaign; the
    // follow loop polls at 10ms so several frames land mid-write.
    IntervalMs = 10;
    if (!MaxWaitMs)
      MaxWaitMs = 10000;
    NoClear = true;
    // Empty the file before the tail opens it, so a complete trace left
    // by an earlier run can never be read as this run's campaign.
    std::ofstream(Path, std::ios::binary | std::ios::trunc);
    Writer = std::thread(selftestWriter, Path, uint64_t{200}, uint64_t{20});
  }

  TraceTail Tail(Path);
  uint64_t Start = nowMs();
  size_t Frame = 0;
  size_t LiveFrames = 0; // frames rendered before the terminal state
  bool Terminal = false;
  while (true) {
    Lines.clear();
    if (Tail.poll(Lines))
      for (const std::string &L : Lines)
        M.feed(L);
    Terminal = renderFrame(M, Path, StallFactor, !NoClear, Frame++);
    if (Terminal)
      break;
    if (!M.Campaigns.empty())
      ++LiveFrames;
    if (MaxWaitMs && nowMs() - Start > static_cast<uint64_t>(MaxWaitMs))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(IntervalMs));
  }

  if (Writer.joinable())
    Writer.join();
  if (Selftest) {
    // The follow loop may break on the final heartbeat before the
    // writer's trailing campaign.done hits the file; drain the rest.
    Lines.clear();
    if (Tail.poll(Lines))
      for (const std::string &L : Lines)
        M.feed(L);
    const CampaignState *S =
        M.Campaigns.count("selftest") ? &M.Campaigns.at("selftest") : nullptr;
    bool Ok = S && S->SawFinal && S->SawDone && S->Done == S->Runs &&
              LiveFrames >= 2 && S->HeartbeatsSeen >= 5;
    std::printf("selftest: %s (%zu live frames, %" PRIu64
                " heartbeats, done %" PRIu64 "/%" PRIu64 ")\n",
                Ok ? "ok" : "FAILED", LiveFrames,
                S ? S->HeartbeatsSeen : 0, S ? S->Done : 0,
                S ? S->Runs : 0);
    return Ok ? 0 : 1;
  }
  return Terminal ? 0 : 1;
}
