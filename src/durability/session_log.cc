#include "durability/session_log.h"

#include <filesystem>
#include <sstream>

#include "common/strutil.h"

namespace iflex {
namespace durability {

namespace {

constexpr std::string_view kSnapshotSite = "serve.snapshot.write";

std::string FirstToken(const std::string& command) {
  size_t begin = command.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  size_t end = command.find_first_of(" \t", begin);
  return command.substr(begin, end == std::string::npos ? std::string::npos
                                                        : end - begin);
}

bool HasSecondToken(const std::string& command) {
  std::istringstream in(command);
  std::string a, b;
  return static_cast<bool>(in >> a >> b);
}

/// Parses "<tag> v1 <key>=<n>", the self-describing first record of both
/// durable files. Strict: any deviation means the file is from a future
/// version or damaged, and recovery must not guess.
bool ParseHeader(const std::string& payload, const char* tag, const char* key,
                 uint64_t* n) {
  std::istringstream in(payload);
  std::string got_tag, got_version, kv;
  if (!(in >> got_tag >> got_version >> kv)) return false;
  if (got_tag != tag || got_version != "v1") return false;
  std::string prefix = std::string(key) + "=";
  if (kv.rfind(prefix, 0) != 0) return false;
  const std::string digits = kv.substr(prefix.size());
  if (digits.empty()) return false;
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *n = value;
  std::string rest;
  return !(in >> rest);
}

std::string JournalHeader(uint64_t base) {
  return StringPrintf("iflexjournal v1 base=%llu",
                      static_cast<unsigned long long>(base));
}

std::string SnapshotHeader(uint64_t watermark) {
  return StringPrintf("iflexsnap v1 watermark=%llu",
                      static_cast<unsigned long long>(watermark));
}

void AppendDetail(std::string* detail, const std::string& piece) {
  if (!detail->empty()) detail->append("; ");
  detail->append(piece);
}

}  // namespace

bool IsMutatingCommand(const std::string& command) {
  const std::string verb = FirstToken(command);
  return verb == "gen" || verb == "load" || verb == "declare" ||
         verb == "rule" || verb == "clear" || verb == "query" ||
         verb == "constrain";
}

Result<std::unique_ptr<SessionLog>> SessionLog::Open(
    const std::string& dir, const DurabilityOptions& options,
    RecoveryReport* report) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal(StringPrintf("create session dir %s: %s",
                                         dir.c_str(), ec.message().c_str()));
  }
  auto log = std::unique_ptr<SessionLog>(new SessionLog(dir, options));
  RecoveryReport scratch;
  RecoveryReport* rep = report != nullptr ? report : &scratch;
  *rep = RecoveryReport{};

  // Snapshot first: it defines the watermark the journal scan is judged
  // against. A snapshot is all-or-nothing (written atomically), so any
  // damage — torn tail, CRC failure, unknown header — means "no snapshot".
  JournalScan snap = ScanFile(log->SnapshotPath());
  std::vector<std::string> snap_cmds;
  uint64_t watermark = 0;
  bool snap_usable = false;
  if (!snap.missing) {
    if (snap.corrupt || snap.torn_tail || snap.records.empty() ||
        !ParseHeader(snap.records[0], "iflexsnap", "watermark", &watermark)) {
      rep->snapshot_ignored = true;
      watermark = 0;
      AppendDetail(&rep->detail,
                   "snapshot unusable (" +
                       (snap.detail.empty() ? std::string("bad header")
                                            : snap.detail) +
                       ")");
    } else {
      snap_usable = true;
      snap_cmds.assign(snap.records.begin() + 1, snap.records.end());
    }
  }

  // Journal scan. The header record pins the absolute index of the first
  // data record, so indices survive compaction.
  JournalScan jrn = ScanFile(log->JournalPath());
  std::vector<std::string> jrn_cmds;
  uint64_t base = 0;
  uint64_t valid_bytes = 0;
  bool reset_journal = false;  // wipe the file; writer re-creates the header
  if (!jrn.missing && !jrn.records.empty() &&
      ParseHeader(jrn.records[0], "iflexjournal", "base", &base)) {
    jrn_cmds.assign(jrn.records.begin() + 1, jrn.records.end());
    valid_bytes = jrn.valid_bytes;
    rep->torn_tail = jrn.torn_tail;
    rep->corrupt = jrn.corrupt;
    if (jrn.torn_tail || jrn.corrupt) {
      AppendDetail(&rep->detail, "journal " + jrn.detail);
    }
  } else if (jrn.missing) {
    base = watermark;
    reset_journal = true;
  } else {
    // Exists but record 0 is unreadable: treat the whole file as damage.
    rep->corrupt = true;
    AppendDetail(&rep->detail,
                 "journal header unusable (" +
                     (jrn.detail.empty() ? std::string("bad header")
                                         : jrn.detail) +
                     ")");
    base = watermark;
    reset_journal = true;
  }

  // With a compacted journal (base > 0) the pre-base prefix only exists
  // in the snapshot; if that was missing or unusable, or the watermark
  // somehow fell behind the base, the replayable prefix is gone. Best
  // effort: the session comes back empty rather than replaying a suffix
  // against the wrong starting state.
  if (snap.missing && base > 0) {
    AppendDetail(&rep->detail, "snapshot missing despite compacted journal");
  }
  if ((!snap_usable && base > 0) || (snap_usable && base > watermark)) {
    rep->prefix_lost = true;
    AppendDetail(&rep->detail,
                 "replay prefix lost; session reset to empty");
    snap_cmds.clear();
    jrn_cmds.clear();
    snap_usable = false;
    watermark = 0;
    base = 0;
    valid_bytes = 0;
    reset_journal = true;
  }

  // Effective history: the snapshot's compacted prefix, then every
  // journal record whose absolute index is at or past the watermark.
  // (base < watermark happens when a crash hit between snapshot write
  // and journal compaction — the overlap is skipped here.)
  log->history_ = std::move(snap_cmds);
  rep->from_snapshot = log->history_.size();
  size_t skip = watermark > base ? static_cast<size_t>(watermark - base) : 0;
  if (skip > jrn_cmds.size()) skip = jrn_cmds.size();
  for (size_t i = skip; i < jrn_cmds.size(); ++i) {
    log->history_.push_back(std::move(jrn_cmds[i]));
  }
  log->records_ = base + jrn_cmds.size();
  if (log->records_ < watermark) log->records_ = watermark;
  log->watermark_ = snap_usable ? watermark : 0;
  log->last_snapshot_commands_ = rep->from_snapshot;
  rep->commands = log->history_.size();

  JournalWriter::Options wopts;
  wopts.fsync = options.fsync;
  wopts.fsync_interval_ms = options.fsync_interval_ms;
  IFLEX_ASSIGN_OR_RETURN(
      log->journal_,
      JournalWriter::Open(log->JournalPath(), reset_journal ? 0 : valid_bytes,
                          JournalHeader(base), wopts));
  return log;
}

Status SessionLog::Append(const std::string& command) {
  if (journal_ == nullptr) {
    return Status::Internal(
        "session journal is not open (a previous compaction failed); "
        "run `persist` or restart the server");
  }
  IFLEX_RETURN_NOT_OK(journal_->Append(command));
  ++records_;
  history_.push_back(command);
  return Status::OK();
}

bool SessionLog::ShouldSnapshot() const {
  return options_.snapshot_every > 0 &&
         records_ - watermark_ >= options_.snapshot_every;
}

Status SessionLog::WriteSnapshot() {
  const uint64_t watermark = records_;
  const std::vector<std::string> compacted = Compact(history_);
  std::string snapshot;
  EncodeRecord(&snapshot, SnapshotHeader(watermark));
  for (const std::string& command : compacted) {
    EncodeRecord(&snapshot, command);
  }
  IFLEX_RETURN_NOT_OK(
      WriteFileDurably(SnapshotPath(), snapshot, kSnapshotSite));

  // The snapshot now covers every record; replace the journal with a
  // fresh one based at the new watermark. Closing the old writer first
  // also discards any torn frame a failed append left behind — this is
  // the repair path for a broken journal. A crash (or failure) between
  // the two writes is safe: recovery skips journal records below the
  // watermark, so the stale journal merely overlaps the snapshot.
  journal_.reset();
  std::string fresh;
  EncodeRecord(&fresh, JournalHeader(watermark));
  IFLEX_RETURN_NOT_OK(WriteFileDurably(JournalPath(), fresh));
  JournalWriter::Options wopts;
  wopts.fsync = options_.fsync;
  wopts.fsync_interval_ms = options_.fsync_interval_ms;
  IFLEX_ASSIGN_OR_RETURN(
      journal_, JournalWriter::Open(JournalPath(), fresh.size(),
                                    /*header=*/"", wopts));
  records_ = watermark;
  watermark_ = watermark;
  last_snapshot_commands_ = compacted.size();
  return Status::OK();
}

std::vector<std::string> SessionLog::Compact(
    const std::vector<std::string>& history) {
  // Last `clear` kills every rule/constrain before it; replay starts
  // from an empty program, so the clears themselves are dead too.
  ptrdiff_t last_clear = -1;
  for (size_t i = 0; i < history.size(); ++i) {
    if (FirstToken(history[i]) == "clear") {
      last_clear = static_cast<ptrdiff_t>(i);
    }
  }
  // `query` is last-one-wins, with one trap: `constrain` rewrites the
  // program text via Program::ToString(), baking the query predicate in
  // force at that moment into the rules. A superseded query therefore
  // still matters if a constrain ran under it, so it is kept whenever a
  // constrain appears between it and the next query. (Argument-less
  // `query` is a no-op — the extraction fails and the predicate keeps
  // its old value — and is dropped outright.)
  std::vector<bool> keep(history.size(), false);
  ptrdiff_t last_query = -1;
  ptrdiff_t open_query = -1;
  for (size_t i = 0; i < history.size(); ++i) {
    const std::string verb = FirstToken(history[i]);
    if (verb == "query" && HasSecondToken(history[i])) {
      last_query = static_cast<ptrdiff_t>(i);
      open_query = last_query;
    } else if (verb == "constrain" && open_query >= 0) {
      keep[open_query] = true;
    }
  }
  if (last_query >= 0) keep[last_query] = true;

  std::vector<std::string> out;
  out.reserve(history.size());
  for (size_t i = 0; i < history.size(); ++i) {
    const std::string verb = FirstToken(history[i]);
    if (verb == "gen" || verb == "load" || verb == "declare") {
      // Corpus/catalog mutations survive `clear` and are not idempotent
      // (a failed re-`gen` still grows the corpus): keep all, in order.
      out.push_back(history[i]);
    } else if (verb == "rule" || verb == "constrain") {
      if (static_cast<ptrdiff_t>(i) > last_clear) out.push_back(history[i]);
    } else if (verb == "query") {
      if (keep[i]) out.push_back(history[i]);
    } else if (verb == "clear") {
      // dropped
    } else {
      // Non-mutating verbs should never be journaled; if one slips in,
      // keeping it is the safe choice (replay is a no-op or the same
      // deterministic error).
      out.push_back(history[i]);
    }
  }
  return out;
}

}  // namespace durability
}  // namespace iflex
