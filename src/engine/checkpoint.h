#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/learner.h"
#include "util/status.h"

namespace wmsketch {

/// Crash-safe checkpoint directory manager.
///
/// Each checkpoint is one enveloped learner snapshot (SaveLearner wire
/// format: checksummed "WMS3" envelope around the "WLF1" facade payload)
/// written as `ckpt-<seq>.wms` with a strictly increasing sequence number.
/// Durability protocol per checkpoint:
///
///   1. serialize to `ckpt-<seq>.wms.tmp`
///   2. fsync the temp file
///   3. rename(2) it to `ckpt-<seq>.wms`
///   4. fsync the directory
///
/// A crash at any point leaves either the previous checkpoint set intact
/// (steps 1–3) or the new checkpoint fully visible (after 3); rename is the
/// atomic commit point. `RecoverLatest` never trusts a name alone: it
/// deserializes newest-first and skips files whose envelope fails CRC or
/// truncation checks, so a torn write (possible only if the platform lies
/// about fsync) degrades to "restore the previous checkpoint", never to a
/// crash or a half-restored model.
///
/// Failpoints (see util/failpoint.h): "checkpoint:mid_payload",
/// "checkpoint:fsync", "checkpoint:before_rename", "checkpoint:after_rename",
/// "recover:read_error".
class Checkpointer {
 public:
  /// Opens (creating if needed) `dir` as a checkpoint directory. Scans
  /// existing checkpoints to resume the sequence counter and removes stale
  /// `.tmp` files left by a previous crash. `keep_last` >= 1 bounds how many
  /// committed checkpoints are retained.
  static Result<Checkpointer> Open(const std::string& dir, size_t keep_last = 3);

  /// Serializes `learner` and commits it as the next checkpoint, then prunes
  /// checkpoints beyond `keep_last`. Returns the first error encountered;
  /// on error the previous checkpoint set is untouched.
  Status Write(const Learner& learner);

  /// Like Write but for a bare classifier (the sharded merge path, which has
  /// no Learner facade). Byte-identical to Write of a Learner holding `impl`.
  Status WriteClassifier(Method method, const BudgetedClassifier& impl);

  /// Restores the newest checkpoint that deserializes cleanly. Corrupt or
  /// torn files are skipped (and reported in `skipped` if non-null). Returns
  /// NotFound if the directory holds no valid checkpoint.
  Result<Learner> RecoverLatest(const LearnerOptions& opts,
                                std::vector<std::string>* skipped = nullptr) const;

  /// Same, but returns NotFound instead of scanning when the directory has
  /// never been opened. Convenience for the resume-from-checkpoint flag.
  static Result<Learner> RecoverFrom(const std::string& dir, const LearnerOptions& opts,
                                     std::vector<std::string>* skipped = nullptr);

  /// Directory this checkpointer commits into.
  const std::string& dir() const { return dir_; }

  /// Sequence number of the most recently committed checkpoint (0 = none).
  uint64_t last_sequence() const { return next_seq_ == 0 ? 0 : next_seq_ - 1; }

 private:
  Checkpointer(std::string dir, size_t keep_last, uint64_t next_seq)
      : dir_(std::move(dir)), keep_last_(keep_last), next_seq_(next_seq) {}

  Status CommitBytes(const std::string& bytes);
  void Prune() const;

  std::string dir_;
  size_t keep_last_;
  uint64_t next_seq_;
};

}  // namespace wmsketch
