#include "core/spate_framework.h"

#include <algorithm>
#include <map>
#include <memory>
#include <unordered_set>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/stopwatch.h"
#include "compress/columnar.h"
#include "core/columnar_leaf.h"
#include "index/leaf_spatial.h"
#include "telco/schema.h"

namespace spate {
namespace {

/// Failures that degraded-read mode absorbs: the data is gone or currently
/// unreachable, but the in-memory summaries still answer for it. Anything
/// else (logic errors, bad arguments) stays fatal.
bool DegradableFailure(const Status& status) {
  return status.IsUnavailable() || status.IsCorruption() ||
         status.IsNotFound();
}

/// Leaves a scan needs before its decode fans out on the pool: on fewer,
/// the fan-out overhead beats the win.
constexpr size_t kMinParallelLeaves = 4;

/// True when the leaf can hold rows of at least one wanted cell. The leaf
/// summary carries a per-cell entry for every cell id appearing in the
/// leaf's rows, so a negative answer is exact — skipping the leaf loses
/// nothing. Decayed leaves report true: they must still reach the fold so
/// the scan degrades instead of silently claiming completeness.
bool LeafIntersectsCells(const LeafNode& leaf,
                         const std::unordered_set<std::string>& wanted) {
  if (leaf.decayed) return true;
  for (const auto& [cell_id, stats] : leaf.summary.per_cell()) {
    (void)stats;
    if (wanted.count(cell_id) != 0) return true;
  }
  return false;
}

/// Appends the rows at `positions` (ascending), projected: the sidecar
/// counterpart of `RestrictSnapshot`'s row-by-row cell filter, so both
/// keep the same rows in the same order.
Status TakeRows(const std::vector<Record>& rows,
                const std::vector<uint32_t>& positions,
                const TableProjection& projection, std::vector<Record>* out) {
  if (projection.skip) return Status::OK();
  out->reserve(positions.size());
  for (uint32_t position : positions) {
    if (position >= rows.size()) {
      return Status::Corruption("leaf spatial sidecar names row " +
                                std::to_string(position) + " of a " +
                                std::to_string(rows.size()) + "-row table");
    }
    out->push_back(ProjectRecord(rows[position], projection));
  }
  return Status::OK();
}

}  // namespace

SpateFramework::SpateFramework(SpateOptions options,
                               const std::vector<Record>& cell_rows)
    : SpateFramework(options,
                     std::make_shared<DistributedFileSystem>(options.dfs),
                     cell_rows, /*write_meta=*/true) {}

SpateFramework::SpateFramework(SpateOptions options,
                               std::shared_ptr<DistributedFileSystem> dfs,
                               const std::vector<Record>& cell_rows,
                               bool write_meta)
    : options_(std::move(options)),
      codec_(CodecRegistry::Get(options_.codec)),
      dfs_(std::move(dfs)),
      cells_(cell_rows),
      cell_rows_(cell_rows) {
  if (codec_ == nullptr) codec_ = CodecRegistry::Get("deflate");
  if (options_.parallelism.worker_count > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.parallelism.worker_count));
  }
  if (options_.fragment_cache_bytes > 0) {
    // A recovered framework starts with a fresh (empty, generation-0)
    // cache — "invalidate on Recover" for free, since both construction
    // paths come through here.
    fragment_cache_ =
        std::make_unique<FragmentCache>(options_.fragment_cache_bytes);
  }
  if (options_.differential) {
    // Deltas must never outlive the chain they decode against: decay only
    // at keyframe-group boundaries.
    options_.decay.horizon_alignment_seconds =
        std::max(1, options_.keyframe_interval) * kEpochSeconds;
  }
  if (write_meta) {
    // Persist the static cell inventory alongside the data.
    std::string cell_text = SerializeCells(cell_rows);
    std::string compressed;
    if (codec_->Compress(cell_text, &compressed).ok()) {
      // Best-effort: queries fall back to re-deriving cells from leaves.
      (void)dfs_->WriteFile("/spate/meta/cells", compressed);
    }
  }
}

std::string SpateFramework::LeafPath(Timestamp epoch_start) {
  const std::string key = FormatCompact(epoch_start);
  // /spate/data/YYYY/MM/DD/YYYYMMDDhhmm
  return "/spate/data/" + key.substr(0, 4) + "/" + key.substr(4, 2) + "/" +
         key.substr(6, 2) + "/" + key;
}

std::string SpateFramework::SidecarPath(Timestamp epoch_start) {
  return "/spate/spidx/" + FormatCompact(epoch_start);
}

Result<std::unique_ptr<SpateFramework>> SpateFramework::Recover(
    SpateOptions options, std::shared_ptr<DistributedFileSystem> dfs) {
  if (dfs == nullptr) {
    return Status::InvalidArgument("recover: null dfs");
  }
  // 1. Cell inventory from /spate/meta/cells (codec taken from the blob's
  // envelope, in case the restart changed the configured codec).
  SPATE_ASSIGN_OR_RETURN(std::string cells_blob,
                         dfs->ReadFile("/spate/meta/cells"));
  if (cells_blob.empty()) {
    return Status::Corruption("recover: empty cell inventory");
  }
  const Codec* meta_codec =
      CodecRegistry::GetById(static_cast<uint8_t>(cells_blob[0]));
  if (meta_codec == nullptr) {
    return Status::Corruption("recover: unknown cell inventory codec");
  }
  std::string cells_text;
  SPATE_RETURN_IF_ERROR(meta_codec->Decompress(cells_blob, &cells_text));
  std::vector<Record> cell_rows;
  SPATE_RETURN_IF_ERROR(ParseCells(cells_text, &cell_rows));

  std::unique_ptr<SpateFramework> framework(new SpateFramework(
      std::move(options), std::move(dfs), cell_rows, /*write_meta=*/false));

  const bool tolerate = framework->options_.degraded_reads;
  RecoveryReport& report = framework->recovery_report_;

  // 2. Persisted day summaries (cover fully-decayed days). An unreadable
  // summary blob is dropped in degraded mode: the month/year roll-ups that
  // the resident leaves rebuild are the best remaining answer.
  std::map<Timestamp, NodeSummary> day_summaries;
  for (const std::string& path :
       framework->dfs_->ListFiles("/spate/index/day/")) {
    const Timestamp day = ParseCompact(path.substr(path.rfind('/') + 1));
    if (day < 0) continue;
    auto blob = framework->dfs_->ReadFile(path);
    Status status = blob.status();
    std::string serialized;
    NodeSummary summary;
    if (status.ok()) status = ChunkedDecompress(*blob, nullptr, &serialized);
    if (status.ok()) status = NodeSummary::Parse(serialized, &summary);
    // Injection lands on the per-summary status so degraded mode can absorb
    // it (skip + count) exactly like a real unreadable blob.
    SPATE_FAILPOINT_INJECT("index.load.day_summary", status);
    if (!status.ok()) {
      if (tolerate && DegradableFailure(status)) {
        ++report.day_summaries_skipped;
        continue;
      }
      return status;
    }
    ++report.day_summaries_recovered;
    day_summaries.emplace(day, std::move(summary));
  }

  // 3. Resident leaves, in time order (paths sort chronologically). Delta
  // blobs (".d" suffix) replay against the previous epoch's text. In
  // degraded mode a leaf whose blob cannot be read — or a delta stranded
  // because its chain lost an earlier link — becomes a decayed placeholder
  // so that queries over its window degrade to summaries instead of
  // silently claiming exactness.
  const std::vector<std::string> leaf_paths =
      framework->dfs_->ListFiles("/spate/data/");
  std::string prev_text;
  Timestamp prev_epoch = -1;
  for (const std::string& path : leaf_paths) {
    std::string name = path.substr(path.rfind('/') + 1);
    const bool delta = name.size() > 2 && name.ends_with(".d");
    if (delta) name.resize(name.size() - 2);
    const Timestamp epoch = ParseCompact(name);
    if (epoch < 0) {
      return Status::Corruption("recover: unparsable leaf path " + path);
    }

    // Sealed (fully decayed) days strictly before this leaf go in first.
    while (!day_summaries.empty() &&
           day_summaries.begin()->first + 86400 <= epoch) {
      auto it = day_summaries.begin();
      if (it->first > framework->index_.newest_epoch()) {
        SPATE_RETURN_IF_ERROR(
            framework->index_.AddSealedDay(it->first, std::move(it->second)));
      }
      day_summaries.erase(it);
    }

    Status status;
    std::string text;
    std::string blob;
    Snapshot snapshot;
    bool have_snapshot = false;
    auto blob_read = framework->dfs_->ReadFile(path);
    if (!blob_read.ok()) {
      status = blob_read.status();
    } else {
      blob = std::move(*blob_read);
      if (delta) {
        if (prev_epoch != epoch - kEpochSeconds) {
          status = Status::Corruption("recover: delta chain broken at " + path);
        } else {
          status = framework->codec_->DecompressWithDictionary(prev_text, blob,
                                                               &text);
        }
      } else if (IsColumnarBlob(blob)) {
        // Columnar leaf: reassemble the full snapshot, then re-serialize it
        // so a delta following it in a mixed store still finds chain text.
        const TableProjection all;
        status = DecodeColumnarLeaf(blob, all, all, /*wanted_cells=*/nullptr,
                                    &snapshot, /*tally=*/nullptr);
        if (status.ok()) {
          have_snapshot = true;
          text = SerializeSnapshot(snapshot);
        }
      } else {
        // Plain (possibly chunked) leaf blob; recovery itself walks the
        // leaves serially, but chunk parts of one blob may fan out.
        status = ChunkedDecompress(blob, framework->pool_.get(), &text);
      }
    }
    if (status.ok() && !have_snapshot) status = ParseSnapshot(text, &snapshot);
    // Injection lands on the per-leaf status: degraded mode turns it into a
    // decayed placeholder (and breaks the delta chain), strict mode aborts.
    SPATE_FAILPOINT_INJECT("index.load.leaf", status);

    if (!status.ok()) {
      if (!tolerate || !DegradableFailure(status)) return status;
      // Placeholder: the epoch existed but its raw data is lost. It enters
      // the index already decayed (summary-only windows), and it breaks the
      // delta chain so stranded successors are skipped too.
      LeafNode lost;
      lost.epoch_start = epoch;
      lost.dfs_path = path;
      lost.decayed = true;
      lost.delta = delta;
      SPATE_RETURN_IF_ERROR(framework->index_.AddLeaf(std::move(lost)));
      framework->last_day_persisted_ = TruncateToDay(epoch);
      ++report.leaves_skipped;
      report.skipped_epochs.push_back(epoch);
      prev_text.clear();
      prev_epoch = -1;
      continue;
    }

    LeafNode leaf;
    leaf.epoch_start = epoch;
    leaf.dfs_path = path;
    leaf.stored_bytes = blob.size();
    leaf.delta = delta;
    leaf.summary.AddSnapshot(snapshot);
    // Rebuild the planner's decode-cost statistics from the decoded
    // snapshot; the sizes equal what the original ingest recorded.
    if (have_snapshot) {
      ComputeColumnarLeafStats(snapshot, &leaf.decode_stats);
    } else {
      leaf.decode_stats.raw_bytes = text.size();
    }
    SPATE_RETURN_IF_ERROR(framework->index_.AddLeaf(std::move(leaf)));
    framework->last_day_persisted_ = TruncateToDay(epoch);
    ++report.leaves_recovered;
    prev_text = std::move(text);
    prev_epoch = epoch;
    if (framework->options_.differential) {
      framework->last_ingest_text_ = prev_text;
      framework->last_ingest_epoch_ = epoch;
    }
  }
  // Any remaining sealed days newer than every resident leaf.
  for (auto& [day, summary] : day_summaries) {
    if (day > framework->index_.newest_epoch()) {
      SPATE_RETURN_IF_ERROR(
          framework->index_.AddSealedDay(day, std::move(summary)));
    }
  }
  return framework;
}

bool SpateFramework::IsKeyframe(Timestamp epoch_start) const {
  const int64_t interval = std::max(1, options_.keyframe_interval);
  return (epoch_start / kEpochSeconds) % interval == 0;
}

Status SpateFramework::Ingest(const Snapshot& snapshot) {
  // Snapshot admission: an injected failure here models the pipeline
  // rejecting the epoch before any compression or storage work.
  SPATE_FAILPOINT("core.ingest");
  last_ingest_ = IngestStats();

  // Storage layer: serialize + lossless compression (CPU). In differential
  // mode, non-keyframe snapshots compress against the previous epoch's
  // text; a gap in the stream forces a keyframe (the chain must be
  // contiguous).
  Stopwatch compress_timer;
  const bool columnar = options_.leaf_layout == LeafLayout::kColumnar;
  std::string compressed;
  bool delta = false;
  std::string text;
  LeafDecodeStats decode_stats;
  if (columnar) {
    // Columnar layout: shred the snapshot into per-attribute chunks (each
    // compressed independently, in parallel on the pool when one exists —
    // the stored bytes never depend on the worker count). Columnar leaves
    // are always full keyframes; differential deltas apply only to row text.
    SPATE_RETURN_IF_ERROR(EncodeColumnarLeaf(*codec_, snapshot, pool_.get(),
                                             &compressed, &decode_stats));
  } else {
    text = SerializeSnapshot(snapshot);
    decode_stats.raw_bytes = text.size();
    const bool try_delta = options_.differential &&
                           codec_->SupportsDictionary() &&
                           !IsKeyframe(snapshot.epoch_start) &&
                           last_ingest_epoch_ ==
                               snapshot.epoch_start - kEpochSeconds;
    // Ingest fan-out: the snapshot text is partitioned into independent
    // compression jobs (content-driven, so the stored bytes do not depend on
    // the worker count) and compressed on the shared pool when one exists.
    SPATE_RETURN_IF_ERROR(
        ChunkedCompress(*codec_, text, options_.parallelism.ingest_chunk_bytes,
                        pool_.get(), &compressed));
    if (try_delta) {
      // Deltas only pay off when cross-snapshot redundancy beats the
      // within-snapshot redundancy the plain codec already captures; keep
      // whichever encoding is smaller (the leaf records which one won).
      std::string delta_blob;
      SPATE_RETURN_IF_ERROR(
          codec_->CompressWithDictionary(last_ingest_text_, text, &delta_blob));
      if (delta_blob.size() < compressed.size()) {
        compressed = std::move(delta_blob);
        delta = true;
      }
    }
  }
  last_ingest_.compress_seconds = compress_timer.ElapsedSeconds();

  // Replicated store (simulated disk time). Delta blobs get a ".d" path
  // suffix so recovery can tell the encodings apart.
  const double io_before = dfs_->stats().simulated_write_seconds;
  const std::string path =
      LeafPath(snapshot.epoch_start) + (delta ? ".d" : "");
  SPATE_RETURN_IF_ERROR(dfs_->WriteFile(path, compressed));
  // Optional per-leaf spatial sidecar, for row leaves only: columnar
  // leaves embed the same index as their "@spidx" chunk.
  const bool sidecar = options_.leaf_spatial_index && !columnar;
  if (sidecar) {
    std::string blob;
    SPATE_RETURN_IF_ERROR(codec_->Compress(
        LeafSpatialIndex::Build(snapshot).Serialize(), &blob));
    SPATE_RETURN_IF_ERROR(
        dfs_->WriteFile(SidecarPath(snapshot.epoch_start), blob));
  }
  last_ingest_.store_seconds =
      dfs_->stats().simulated_write_seconds - io_before;
  last_ingest_.stored_bytes = compressed.size();

  // Indexing layer: incremence + highlights (CPU).
  Stopwatch index_timer;
  LeafNode leaf;
  leaf.epoch_start = snapshot.epoch_start;
  leaf.dfs_path = path;
  leaf.stored_bytes = compressed.size();
  leaf.delta = delta;
  leaf.summary.AddSnapshot(snapshot);
  leaf.decode_stats = std::move(decode_stats);

  // Day rollover: persist the completed day's summary (the index bytes S_i).
  const Timestamp day = TruncateToDay(snapshot.epoch_start);
  if (last_day_persisted_ >= 0 && day != last_day_persisted_) {
    const CoveringNode covering =
        index_.FindCovering(last_day_persisted_, last_day_persisted_ + 86400);
    if (covering.level == IndexLevel::kDay && covering.summary != nullptr) {
      const std::string key = FormatCompact(last_day_persisted_);
      // Index blobs go through the storage codec too (they are part of the
      // S_i share of S' and the paper minimizes the total).
      std::string blob;
      if (codec_->Compress(covering.summary->Serialize(), &blob).ok()) {
        // Best-effort: a missing persisted summary is rebuilt on recovery.
        (void)dfs_->WriteFile("/spate/index/day/" + key.substr(0, 8), blob);
      }
    }
  }
  last_day_persisted_ = day;

  Status add = index_.AddLeaf(std::move(leaf));
  last_ingest_.index_seconds = index_timer.ElapsedSeconds();
  if (!add.ok()) {
    // Error-path consistency (surfaced by the failpoint walker): the blob
    // was already stored, but the index refused the leaf — without cleanup
    // it would be an orphan no query, decay or fsck ever reclaims. Deletion
    // is best-effort: a failed delete leaves a harmless orphan, never an
    // index entry without bytes.
    (void)dfs_->DeleteFile(path);
    if (sidecar) (void)dfs_->DeleteFile(SidecarPath(snapshot.epoch_start));
    return add;
  }

  if (options_.differential) {
    if (columnar) {
      // A columnar leaf never serves as a delta dictionary: drop the chain
      // state so the next row-layout epoch starts a fresh keyframe.
      last_ingest_text_.clear();
      last_ingest_epoch_ = -1;
    } else {
      last_ingest_text_ = text;
      last_ingest_epoch_ = snapshot.epoch_start;
    }
  }
  // The store changed: advance the fragment-cache generation so no scan
  // serves bytes of the pre-ingest store state.
  if (fragment_cache_ != nullptr) fragment_cache_->BumpGeneration();
  if (options_.auto_decay) RunDecay(snapshot.epoch_start + kEpochSeconds);
  return Status::OK();
}

Result<std::string> SpateFramework::MaterializeLeafWith(
    const LeafNode& leaf, DecodeContext* ctx,
    std::string* columnar_blob) const {
  if (leaf.decayed) {
    return Status::NotFound("leaf decayed: " + leaf.dfs_path);
  }
  if (ctx->cache_epoch == leaf.epoch_start) {
    return ctx->cache_text;
  }
  // Fragment cache: a row leaf's whole materialized text lives under the
  // "@row" pseudo-chunk (delta leaves cache their *resolved* text, so a
  // hit skips the entire chain replay). A hit skips the DFS read too and
  // charges no decoded bytes. Columnar leaves cache per chunk instead —
  // their "@row" probe always misses.
  if (ctx->fragment_cache != nullptr) {
    std::string cached;
    if (ctx->fragment_cache->Lookup(leaf.epoch_start, kRowFragmentName,
                                    ctx->fragment_generation, &cached)) {
      ++ctx->tally.fragment_hits;
      ctx->tally.bytes_decoded_saved += cached.size();
      if (options_.differential || leaf.delta) {
        ctx->cache_epoch = leaf.epoch_start;
        ctx->cache_text = cached;
      }
      return cached;
    }
  }
  SPATE_ASSIGN_OR_RETURN(std::string blob, dfs_->ReadFile(leaf.dfs_path));
  std::string text;
  if (columnar_blob != nullptr && !leaf.delta && IsColumnarBlob(blob)) {
    *columnar_blob = std::move(blob);  // the caller decodes it projected
    return text;
  }
  if (!leaf.delta && IsColumnarBlob(blob)) {
    // The columnar predecessor of a delta (mixed store): reassemble every
    // column and re-serialize to the row text the delta decodes against.
    Snapshot decoded;
    const TableProjection all;
    const FragmentCacheScope fragments{ctx->fragment_cache, leaf.epoch_start,
                                       ctx->fragment_generation};
    SPATE_RETURN_IF_ERROR(DecodeColumnarLeaf(blob, all, all,
                                             /*wanted_cells=*/nullptr,
                                             &decoded, &ctx->tally,
                                             &fragments));
    text = SerializeSnapshot(decoded);
  } else if (!leaf.delta) {
    // Plain (possibly chunked) blob; chunk parts may decode on the pool,
    // unless this context belongs to a scan worker that is itself one arm
    // of a fan-out (then decode_pool is null — no nested fan-out).
    SPATE_RETURN_IF_ERROR(ChunkedDecompress(blob, ctx->decode_pool, &text));
    ctx->tally.bytes_decoded += text.size();
  } else {
    // Resolve the chain: the delta decodes against the previous epoch's
    // text (cached when scanning sequentially; otherwise at most
    // keyframe_interval - 1 recursive steps back to the keyframe).
    const Timestamp prev_epoch = leaf.epoch_start - kEpochSeconds;
    const LeafNode* prev = index_.FindLeaf(prev_epoch);
    if (prev == nullptr) {
      return Status::Corruption("delta leaf without predecessor: " +
                                leaf.dfs_path);
    }
    SPATE_ASSIGN_OR_RETURN(std::string prev_text,
                           MaterializeLeafWith(*prev, ctx));
    SPATE_RETURN_IF_ERROR(
        codec_->DecompressWithDictionary(prev_text, blob, &text));
    ctx->tally.bytes_decoded += text.size();
  }
  // Admit the materialized row text (not the columnar re-serialization —
  // columnar leaves already cached per chunk above, and caching both would
  // spend the budget twice on the same leaf).
  if (ctx->fragment_cache != nullptr &&
      (leaf.delta || !IsColumnarBlob(blob))) {
    ctx->fragment_cache->Insert(leaf.epoch_start, kRowFragmentName,
                                ctx->fragment_generation, text);
  }
  // The one-entry cache exists to resolve delta chains against the
  // previous epoch in O(1); outside differential mode (and off any delta
  // chain — a recovered store can hold deltas the options no longer
  // advertise) it would only buy a full text copy per leaf.
  if (options_.differential || leaf.delta) {
    ctx->cache_epoch = leaf.epoch_start;
    ctx->cache_text = text;
  }
  return text;
}

Status SpateFramework::DecodeLeafWith(const LeafNode& leaf,
                                      const LeafScanOptions& opts,
                                      DecodeContext* ctx,
                                      Snapshot* snapshot) const {
  // A columnar keyframe comes back as its blob, undecoded, unless it is
  // already resident as row text in the one-entry cache.
  std::string columnar_blob;
  SPATE_ASSIGN_OR_RETURN(std::string text,
                         MaterializeLeafWith(leaf, ctx, &columnar_blob));
  if (!columnar_blob.empty()) {
    // The pushdown proper: decode only the column chunks the projections
    // call for, and with a cell restriction only the matching rows. The
    // fragment scope serves/admits individual chunk plaintexts.
    const FragmentCacheScope fragments{ctx->fragment_cache, leaf.epoch_start,
                                       ctx->fragment_generation};
    SPATE_RETURN_IF_ERROR(DecodeColumnarLeaf(columnar_blob, opts.cdr,
                                             opts.nms, opts.wanted_cells,
                                             snapshot, &ctx->tally,
                                             &fragments));
    if (options_.differential && !opts.restricted()) {
      // Chain state: a delta written after this leaf (a store recovered
      // and continued in row mode) resolves against its text.
      ctx->cache_epoch = leaf.epoch_start;
      ctx->cache_text = SerializeSnapshot(*snapshot);
    }
    return Status::OK();
  }
  if (!opts.restricted()) return ParseSnapshot(text, snapshot);
  // Full row text (row and delta leaves, cache hits): restrict in memory
  // to the reference semantics the columnar reader is byte-identical to.
  Snapshot full;
  SPATE_RETURN_IF_ERROR(ParseSnapshot(text, &full));
  if (opts.wanted_cells == nullptr || !options_.leaf_spatial_index ||
      leaf.decode_stats.columnar) {
    *snapshot = RestrictSnapshot(full, opts.cdr, opts.nms, opts.wanted_cells);
    return Status::OK();
  }
  // Row-store sidecar: the leaf's spatial index lists the wanted cells'
  // rows, so the restriction keeps them without testing each row's cell
  // id. The sidecar's bytes stay out of the decode tally: the planner
  // prices a row leaf at its text alone.
  SPATE_ASSIGN_OR_RETURN(std::string blob,
                         dfs_->ReadFile(SidecarPath(leaf.epoch_start)));
  std::string serialized;
  SPATE_RETURN_IF_ERROR(ChunkedDecompress(blob, nullptr, &serialized));
  LeafSpatialIndex sidecar;
  SPATE_RETURN_IF_ERROR(LeafSpatialIndex::Parse(serialized, &sidecar));
  snapshot->epoch_start = full.epoch_start;
  SPATE_RETURN_IF_ERROR(TakeRows(
      full.cdr, SelectedPositions(sidecar, /*cdr_table=*/true,
                                  *opts.wanted_cells),
      opts.cdr, &snapshot->cdr));
  return TakeRows(
      full.nms, SelectedPositions(sidecar, /*cdr_table=*/false,
                                  *opts.wanted_cells),
      opts.nms, &snapshot->nms);
}

size_t SpateFramework::RunDecay(Timestamp now) {
  return RunDecay(options_.decay, now);
}

size_t SpateFramework::RunDecay(const DecayPolicy& policy, Timestamp now) {
  DecayPolicy effective = policy;
  // Never break delta chains, whatever policy the operator hands in.
  effective.horizon_alignment_seconds = std::max(
      effective.horizon_alignment_seconds,
      options_.decay.horizon_alignment_seconds);
  const size_t evicted = index_.Decay(
      effective, now,
      [this](const LeafNode& leaf) {
        // Decay deletions are idempotent; an already-absent file is fine.
        (void)dfs_->DeleteFile(leaf.dfs_path);
        if (options_.leaf_spatial_index && !leaf.decode_stats.columnar) {
          (void)dfs_->DeleteFile(SidecarPath(leaf.epoch_start));
        }
      },
      [this](const DayNode& day) {
        // Second decay stage: the persisted day summary goes too.
        (void)dfs_->DeleteFile("/spate/index/day/" +
                               FormatCompact(day.day_start).substr(0, 8));
      });
  // Evictions changed what the store can decode: invalidate by generation
  // (a no-op decay leaves the cache and its generation alone).
  if (evicted > 0 && fragment_cache_ != nullptr) {
    fragment_cache_->BumpGeneration();
  }
  return evicted;
}

double SpateFramework::ThetaFor(IndexLevel level) const {
  switch (level) {
    case IndexLevel::kEpoch:
    case IndexLevel::kDay:
      return options_.theta_day;
    case IndexLevel::kMonth:
      return options_.theta_month;
    case IndexLevel::kYear:
    case IndexLevel::kRoot:
      return options_.theta_year;
  }
  return options_.theta_day;
}

Result<QueryResult> SpateFramework::Execute(const ExplorationQuery& query) {
  ScanContext ctx;
  Result<QueryResult> result = Execute(query, &ctx);
  last_scan_ = std::move(ctx.stats);
  return result;
}

Result<QueryResult> SpateFramework::Execute(const ExplorationQuery& query,
                                            ScanContext* ctx) {
  if (query.window_begin >= query.window_end) {
    return Status::InvalidArgument("query window is empty");
  }
  // A request that arrives already expired must not touch storage at all.
  if (ctx->cancel != nullptr) SPATE_RETURN_IF_ERROR(ctx->cancel->Check());
  if (!index_.WindowFullyResolved(query.window_begin, query.window_end)) {
    // Decayed window: serve from the smallest covering node's highlights.
    return AssembleAnswer(query, /*scanned=*/false, {}, {});
  }
  // Exact path: the projected scan decodes only what the query needs
  // (column chunks, spatial index rows) and skips box-disjoint leaves; the
  // streamed snapshots are already restricted, and FilterSnapshotRows
  // composes with that restriction to the same bytes a full decode gives.
  QueryResult rows;
  SPATE_RETURN_IF_ERROR(ScanWindowProjected(
      query,
      [&](const Snapshot& snapshot) {
        FilterSnapshotRows(snapshot, query, cells_, &rows.cdr_rows,
                           &rows.nms_rows);
      },
      ctx));
  return AssembleAnswer(query, /*scanned=*/true, std::move(rows),
                        ctx->stats.skipped_epochs);
}

QueryResult SpateFramework::AssembleAnswer(
    const ExplorationQuery& query, bool scanned, QueryResult rows,
    std::vector<Timestamp> skipped) const {
  if (scanned && skipped.empty()) {
    rows.exact = true;
    rows.served_from = IndexLevel::kEpoch;
    rows.summary = RestrictSummaryToBox(
        index_.SummarizeWindow(query.window_begin, query.window_end), query,
        cells_);
    rows.highlights =
        rows.summary.ExtractHighlights(ThetaFor(IndexLevel::kDay));
    return rows;
  }
  // Decayed, or storage faults hid at least one leaf (every replica
  // unreadable): drop the partial rows and serve the smallest covering
  // node's highlights, exactly as if those leaves had decayed.
  QueryResult result;
  result.degraded = !skipped.empty();
  result.skipped_epochs = std::move(skipped);
  const CoveringNode covering =
      index_.FindCovering(query.window_begin, query.window_end);
  result.exact = false;
  result.served_from = covering.level;
  result.summary = RestrictSummaryToBox(*covering.summary, query, cells_);
  result.highlights =
      result.summary.ExtractHighlights(ThetaFor(covering.level));
  return result;
}

Status SpateFramework::ScanLeaves(
    std::vector<const LeafNode*> scan_leaves,
    const LeafScanOptions& opts,
    const std::function<Status(const LeafNode&, const Snapshot&)>& fn,
    ScanContext* ctx) {
  ScanStats& stats = ctx->stats;
  const CancelToken* cancel = ctx->cancel;
  // Spatial leaf skipping: drop leaves whose summary proves them disjoint
  // from the wanted cells before any DFS read or decompression. The filter
  // runs up front on the calling thread, so the surviving scan — batching,
  // fold order, stats — is identical at every worker count.
  if (opts.wanted_cells != nullptr) {
    stats.leaves_skipped_spatial +=
        std::erase_if(scan_leaves, [&](const LeafNode* leaf) {
          return !LeafIntersectsCells(*leaf, *opts.wanted_cells);
        });
  }
  // Folds one leaf's outcome into the scan, in timestamp order, on the
  // calling thread. A degradable failure — every replica of the leaf (or of
  // its delta chain, or of its sidecar) unreadable — skips the epoch and
  // records it instead of failing the whole scan.
#ifndef NDEBUG
  // Fold-order hook: the fold must visit leaves in strictly increasing
  // epoch order regardless of how the decode fan-out scheduled them — the
  // stats and every caller depend on it.
  Timestamp debug_last_folded = -1;
#endif
  auto fold = [&](const LeafNode& leaf, Status status,
                  const Snapshot& snapshot) -> Status {
#ifndef NDEBUG
    SPATE_DCHECK_GT(leaf.epoch_start, debug_last_folded);
    debug_last_folded = leaf.epoch_start;
#endif
    if (status.ok()) status = fn(leaf, snapshot);
    if (!status.ok()) {
      if (options_.degraded_reads && DegradableFailure(status)) {
        stats.skipped_epochs.push_back(leaf.epoch_start);
        return Status::OK();
      }
      return status;
    }
    ++stats.leaves_scanned;
    return Status::OK();
  };

  // Leaves decode in batches, then fold serially in timestamp order. A
  // short window (or no pool) decodes batches of one inline on `serial`,
  // whose chunked blobs may still fan out on the pool. Otherwise the pool
  // decodes bounded batches (capping simultaneously materialized
  // snapshots) with one context per worker range, so delta chains still
  // resolve against the worker's previous leaf and no fan-out nests. Stats
  // are only touched in the serial fold — no hot-path atomics, and the
  // fold order (hence `stats`) is the same at every worker count.
  // The store generation is captured once per scan: no mutator can run
  // during a scan (externally synchronized surface), so every probe of this
  // scan keys against one consistent store state.
  DecodeContext serial;
  serial.fragment_cache = fragment_cache_.get();
  serial.fragment_generation =
      fragment_cache_ != nullptr ? fragment_cache_->generation() : 0;
  const bool parallel =
      pool_ != nullptr && scan_leaves.size() >= kMinParallelLeaves;
  if (!parallel) serial.decode_pool = pool_.get();
  const size_t batch =
      parallel ? static_cast<size_t>(options_.parallelism.worker_count) * 4
               : 1;
  struct Slot {
    Status status;
    Snapshot snapshot;
    DecodeTally tally;
  };
  for (size_t base = 0; base < scan_leaves.size(); base += batch) {
    const size_t count = std::min(batch, scan_leaves.size() - base);
    std::vector<Slot> slots(count);
    auto decode = [&](size_t begin, size_t end, DecodeContext* dctx) {
      for (size_t i = begin; i < end; ++i) {
        if (cancel != nullptr) {
          slots[i].status = cancel->Check();
          if (!slots[i].status.ok()) continue;  // skip decode, fold aborts
        }
        dctx->tally = {};
        slots[i].status = DecodeLeafWith(*scan_leaves[base + i], opts, dctx,
                                         &slots[i].snapshot);
        slots[i].tally = dctx->tally;
      }
    };
    if (parallel) {
      pool_->ParallelFor(count, [&](size_t begin, size_t end) {
        DecodeContext worker = serial;  // unused when parallel: no pool
        decode(begin, end, &worker);
      });
    } else {
      decode(0, count, &serial);
    }
    for (size_t i = 0; i < count; ++i) {
      // Cancellation check before every fold, on the calling thread: a
      // token cancelled mid-batch (by `fn` itself, or by a scheduler
      // abandoning its pass) stops the scan before another leaf reaches
      // `fn`. kDeadlineExceeded is not a degradable failure, so the scan
      // aborts instead of marking the rest skipped.
      if (cancel != nullptr) SPATE_RETURN_IF_ERROR(cancel->Check());
      slots[i].tally.AddTo(&stats);
      SPATE_RETURN_IF_ERROR(
          fold(*scan_leaves[base + i], slots[i].status, slots[i].snapshot));
    }
  }
  return Status::OK();
}

Status SpateFramework::ScanWindow(
    Timestamp begin, Timestamp end,
    const std::function<void(const Snapshot&)>& fn) {
  ExplorationQuery everything;
  everything.window_begin = begin;
  everything.window_end = end;
  return ScanWindowProjected(everything, fn);
}

Status SpateFramework::ScanWindowProjected(
    const ExplorationQuery& query,
    const std::function<void(const Snapshot&)>& fn, ScanContext* ctx) {
  LeafScanOptions opts;
  opts.cdr = ScanProjection(CdrSchema(), query.attributes, kCdrTs, kCdrCellId);
  opts.nms = ScanProjection(NmsSchema(), query.attributes, kNmsTs, kNmsCellId);
  if (!query.want_cdr) {
    opts.cdr = TableProjection{/*all=*/false, /*skip=*/true, {}};
  }
  if (!query.want_nms) {
    opts.nms = TableProjection{/*all=*/false, /*skip=*/true, {}};
  }
  std::unordered_set<std::string> wanted;
  if (query.has_box) {
    const std::vector<std::string> in_box = cells_.CellsInBox(query.box);
    wanted.insert(in_box.begin(), in_box.end());
    opts.wanted_cells = &wanted;
  }
  // Context-free callers get a fresh context, published to `last_scan_`.
  ScanContext own;
  const Status status = ScanLeaves(
      index_.LeavesInWindow(query.window_begin, query.window_end), opts,
      [&fn](const LeafNode&, const Snapshot& snapshot) {
        fn(snapshot);
        return Status::OK();
      },
      ctx != nullptr ? ctx : &own);
  if (ctx == nullptr) last_scan_ = std::move(own.stats);
  return status;
}

Result<NodeSummary> SpateFramework::AggregateWindow(Timestamp begin,
                                                    Timestamp end) {
  return index_.SummarizeWindow(begin, end);
}

PlannerStatistics SpateFramework::CollectPlannerStatistics(
    Timestamp begin, Timestamp end) const {
  PlannerStatistics stats;
  // An injected probe failure reports `available = false`; the planner must
  // degrade to the naive full-scan plan, never crash or mis-cost.
  if (SPATE_FAILPOINT_HIT("sql.collect_statistics")) return stats;
  stats.available = true;
  stats.window_fully_resolved = index_.WindowFullyResolved(begin, end);
  const std::vector<const LeafNode*> leaves =
      index_.LeavesInWindow(begin, end);
  stats.leaves.reserve(leaves.size());
  const uint64_t generation =
      fragment_cache_ != nullptr ? fragment_cache_->generation() : 0;
  for (const LeafNode* leaf : leaves) {
    PlannerLeafInfo info{leaf->epoch_start, leaf->delta, &leaf->decode_stats,
                         &leaf->summary, 0};
    if (fragment_cache_ != nullptr) {
      info.fragment_cached_bytes =
          fragment_cache_->ResidentBytesFor(leaf->epoch_start, generation);
    }
    stats.leaves.push_back(info);
  }
  return stats;
}

uint64_t SpateFramework::StorageBytes() const {
  return dfs_->TotalLogicalBytes();
}

}  // namespace spate
