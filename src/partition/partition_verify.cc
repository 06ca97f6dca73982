// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "partition/partition_verify.h"

#include <cmath>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "partition/partitioned_index.h"
#include "storage/page_file.h"
#include "tree/meta_format.h"
#include "tree/node.h"
#include "verify/verifier.h"

namespace rexp {
namespace partition {

namespace {

void AddFinding(verify::Report* report,
                const verify::VerifyOptions& options, verify::CheckId check,
                std::string detail) {
  if (report->findings.size() >= options.max_findings) {
    ++report->findings_suppressed;
    return;
  }
  report->findings.push_back(
      verify::Finding{check, kInvalidPageId, -1, std::move(detail)});
}

// One live leaf record seen by the cross-partition walk.
struct LiveRecord {
  int partition;
  double speed;
};

// Walks the committed state of one partition file collecting the speed
// of every live leaf record. Returns false (leaving *out partial) when
// structural damage cuts the walk short — the per-file catalog already
// reported it, and cross-checks on a half-walked file would misfire.
template <int kDims>
bool CollectLiveRecords(PageFile* file, const TreeConfig& config,
                        const MetaRead& meta, Time now, int partition,
                        std::unordered_map<ObjectId, LiveRecord>* first_seen,
                        verify::Report* report,
                        const verify::VerifyOptions& options) {
  // A device error on one slot only hides that slot; an inconsistent
  // newest slot leaves nothing to walk (the per-file catalog reported it).
  if (!meta.walkable()) return false;
  const PageId root = meta.state.root;
  const int height = meta.state.height;
  if (root == kInvalidPageId) return true;  // Empty partition.

  const NodeCodec<kDims> codec(config.page_size, config.StoresVelocities(),
                               config.store_tpbr_expiration);
  std::unordered_set<PageId> seen;
  std::vector<std::pair<PageId, int>> stack;
  stack.emplace_back(root, height - 1);
  Page page(config.page_size);
  bool complete = true;
  while (!stack.empty()) {
    const auto [id, level] = stack.back();
    stack.pop_back();
    if (!seen.insert(id).second) {
      complete = false;  // Cycle; the per-file walk flagged it.
      continue;
    }
    if (!file->ReadPage(id, &page).ok()) {
      complete = false;
      continue;
    }
    const int node_level = page.Read<uint16_t>(0);
    const int count = page.Read<uint16_t>(2);
    if (node_level != level || count > codec.Capacity(level)) {
      complete = false;
      continue;
    }
    Node<kDims> node;
    codec.Decode(page, &node);
    for (const NodeEntry<kDims>& e : node.entries) {
      if (level > 0) {
        stack.emplace_back(e.id, level - 1);
        continue;
      }
      if (config.expire_entries && e.region.t_exp < now) continue;
      double sum = 0;
      for (int d = 0; d < kDims; ++d) {
        sum += e.region.vlo[d] * e.region.vlo[d];
      }
      const double speed = std::sqrt(sum);
      auto [it, inserted] =
          first_seen->emplace(e.id, LiveRecord{partition, speed});
      if (!inserted && it->second.partition != partition) {
        AddFinding(report, options, verify::CheckId::kPartitionRouting,
                   "oid " + std::to_string(e.id) +
                       " live in partition " +
                       std::to_string(it->second.partition) + " and " +
                       std::to_string(partition));
      }
    }
  }
  return complete;
}

template <int kDims>
verify::Report VerifyPartitionedImpl(const std::string& manifest_path,
                                     const Manifest& manifest,
                                     TreeConfig config,
                                     const verify::VerifyOptions& options) {
  verify::Report report;
  config.page_size = manifest.page_size;
  const std::string dir = DirOf(manifest_path);

  std::unordered_map<ObjectId, LiveRecord> first_seen;
  for (size_t i = 0; i < manifest.entries.size(); ++i) {
    const ManifestEntry& entry = manifest.entries[i];
    const std::string path = dir + entry.file;
    // DiskPageFile::Open creates missing files; a checker must not.
    {
      std::FILE* probe = std::fopen(path.c_str(), "rb");
      if (probe == nullptr) {
        AddFinding(&report, options, verify::CheckId::kPartitionManifest,
                   "partition " + std::to_string(i) + " file " +
                       entry.file + " is missing");
        report.walk_complete = false;
        continue;
      }
      std::fclose(probe);
    }
    auto file_or = DiskPageFile::Open(path, config.page_size,
                                      /*keep=*/true);
    if (!file_or.ok()) {
      AddFinding(&report, options, verify::CheckId::kPartitionManifest,
                 "partition " + std::to_string(i) + ": " +
                     file_or.status().ToString());
      report.walk_complete = false;
      continue;
    }
    PageFile* file = file_or.value().get();

    const MetaRead meta = ReadMeta(file, kDims);
    verify::MergePartitionReport(
        verify::TreeVerifier<kDims>::VerifyCommitted(file, config, meta,
                                                     options),
        i, options, &report);

    const bool complete = CollectLiveRecords<kDims>(
        file, config, meta, options.now, static_cast<int>(i), &first_seen,
        &report, options);
    if (!complete) {
      report.walk_complete = false;
      continue;
    }
    // Class-discipline checks need a complete walk of THIS partition.
    uint64_t live_here = 0;
    double fastest = 0;
    for (const auto& [oid, rec] : first_seen) {
      if (rec.partition != static_cast<int>(i)) continue;
      ++live_here;
      if (rec.speed > fastest) fastest = rec.speed;
    }
    if (!entry.active && live_here > 0) {
      AddFinding(&report, options, verify::CheckId::kPartitionRouting,
                 "merged-away partition " + std::to_string(i) +
                     " still holds " + std::to_string(live_here) +
                     " live records");
    }
    if (entry.active && fastest > entry.vmax + options.eps) {
      AddFinding(&report, options, verify::CheckId::kPartitionRouting,
                 "partition " + std::to_string(i) +
                     " holds a live record at speed " +
                     std::to_string(fastest) +
                     " beyond its recorded ceiling " +
                     std::to_string(entry.vmax));
    }
  }
  return report;
}

}  // namespace

template <int kDims>
verify::Report VerifyPartitioned(const std::string& manifest_path,
                                 const TreeConfig& config,
                                 const verify::VerifyOptions& options) {
  verify::Report report;
  auto manifest_or = ReadManifest(manifest_path);
  if (!manifest_or.ok()) {
    AddFinding(&report, options, verify::CheckId::kPartitionManifest,
               manifest_or.status().ToString());
    report.walk_complete = false;
    return report;
  }
  const Manifest& manifest = manifest_or.value();
  if (manifest.dims != kDims) {
    AddFinding(&report, options, verify::CheckId::kPartitionManifest,
               "manifest records " + std::to_string(manifest.dims) +
                   " dims, verifying as " + std::to_string(kDims));
    report.walk_complete = false;
    return report;
  }
  return VerifyPartitionedImpl<kDims>(manifest_path, manifest, config,
                                      options);
}

verify::Report VerifyPartitionedAuto(const std::string& manifest_path,
                                     const TreeConfig& config,
                                     const verify::VerifyOptions& options,
                                     int* dims_out) {
  *dims_out = 0;
  auto manifest_or = ReadManifest(manifest_path);
  if (!manifest_or.ok()) {
    verify::Report report;
    AddFinding(&report, options, verify::CheckId::kPartitionManifest,
               manifest_or.status().ToString());
    report.walk_complete = false;
    return report;
  }
  const int dims = manifest_or.value().dims;
  *dims_out = dims;
  switch (dims) {
    case 1:
      return VerifyPartitionedImpl<1>(manifest_path, manifest_or.value(),
                                      config, options);
    case 2:
      return VerifyPartitionedImpl<2>(manifest_path, manifest_or.value(),
                                      config, options);
    case 3:
      return VerifyPartitionedImpl<3>(manifest_path, manifest_or.value(),
                                      config, options);
    default: {
      verify::Report report;
      AddFinding(&report, options, verify::CheckId::kPartitionManifest,
                 "unsupported dims " + std::to_string(dims));
      report.walk_complete = false;
      return report;
    }
  }
}

template verify::Report VerifyPartitioned<1>(
    const std::string&, const TreeConfig&, const verify::VerifyOptions&);
template verify::Report VerifyPartitioned<2>(
    const std::string&, const TreeConfig&, const verify::VerifyOptions&);
template verify::Report VerifyPartitioned<3>(
    const std::string&, const TreeConfig&, const verify::VerifyOptions&);

}  // namespace partition
}  // namespace rexp
