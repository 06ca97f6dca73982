// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "partition/partition_verify.h"

#include <algorithm>
#include <string>
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

using verify::CheckId;

template <int kDims>
verify::Report VerifyPartitionedImpl(const std::string& manifest_path,
                                     const Manifest& manifest,
                                     TreeConfig config,
                                     const verify::VerifyOptions& options) {
  verify::Report report;
  config.page_size = manifest.page_size;
  const std::string dir = DirOf(manifest_path);

  FirstSeen first_seen;
  for (size_t i = 0; i < manifest.entries.size(); ++i) {
    const ManifestEntry& entry = manifest.entries[i];
    const std::string path = dir + entry.file;
    // DiskPageFile::Open creates missing files; a checker must not.
    {
      std::FILE* probe = std::fopen(path.c_str(), "rb");
      if (probe == nullptr) {
        verify::AddFinding(&report, options, CheckId::kPartitionManifest,
                           kInvalidPageId, -1,
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
      verify::AddFinding(&report, options, CheckId::kPartitionManifest,
                         kInvalidPageId, -1,
                         "partition " + std::to_string(i) + ": " +
                             file_or.status().ToString());
      report.walk_complete = false;
      continue;
    }
    PageFile* file = file_or.value().get();

    std::vector<NodeEntry<kDims>> live;
    verify::Report part = verify::TreeVerifier<kDims>::VerifyCommitted(
        file, config, ReadMeta(file, kDims), options,
        [&live](const NodeEntry<kDims>& e) { live.push_back(e); });
    MergeClassReport<kDims>(std::move(part), i, entry.active, entry.vmax,
                            live, options, &first_seen, &report);
  }
  return report;
}

}  // namespace

template <int kDims>
void MergeClassReport(verify::Report part, size_t cls, bool active,
                      double ceiling, const std::vector<NodeEntry<kDims>>& live,
                      const verify::VerifyOptions& options,
                      FirstSeen* first_seen, verify::Report* report) {
  const bool complete = part.walk_complete;
  // Built with += (GCC 12's -Wrestrict misfires on chained
  // const char* + std::string&&).
  std::string label = "p";
  label += std::to_string(cls);
  verify::MergeReport(std::move(part), label, options, report);
  if (!complete) return;
  uint64_t live_here = 0;
  double fastest = 0;
  for (const NodeEntry<kDims>& e : live) {
    auto [it, inserted] = first_seen->emplace(e.id, cls);
    if (inserted) {
      ++live_here;
      fastest = std::max(fastest, PartitionedIndex<kDims>::SpeedOf(e.region));
    } else if (it->second != cls) {
      verify::AddFinding(report, options, CheckId::kPartitionRouting,
                         kInvalidPageId, -1,
                         "oid " + std::to_string(e.id) +
                             " live in partition " +
                             std::to_string(it->second) + " and " +
                             std::to_string(cls));
    }
  }
  if (!active && live_here > 0) {
    verify::AddFinding(report, options, CheckId::kPartitionRouting,
                       kInvalidPageId, -1,
                       "merged-away partition " + std::to_string(cls) +
                           " still holds " + std::to_string(live_here) +
                           " live records");
  }
  if (active && fastest > ceiling + options.eps) {
    verify::AddFinding(report, options, CheckId::kPartitionRouting,
                       kInvalidPageId, -1,
                       "partition " + std::to_string(cls) +
                           " holds a live record at speed " +
                           std::to_string(fastest) +
                           " beyond its recorded ceiling " +
                           std::to_string(ceiling));
  }
}

template <int kDims>
verify::Report VerifyPartitioned(const std::string& manifest_path,
                                 const TreeConfig& config,
                                 const verify::VerifyOptions& options) {
  verify::Report report;
  auto manifest_or = ReadManifest(manifest_path);
  if (!manifest_or.ok()) {
    verify::AddFinding(&report, options, CheckId::kPartitionManifest,
                       kInvalidPageId, -1, manifest_or.status().ToString());
    report.walk_complete = false;
    return report;
  }
  const Manifest& manifest = manifest_or.value();
  if (manifest.dims != kDims) {
    verify::AddFinding(&report, options, CheckId::kPartitionManifest,
                       kInvalidPageId, -1,
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
    verify::AddFinding(&report, options, CheckId::kPartitionManifest,
                       kInvalidPageId, -1, manifest_or.status().ToString());
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
      verify::AddFinding(&report, options, CheckId::kPartitionManifest,
                         kInvalidPageId, -1,
                         "unsupported dims " + std::to_string(dims));
      report.walk_complete = false;
      return report;
    }
  }
}

template void MergeClassReport<1>(verify::Report, size_t, bool, double,
                                  const std::vector<NodeEntry<1>>&,
                                  const verify::VerifyOptions&, FirstSeen*,
                                  verify::Report*);
template void MergeClassReport<2>(verify::Report, size_t, bool, double,
                                  const std::vector<NodeEntry<2>>&,
                                  const verify::VerifyOptions&, FirstSeen*,
                                  verify::Report*);
template void MergeClassReport<3>(verify::Report, size_t, bool, double,
                                  const std::vector<NodeEntry<3>>&,
                                  const verify::VerifyOptions&, FirstSeen*,
                                  verify::Report*);

template verify::Report VerifyPartitioned<1>(
    const std::string&, const TreeConfig&, const verify::VerifyOptions&);
template verify::Report VerifyPartitioned<2>(
    const std::string&, const TreeConfig&, const verify::VerifyOptions&);
template verify::Report VerifyPartitioned<3>(
    const std::string&, const TreeConfig&, const verify::VerifyOptions&);

}  // namespace partition
}  // namespace rexp
