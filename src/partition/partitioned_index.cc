// Copyright 2026 The Rexp Authors. Licensed under the Apache License 2.0.

#include "partition/partitioned_index.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.h"

namespace rexp {
namespace partition {

namespace {

constexpr const char kManifestHeader[] = "REXP-PARTITION-MANIFEST v1";

// Splits a manifest line into whitespace-separated tokens (file names
// therefore must not contain spaces; Write enforces this).
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return tokens;
}

// The unbounded last class serializes its upper bound as the literal
// "inf" (ParseDouble rejects non-finite values by design).
bool ParseBound(const std::string& token, double* out) {
  if (token == "inf") {
    *out = std::numeric_limits<double>::infinity();
    return true;
  }
  return ParseDouble(token.c_str(), out);
}

void AppendBound(std::string* line, double value) {
  if (std::isinf(value)) {
    line->append("inf");
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  line->append(buf);
}

}  // namespace

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string()
                                    : path.substr(0, slash + 1);
}

StatusOr<Manifest> ReadManifest(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("no manifest at " + path);
  }
  std::string content;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    content.append(buf, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("reading " + path);
  }

  Manifest m;
  size_t pos = 0;
  int line_no = 0;
  uint32_t declared = 0;
  bool saw_header = false;
  bool saw_dims = false;
  bool saw_page_size = false;
  bool saw_partitions = false;
  while (pos <= content.size()) {
    const size_t eol = content.find('\n', pos);
    const std::string line = content.substr(
        pos, eol == std::string::npos ? std::string::npos : eol - pos);
    pos = eol == std::string::npos ? content.size() + 1 : eol + 1;
    ++line_no;
    auto malformed = [&](const std::string& why) {
      return Status::Corruption(path + ":" + std::to_string(line_no) +
                                ": " + why);
    };
    if (line_no == 1) {
      if (line != kManifestHeader) return malformed("bad manifest header");
      saw_header = true;
      continue;
    }
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) continue;
    if (tokens[0] == "dims" && tokens.size() == 2) {
      uint32_t dims = 0;
      if (!ParsePositiveU32(tokens[1].c_str(), &dims) || dims > 3) {
        return malformed("bad dims");
      }
      m.dims = static_cast<int>(dims);
      saw_dims = true;
    } else if (tokens[0] == "page_size" && tokens.size() == 2) {
      if (!ParsePositiveU32(tokens[1].c_str(), &m.page_size)) {
        return malformed("bad page_size");
      }
      saw_page_size = true;
    } else if (tokens[0] == "partitions" && tokens.size() == 2) {
      if (!ParsePositiveU32(tokens[1].c_str(), &declared)) {
        return malformed("bad partition count");
      }
      saw_partitions = true;
    } else if (tokens[0] == "part" && tokens.size() == 6) {
      uint32_t idx = 0;
      uint32_t active = 0;
      ManifestEntry e;
      if (!ParseU32(tokens[1].c_str(), &idx) ||
          idx != m.entries.size() ||
          !ParseU32(tokens[2].c_str(), &active) || active > 1 ||
          !ParseBound(tokens[3], &e.upper) ||
          !ParseBound(tokens[4], &e.vmax) || !std::isfinite(e.vmax) ||
          e.vmax < 0) {
        return malformed("bad part line");
      }
      e.active = active == 1;
      e.file = tokens[5];
      m.entries.push_back(std::move(e));
    } else {
      return malformed("unrecognized line");
    }
  }
  if (!saw_header || !saw_dims || !saw_page_size || !saw_partitions) {
    return Status::Corruption(path + ": incomplete manifest");
  }
  if (m.entries.size() != declared || m.entries.empty()) {
    return Status::Corruption(
        path + ": declares " + std::to_string(declared) +
        " partitions, lists " + std::to_string(m.entries.size()));
  }
  bool any_active = false;
  for (const ManifestEntry& e : m.entries) any_active |= e.active;
  if (!any_active) {
    return Status::Corruption(path + ": no active partition");
  }
  return m;
}

Status WriteManifest(const Manifest& manifest, const std::string& path) {
  std::string out = kManifestHeader;
  out += "\ndims " + std::to_string(manifest.dims);
  out += "\npage_size " + std::to_string(manifest.page_size);
  out += "\npartitions " + std::to_string(manifest.entries.size());
  for (size_t i = 0; i < manifest.entries.size(); ++i) {
    const ManifestEntry& e = manifest.entries[i];
    if (e.file.empty() ||
        e.file.find_first_of(" \t\n") != std::string::npos) {
      return Status::InvalidArgument("manifest file name '" + e.file +
                                     "' is empty or holds whitespace");
    }
    out += "\npart " + std::to_string(i) + " " + (e.active ? "1" : "0");
    out += " ";
    AppendBound(&out, e.upper);
    out += " ";
    AppendBound(&out, e.vmax);
    out += " " + e.file;
  }
  out += "\n";

  // Write-then-rename so a crash mid-write never leaves a torn manifest
  // next to valid partition files.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("creating " + tmp);
  }
  const size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool flush_failed = std::fflush(f) != 0;
  const bool close_failed = std::fclose(f) != 0;
  if (written != out.size() || flush_failed || close_failed) {
    std::remove(tmp.c_str());
    return Status::IOError("writing " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("renaming " + tmp + " to " + path);
  }
  return Status::OK();
}

}  // namespace partition

template <int kDims>
StatusOr<std::unique_ptr<PartitionedIndex<kDims>>>
PartitionedIndex<kDims>::OpenDisk(const TreeConfig& config,
                                  const std::string& base_path,
                                  const PartitionedOptions& options) {
  const std::string manifest_path = base_path + ".manifest";
  partition::Manifest manifest;
  bool have_manifest = false;
  auto manifest_or = partition::ReadManifest(manifest_path);
  if (manifest_or.ok()) {
    manifest = std::move(manifest_or).value();
    if (manifest.dims != kDims) {
      return Status::InvalidArgument(
          manifest_path + ": built for " + std::to_string(manifest.dims) +
          " dims, opened as " + std::to_string(kDims));
    }
    if (manifest.page_size != config.page_size) {
      return Status::InvalidArgument(
          manifest_path + ": built with page size " +
          std::to_string(manifest.page_size) + ", configured " +
          std::to_string(config.page_size));
    }
    have_manifest = true;
  } else if (!manifest_or.status().IsNotFound()) {
    return manifest_or.status();
  }

  const int k = have_manifest ? static_cast<int>(manifest.entries.size())
                              : options.partitions;
  if (k <= 0) {
    return Status::InvalidArgument("partition count must be positive");
  }

  std::unique_ptr<PartitionedIndex<kDims>> index(
      new PartitionedIndex<kDims>(PrivateTag{}, config, options));
  index->options_.partitions = k;
  index->manifest_path_ = manifest_path;
  const std::string dir = partition::DirOf(manifest_path);
  const std::string stem = base_path.substr(dir.size());
  std::vector<std::string> names;
  std::vector<PageFile*> raw;
  raw.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    names.push_back(have_manifest
                        ? manifest.entries[static_cast<size_t>(i)].file
                        : stem + ".p" + std::to_string(i));
    auto file_or = DiskPageFile::Open(dir + names.back(), config.page_size,
                                      /*keep=*/true);
    if (!file_or.ok()) return file_or.status();
    index->owned_files_.push_back(std::move(file_or).value());
    raw.push_back(index->owned_files_.back().get());
  }
  Status init = index->Init(raw, have_manifest ? &manifest : nullptr);
  if (!init.ok()) return init;
  {
    sched::MutexLock lk(&index->router_mu_);
    for (size_t i = 0; i < names.size(); ++i) {
      index->classes_[i].file = names[i];
    }
  }
  // Persist the router state immediately: the per-class files exist from
  // this point on, and a manifest is what makes them a partitioned index.
  Status wrote = index->WriteManifestNow();
  if (!wrote.ok()) return wrote;
  return index;
}

template class PartitionedIndex<1>;
template class PartitionedIndex<2>;
template class PartitionedIndex<3>;

}  // namespace rexp
