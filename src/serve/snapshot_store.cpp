#include "serve/snapshot_store.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "sim/wire.h"

namespace iobt::serve {

namespace {

constexpr char kMagic[] = "iosnap";
constexpr std::uint64_t kFormatVersion = 1;

/// FNV-1a over the payload bytes — cheap, deterministic, and enough to
/// catch truncation and bit rot (adversarial tampering is out of scope;
/// the stamp check catches honest cross-prefix mixups).
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string header_line(std::uint64_t prefix_hash, const std::string& payload) {
  char buf[96];
  char* p = std::copy_n(kMagic, sizeof(kMagic) - 1, buf);
  *p++ = ' ';
  p = sim::format_u64(p, kFormatVersion);
  *p++ = ' ';
  p = sim::format_hex64(p, prefix_hash);
  *p++ = ' ';
  p = sim::format_u64(p, payload.size());
  *p++ = ' ';
  p = sim::format_hex64(p, fnv1a(payload));
  *p++ = '\n';
  return std::string(buf, p);
}

/// Splits the next single-space-separated field off `line`.
std::string_view next_field(std::string_view& line) {
  const std::size_t sep = line.find(' ');
  const std::string_view field = line.substr(0, sep);
  line.remove_prefix(sep == std::string_view::npos ? line.size() : sep + 1);
  return field;
}

}  // namespace

std::string SnapshotStore::file_name(std::uint64_t prefix_hash) {
  char hex[16];
  sim::format_hex64(hex, prefix_hash);
  return "snap_" + std::string(hex, sizeof hex) + ".iosnap";
}

SnapshotStore::SnapshotStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("SnapshotStore: cannot create directory " + dir_);
  }
}

bool SnapshotStore::put(std::uint64_t prefix_hash, const std::string& payload) {
  const std::filesystem::path final_path =
      std::filesystem::path(dir_) / file_name(prefix_hash);
  // Temp file in the SAME directory: rename across filesystems is not
  // atomic (and may outright fail), so staging must share the mount.
  const std::filesystem::path tmp_path =
      final_path.string() + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out << header_line(prefix_hash, payload);
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp_path, ec);
    return false;
  }
  return true;
}

SnapshotStore::GetStatus SnapshotStore::get(std::uint64_t prefix_hash,
                                            std::string& out) const {
  const std::filesystem::path path =
      std::filesystem::path(dir_) / file_name(prefix_hash);
  std::ifstream in(path, std::ios::binary);
  if (!in) return GetStatus::kMissing;

  std::string header;
  if (!std::getline(in, header)) return GetStatus::kRejected;
  // Exactly the five canonical fields header_line writes, one space apart.
  std::string_view rest = header;
  std::uint64_t version = 0, stamp = 0, payload_size = 0, checksum = 0;
  if (next_field(rest) != kMagic || !sim::parse_u64(next_field(rest), version) ||
      version != kFormatVersion ||
      !sim::parse_hex64(next_field(rest), stamp) ||
      !sim::parse_u64(next_field(rest), payload_size) ||
      !sim::parse_hex64(rest, checksum)) {
    return GetStatus::kRejected;
  }
  if (stamp != prefix_hash) return GetStatus::kRejected;

  // Exact-size check before allocating: a size field that disagrees with
  // the bytes on disk (truncation, trailing garbage, a lying header) is a
  // rejection, never a giant allocation.
  const std::streamoff body_start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  if (body_start < 0 || file_end < body_start ||
      static_cast<std::uint64_t>(file_end - body_start) != payload_size) {
    return GetStatus::kRejected;
  }
  in.seekg(body_start);
  std::string payload(static_cast<std::size_t>(payload_size), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload_size));
  if (static_cast<std::uint64_t>(in.gcount()) != payload_size) {
    return GetStatus::kRejected;
  }
  if (fnv1a(payload) != checksum) return GetStatus::kRejected;

  out = std::move(payload);
  return GetStatus::kHit;
}

std::size_t SnapshotStore::file_count() const {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& e :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (e.path().extension() == ".iosnap") ++n;
  }
  return n;
}

}  // namespace iobt::serve
