#include "io/sim_disk.hpp"

#include <algorithm>

namespace ace::io {

SimDisk::SimDisk(std::uint64_t seed) : rng_(seed) {}

util::Status SimDisk::append(const std::string& name, util::BytesView data) {
  std::scoped_lock lock(mu_);
  File& f = files_[name];
  f.pending.insert(f.pending.end(), data.begin(), data.end());
  ++stats_.appends;
  stats_.append_bytes += data.size();
  return util::Status::ok_status();
}

util::Status SimDisk::append(const std::string& name, util::Bytes&& data) {
  std::scoped_lock lock(mu_);
  File& f = files_[name];
  ++stats_.appends;
  stats_.append_bytes += data.size();
  if (f.pending.empty()) f.pending = std::move(data);
  else f.pending.insert(f.pending.end(), data.begin(), data.end());
  return util::Status::ok_status();
}

util::Result<util::Bytes> SimDisk::read(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end())
    return {util::Errc::not_found, "no such file: " + name};
  util::Bytes out = it->second.durable;
  out.insert(out.end(), it->second.pending.begin(), it->second.pending.end());
  return out;
}

util::Result<std::size_t> SimDisk::size(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end())
    return {util::Errc::not_found, "no such file: " + name};
  return it->second.durable.size() + it->second.pending.size();
}

util::Result<std::size_t> SimDisk::durable_size(const std::string& name) const {
  std::scoped_lock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end())
    return {util::Errc::not_found, "no such file: " + name};
  return it->second.durable.size();
}

bool SimDisk::exists(const std::string& name) const {
  std::scoped_lock lock(mu_);
  return files_.count(name) != 0;
}

util::Status SimDisk::fsync(const std::string& name) {
  std::scoped_lock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end())
    return {util::Errc::not_found, "no such file: " + name};
  ++stats_.fsyncs;
  if (fsync_drops_left_ != 0) {
    if (fsync_drops_left_ > 0) --fsync_drops_left_;
    ++stats_.fsyncs_dropped;
    return util::Status::ok_status();  // lying disk: reports ok, keeps tail
  }
  File& f = it->second;
  // A fresh file's durable image adopts the tail's buffer, no copy.
  if (f.durable.empty()) f.durable.swap(f.pending);
  else f.durable.insert(f.durable.end(), f.pending.begin(), f.pending.end());
  f.pending.clear();
  return util::Status::ok_status();
}

util::Status SimDisk::rename(const std::string& from, const std::string& to) {
  std::scoped_lock lock(mu_);
  auto it = files_.find(from);
  if (it == files_.end())
    return {util::Errc::not_found, "no such file: " + from};
  File f = std::move(it->second);
  // Atomic rename implies the data made it to the platter first.
  if (f.durable.empty()) f.durable.swap(f.pending);
  else f.durable.insert(f.durable.end(), f.pending.begin(), f.pending.end());
  f.pending.clear();
  files_.erase(it);
  files_[to] = std::move(f);
  ++stats_.renames;
  return util::Status::ok_status();
}

util::Status SimDisk::remove(const std::string& name) {
  std::scoped_lock lock(mu_);
  if (files_.erase(name) == 0)
    return {util::Errc::not_found, "no such file: " + name};
  return util::Status::ok_status();
}

util::Status SimDisk::truncate(const std::string& name, std::size_t size) {
  std::scoped_lock lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end())
    return {util::Errc::not_found, "no such file: " + name};
  File& f = it->second;
  f.pending.clear();
  if (size < f.durable.size()) f.durable.resize(size);
  return util::Status::ok_status();
}

std::vector<std::string> SimDisk::list(const std::string& prefix) const {
  std::scoped_lock lock(mu_);
  std::vector<std::string> out;
  for (const auto& [name, f] : files_)
    if (name.rfind(prefix, 0) == 0) out.push_back(name);
  return out;
}

void SimDisk::arm_torn_tail() {
  std::scoped_lock lock(mu_);
  torn_tail_armed_ = true;
}

void SimDisk::arm_fsync_drop(int count) {
  std::scoped_lock lock(mu_);
  fsync_drops_left_ = count;
}

bool SimDisk::inject_bit_rot(const std::string& name_prefix) {
  std::scoped_lock lock(mu_);
  std::vector<File*> candidates;
  for (auto& [name, f] : files_)
    if (name.rfind(name_prefix, 0) == 0 && !f.durable.empty())
      candidates.push_back(&f);
  if (candidates.empty()) return false;
  File* f = candidates[rng_.next_below(candidates.size())];
  std::size_t bit = rng_.next_below(f->durable.size() * 8);
  f->durable[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  ++stats_.bit_rots;
  return true;
}

void SimDisk::crash() {
  std::scoped_lock lock(mu_);
  for (auto& [name, f] : files_) {
    if (f.pending.empty()) continue;
    if (torn_tail_armed_) {
      // Keep a strict prefix: at least one tail byte is always lost, so a
      // framed record straddling the cut comes back with a bad CRC.
      std::size_t keep = rng_.next_below(f.pending.size());
      f.durable.insert(f.durable.end(), f.pending.begin(),
                       f.pending.begin() + static_cast<std::ptrdiff_t>(keep));
      if (keep > 0) ++stats_.torn_tails;
    }
    f.pending.clear();
  }
  torn_tail_armed_ = false;
  fsync_drops_left_ = 0;
  ++stats_.crashes;
}

DiskStats SimDisk::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

}  // namespace ace::io
