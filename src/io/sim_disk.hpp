// Simulated disk with deterministic, injectable faults.
//
// SimDisk models one machine's local storage as a set of named flat files
// with the durability semantics real storage stacks expose:
//
//   - append() writes land in a volatile tail (the OS page cache). A live
//     process reading its own file sees durable bytes + the tail.
//   - fsync() moves the tail to the durable prefix — unless a dropped-fsync
//     fault is armed, in which case it reports success but persists nothing
//     (lying disk / ignored flush, as real consumer drives do).
//   - rename() is atomic and durable (the journalled-metadata guarantee
//     compaction relies on for snapshot publication).
//   - crash() models power loss: volatile tails vanish. With a torn-tail
//     fault armed, a random prefix of each tail survives instead — the
//     classic torn write a WAL must detect by checksum.
//   - inject_bit_rot() flips one bit in the durable bytes of a file
//     (latent media corruption, caught on the next checksummed read).
//
// All faults are driven by a seeded util::Rng so chaos schedules replay
// deterministically, mirroring ace::chaos. A process-only crash (daemon
// crash() without SimDisk::crash()) keeps volatile tails, matching a real
// OS surviving the process.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"

namespace ace::io {

struct DiskStats {
  std::uint64_t appends = 0;
  std::uint64_t append_bytes = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t fsyncs_dropped = 0;
  std::uint64_t renames = 0;
  std::uint64_t crashes = 0;
  std::uint64_t torn_tails = 0;
  std::uint64_t bit_rots = 0;
};

class SimDisk {
 public:
  explicit SimDisk(std::uint64_t seed = 1);

  // --- data plane ---------------------------------------------------------
  // Appends to the file's volatile tail, creating the file if absent.
  util::Status append(const std::string& name, util::BytesView data);
  // Same, but an empty tail adopts `data`'s buffer instead of copying it
  // (a compaction hands over a whole snapshot body).
  util::Status append(const std::string& name, util::Bytes&& data);
  // Durable bytes + volatile tail: what a live process sees.
  util::Result<util::Bytes> read(const std::string& name) const;
  util::Result<std::size_t> size(const std::string& name) const;
  // Durable prefix length only (volatile tail excluded). Test hook for
  // asserting what would survive a power loss.
  util::Result<std::size_t> durable_size(const std::string& name) const;
  bool exists(const std::string& name) const;
  // Flushes the volatile tail to the durable prefix (see fault plane).
  util::Status fsync(const std::string& name);
  // Atomic, durable replace. `from` must exist; its tail is flushed first.
  util::Status rename(const std::string& from, const std::string& to);
  util::Status remove(const std::string& name);
  // Durably truncates to `size` bytes (used to chop a torn WAL tail so the
  // garbage cannot prefix future appends).
  util::Status truncate(const std::string& name, std::size_t size);
  std::vector<std::string> list(const std::string& prefix) const;

  // --- fault plane (deterministic, seeded) --------------------------------
  // The next crash() keeps a random strict prefix of each volatile tail
  // instead of dropping it — a torn write the WAL CRC must catch.
  void arm_torn_tail();
  // The next `count` fsync() calls report success without persisting
  // (count < 0 = all until disarmed by the next crash()).
  void arm_fsync_drop(int count);
  // Immediately flips one seeded-random bit in the durable bytes of one
  // file whose name starts with `name_prefix` (empty = any file). Returns
  // false if no file has durable data.
  bool inject_bit_rot(const std::string& name_prefix = "");

  // Power loss: volatile tails vanish (or tear, if armed); armed faults
  // reset. The disk is immediately usable again — platters survive.
  void crash();

  DiskStats stats() const;

 private:
  struct File {
    util::Bytes durable;
    util::Bytes pending;  // appended but not yet fsynced
  };

  mutable std::mutex mu_;
  std::map<std::string, File> files_;
  util::Rng rng_;
  bool torn_tail_armed_ = false;
  int fsync_drops_left_ = 0;
  DiskStats stats_;
};

}  // namespace ace::io
