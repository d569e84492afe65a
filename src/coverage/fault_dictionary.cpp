#include "coverage/fault_dictionary.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/subprocess.hpp"

namespace snntest::coverage {
namespace {

/// Upper bounds that make a corrupted length field fail fast instead of
/// driving a gigabyte allocation: no real stimulus table or record comes
/// anywhere near these.
constexpr uint64_t kMaxBlockBytes = 1ull << 30;
constexpr uint32_t kMaxRecordBytes = 1u << 24;

/// A length-prefixed, CRC-guarded byte block: the header and the stimulus
/// table both use this framing so a corrupted byte anywhere in them is
/// detected before any field is trusted.
void write_block(std::ostream& os, const std::string& blob) {
  util::write_u64(os, blob.size());
  os.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  util::write_u32(os, util::crc32(blob.data(), blob.size()));
}

/// Returns false on truncation, an insane length, or a CRC mismatch.
bool read_block(std::istream& is, std::string* blob) {
  uint64_t bytes = 0;
  try {
    bytes = util::read_u64(is);
  } catch (const std::exception&) {
    return false;
  }
  if (bytes > kMaxBlockBytes) return false;
  blob->resize(bytes);
  is.read(blob->data(), static_cast<std::streamsize>(bytes));
  if (!is) return false;
  uint32_t crc = 0;
  try {
    crc = util::read_u32(is);
  } catch (const std::exception&) {
    return false;
  }
  return crc == util::crc32(blob->data(), blob->size());
}

/// Bit-pack a binary spike train (8 timestep-channel cells per byte,
/// LSB-first). Spike values are exact 0.0f / 1.0f, so != 0.0f is the spike
/// predicate and the round trip is lossless.
std::vector<uint8_t> pack_train(const tensor::Tensor& data) {
  const size_t n = data.numel();
  std::vector<uint8_t> packed((n + 7) / 8, 0);
  const float* p = data.data();
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0.0f) packed[i >> 3] |= static_cast<uint8_t>(1u << (i & 7));
  }
  return packed;
}

tensor::Tensor unpack_train(const std::vector<uint8_t>& packed, size_t T, size_t C) {
  tensor::Tensor data;
  data.resize_zero(tensor::Shape{T, C});
  float* p = data.data();
  const size_t n = T * C;
  for (size_t i = 0; i < n; ++i) {
    if (packed[i >> 3] & (1u << (i & 7))) p[i] = 1.0f;
  }
  return data;
}

std::string serialize_record(size_t stim, size_t fault, const fault::DetectionResult& r) {
  std::ostringstream os;
  util::write_u32(os, static_cast<uint32_t>(stim));
  util::write_u64(os, fault);
  util::write_u32(os, r.detected ? 1u : 0u);
  util::write_u64(os, static_cast<uint64_t>(r.first_detection_frame));
  util::write_f64(os, r.output_l1);
  util::write_u32(os, static_cast<uint32_t>(r.class_count_diff.size()));
  for (long d : r.class_count_diff) {
    util::write_u64(os, static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  return os.str();
}

/// Throws (via the util::read_* primitives) on a short or malformed payload.
void parse_record(const std::string& payload, size_t* stim, size_t* fault,
                  fault::DetectionResult* r) {
  std::istringstream is(payload);
  *stim = util::read_u32(is);
  *fault = util::read_u64(is);
  r->detected = util::read_u32(is) != 0;
  r->first_detection_frame = static_cast<int64_t>(util::read_u64(is));
  r->output_l1 = util::read_f64(is);
  const uint32_t classes = util::read_u32(is);
  if (classes > kMaxRecordBytes / sizeof(uint64_t)) {
    throw std::runtime_error("fault_dictionary: implausible class count");
  }
  r->class_count_diff.resize(classes);
  for (uint32_t c = 0; c < classes; ++c) {
    r->class_count_diff[c] = static_cast<long>(static_cast<int64_t>(util::read_u64(is)));
  }
}

}  // namespace

bool results_identical(const fault::DetectionResult& a, const fault::DetectionResult& b) {
  uint64_t la = 0, lb = 0;
  std::memcpy(&la, &a.output_l1, sizeof(la));
  std::memcpy(&lb, &b.output_l1, sizeof(lb));
  return a.detected == b.detected && la == lb &&
         a.first_detection_frame == b.first_detection_frame &&
         a.class_count_diff == b.class_count_diff;
}

bool FaultDictionary::compatible_with(const FaultDictionary& other) const {
  uint64_t ta = 0, tb = 0;
  std::memcpy(&ta, &detection_threshold, sizeof(ta));
  std::memcpy(&tb, &other.detection_threshold, sizeof(tb));
  return model_fingerprint == other.model_fingerprint &&
         universe_fingerprint == other.universe_fingerprint && num_faults == other.num_faults &&
         ta == tb && detect_only == other.detect_only;
}

size_t FaultDictionary::add_stimulus(StimulusEntry entry) {
  if (auto existing = find_stimulus(entry.fingerprint)) return *existing;
  stimuli_.push_back(std::move(entry));
  have_.emplace_back();
  results_.emplace_back();
  return stimuli_.size() - 1;
}

std::optional<size_t> FaultDictionary::find_stimulus(uint64_t fingerprint) const {
  for (size_t s = 0; s < stimuli_.size(); ++s) {
    if (stimuli_[s].fingerprint == fingerprint) return s;
  }
  return std::nullopt;
}

bool FaultDictionary::has(size_t stim, size_t fault) const {
  return stim < have_.size() && fault < have_[stim].size() && have_[stim][fault] != 0;
}

const fault::DetectionResult* FaultDictionary::lookup(size_t stim, size_t fault) const {
  return has(stim, fault) ? &results_[stim][fault] : nullptr;
}

void FaultDictionary::record(size_t stim, size_t fault, fault::DetectionResult result) {
  if (stim >= stimuli_.size()) {
    throw std::out_of_range("FaultDictionary::record: stimulus index out of range");
  }
  if (fault >= num_faults) {
    throw std::out_of_range("FaultDictionary::record: fault index out of range");
  }
  if (have_[stim].empty()) {
    have_[stim].assign(num_faults, 0);
    results_[stim].resize(num_faults);
  }
  if (!have_[stim][fault]) ++num_records_;
  have_[stim][fault] = 1;
  // Hold exactly what save() persists, so a record looks the same whether
  // it was recorded in this process or loaded from disk.
  result.class_first_spike = std::vector<size_t>();
  results_[stim][fault] = std::move(result);
}

size_t FaultDictionary::records_for(size_t stim) const {
  if (stim >= have_.size()) return 0;
  size_t n = 0;
  for (char h : have_[stim]) n += h != 0;
  return n;
}

std::vector<size_t> FaultDictionary::detected_faults(size_t stim) const {
  std::vector<size_t> out;
  if (stim >= have_.size()) return out;
  for (size_t f = 0; f < have_[stim].size(); ++f) {
    if (have_[stim][f] && results_[stim][f].detected) out.push_back(f);
  }
  return out;
}

std::vector<char> FaultDictionary::detectable_mask() const {
  std::vector<char> mask(num_faults, 0);
  for (size_t s = 0; s < have_.size(); ++s) {
    for (size_t f = 0; f < have_[s].size(); ++f) {
      if (have_[s][f] && results_[s][f].detected) mask[f] = 1;
    }
  }
  return mask;
}

size_t FaultDictionary::detectable_count() const {
  size_t n = 0;
  for (char m : detectable_mask()) n += m != 0;
  return n;
}

std::string FaultDictionary::serialize() const {
  std::ostringstream os;
  write_to(os);
  return os.str();
}

void FaultDictionary::save(const std::string& path) const {
  OBS_SPAN("coverage/dict_save");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("FaultDictionary::save: cannot open " + path);
  write_to(out);
  out.flush();
  if (!out) throw std::runtime_error("FaultDictionary::save: write failed for " + path);
}

void FaultDictionary::save_atomic(const std::string& path) const {
  OBS_SPAN("coverage/dict_save_atomic");
  util::atomic_write_file(path, serialize());
}

void FaultDictionary::write_to(std::ostream& out) const {
  util::write_magic(out, kDictionaryMagic, kDictionaryVersion);

  {
    std::ostringstream hs;
    util::write_u64(hs, model_fingerprint);
    util::write_u64(hs, universe_fingerprint);
    util::write_u64(hs, num_faults);
    util::write_f64(hs, detection_threshold);
    util::write_u32(hs, detect_only ? 1u : 0u);
    util::write_u32(hs, schedule_ordered ? 1u : 0u);
    write_block(out, hs.str());
  }

  {
    std::ostringstream ss;
    util::write_u64(ss, stimuli_.size());
    for (const StimulusEntry& e : stimuli_) {
      util::write_string(ss, e.name);
      util::write_u64(ss, e.fingerprint);
      util::write_u64(ss, e.duration_frames);
      const size_t T = e.has_data() ? e.data.shape().dim(0) : 0;
      const size_t C = e.has_data() ? e.data.shape().dim(1) : 0;
      util::write_u64(ss, T);
      util::write_u64(ss, C);
      util::write_u8_vector(ss, e.has_data() ? pack_train(e.data) : std::vector<uint8_t>{});
    }
    write_block(out, ss.str());
  }

  util::write_u64(out, num_records_);
  for (size_t s = 0; s < have_.size(); ++s) {
    for (size_t f = 0; f < have_[s].size(); ++f) {
      if (!have_[s][f]) continue;
      const std::string payload = serialize_record(s, f, results_[s][f]);
      util::write_u32(out, static_cast<uint32_t>(payload.size()));
      out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
      util::write_u32(out, util::crc32(payload.data(), payload.size()));
    }
  }
}

std::optional<FaultDictionary> FaultDictionary::load(const std::string& path, LoadStats* stats) {
  OBS_SPAN("coverage/dict_load");
  LoadStats local;
  LoadStats& st = stats ? *stats : local;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  try {
    util::check_magic(in, kDictionaryMagic, kDictionaryVersion);
  } catch (const std::exception&) {
    return std::nullopt;
  }

  FaultDictionary dict;
  {
    std::string blob;
    if (!read_block(in, &blob)) return std::nullopt;
    try {
      std::istringstream hs(blob);
      dict.model_fingerprint = util::read_u64(hs);
      dict.universe_fingerprint = util::read_u64(hs);
      dict.num_faults = util::read_u64(hs);
      dict.detection_threshold = util::read_f64(hs);
      dict.detect_only = util::read_u32(hs) != 0;
      dict.schedule_ordered = util::read_u32(hs) != 0;
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  {
    std::string blob;
    if (!read_block(in, &blob)) return std::nullopt;
    try {
      std::istringstream ss(blob);
      const uint64_t num_stimuli = util::read_u64(ss);
      for (uint64_t s = 0; s < num_stimuli; ++s) {
        StimulusEntry e;
        e.name = util::read_string(ss);
        e.fingerprint = util::read_u64(ss);
        e.duration_frames = util::read_u64(ss);
        const uint64_t T = util::read_u64(ss);
        const uint64_t C = util::read_u64(ss);
        const std::vector<uint8_t> packed = util::read_u8_vector(ss);
        if (T * C > 0) {
          if (packed.size() != (T * C + 7) / 8) {
            throw std::runtime_error("fault_dictionary: stimulus bit-pack size mismatch");
          }
          e.data = unpack_train(packed, T, C);
        }
        dict.stimuli_.push_back(std::move(e));
        dict.have_.emplace_back();
        dict.results_.emplace_back();
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }

  uint64_t num_records = 0;
  try {
    num_records = util::read_u64(in);
  } catch (const std::exception&) {
    // Truncated immediately after the stimulus table: the record count is
    // gone, so nothing provably existed. The dictionary itself is usable.
    SNNTEST_LOG_WARN("fault dictionary %s: record section missing (truncated?)", path.c_str());
    return dict;
  }
  for (uint64_t i = 0; i < num_records; ++i) {
    uint32_t payload_bytes = 0;
    try {
      payload_bytes = util::read_u32(in);
    } catch (const std::exception&) {
      st.records_skipped += num_records - i;  // truncated tail
      break;
    }
    if (payload_bytes > kMaxRecordBytes) {
      // A corrupted length field loses the framing; everything after it is
      // unrecoverable.
      st.records_skipped += num_records - i;
      break;
    }
    std::string payload(payload_bytes, '\0');
    in.read(payload.data(), static_cast<std::streamsize>(payload_bytes));
    uint32_t crc = 0;
    bool tail_ok = static_cast<bool>(in);
    if (tail_ok) {
      try {
        crc = util::read_u32(in);
      } catch (const std::exception&) {
        tail_ok = false;
      }
    }
    if (!tail_ok) {
      st.records_skipped += num_records - i;
      break;
    }
    if (crc != util::crc32(payload.data(), payload.size())) {
      ++st.records_skipped;
      continue;
    }
    size_t stim = 0, fault = 0;
    fault::DetectionResult r;
    try {
      parse_record(payload, &stim, &fault, &r);
    } catch (const std::exception&) {
      ++st.records_skipped;
      continue;
    }
    if (stim >= dict.stimuli_.size() || fault >= dict.num_faults) {
      ++st.records_skipped;
      continue;
    }
    dict.record(stim, fault, std::move(r));
    ++st.records_loaded;
  }
  if (st.records_skipped > 0) {
    SNNTEST_LOG_WARN("fault dictionary %s: %zu unusable record(s) skipped; those pairs will "
                     "re-simulate",
                     path.c_str(), st.records_skipped);
    obs::Registry::instance().counter("coverage/dict_records_skipped").add(st.records_skipped);
  }
  return dict;
}

FaultDictionary::MergeStats FaultDictionary::merge(const FaultDictionary& other) {
  OBS_SPAN("coverage/dict_merge");
  if (!compatible_with(other)) {
    throw std::invalid_argument(
        "FaultDictionary::merge: incompatible dictionaries (model, fault universe or "
        "detection settings differ)");
  }
  MergeStats stats;
  for (size_t os = 0; os < other.stimuli_.size(); ++os) {
    const size_t before = stimuli_.size();
    const size_t s = add_stimulus(other.stimuli_[os]);
    if (stimuli_.size() > before) ++stats.stimuli_added;
    if (os >= other.have_.size() || other.have_[os].empty()) continue;
    for (size_t f = 0; f < other.have_[os].size(); ++f) {
      if (!other.have_[os][f]) continue;
      const fault::DetectionResult& incoming = other.results_[os][f];
      if (const fault::DetectionResult* existing = lookup(s, f)) {
        if (results_identical(*existing, incoming)) {
          ++stats.duplicates_agreeing;
        } else {
          ++stats.conflicts_skipped;
        }
        continue;
      }
      record(s, f, incoming);
      ++stats.records_added;
    }
  }
  if (stats.conflicts_skipped > 0) {
    SNNTEST_LOG_WARN("FaultDictionary::merge: %zu conflicting record(s) skipped (kept existing)",
                     stats.conflicts_skipped);
  }
  return stats;
}

}  // namespace snntest::coverage
