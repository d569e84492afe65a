#include "coverage/fault_dictionary.hpp"

#include <cstring>
#include <stdexcept>

#include "campaign/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/serialize.hpp"
#include "util/subprocess.hpp"

namespace snntest::coverage {
namespace {

void write_fault(util::Writer& w, const fault::FaultDescriptor& f) {
  w.u32(static_cast<uint32_t>(f.kind));
  w.u64(f.neuron.layer);
  w.u64(f.neuron.index);
  w.u64(f.weight.layer);
  w.u64(f.weight.param);
  w.u64(f.weight.index);
  w.u32(f.connection_granularity ? 1u : 0u);
  w.u64(f.connection.layer);
  w.u64(f.connection.out_index);
  w.u64(f.connection.in_index);
  w.f32(f.magnitude);
}

fault::FaultDescriptor read_fault(util::Reader& r) {
  fault::FaultDescriptor f;
  f.kind = r.enumerator(fault::FaultKind::kSynapseBitFlip, "fault kind");
  f.neuron.layer = r.u64();
  f.neuron.index = r.u64();
  f.weight.layer = r.u64();
  f.weight.param = r.u64();
  f.weight.index = r.u64();
  f.connection_granularity = r.u32() != 0;
  f.connection.layer = r.u64();
  f.connection.out_index = r.u64();
  f.connection.in_index = r.u64();
  f.magnitude = r.f32();
  return f;
}

void write_record(util::Writer& out, size_t stim, size_t fault, const fault::DetectionResult& r) {
  util::Writer w;
  w.u32(static_cast<uint32_t>(stim));
  w.u64(fault);
  w.u32(r.detected ? 1u : 0u);
  w.u64(static_cast<uint64_t>(r.first_detection_frame));
  w.f64(r.output_l1);
  w.u32(static_cast<uint32_t>(r.class_count_diff.size()));
  for (long d : r.class_count_diff) w.u64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  out.frame(w.str(), util::FrameLength::kU32);
}

/// Throws std::runtime_error on a short, malformed or out-of-range payload.
void parse_record(std::string_view payload, size_t num_stimuli, size_t num_faults, size_t* stim,
                  size_t* fault, fault::DetectionResult* r) {
  util::Reader in(payload, "SNFD record");
  *stim = in.u32();
  *fault = in.u64();
  if (*stim >= num_stimuli || *fault >= num_faults) in.fail("pair out of range");
  r->detected = in.u32() != 0;
  r->first_detection_frame = static_cast<int64_t>(in.u64());
  r->output_l1 = in.f64();
  const uint32_t classes = in.u32();
  if (classes > in.remaining() / sizeof(uint64_t)) in.fail("class count exceeds the record");
  r->class_count_diff.resize(classes);
  for (uint32_t c = 0; c < classes; ++c) {
    r->class_count_diff[c] = static_cast<long>(static_cast<int64_t>(in.u64()));
  }
  in.expect_end();
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

FaultDictionary::FaultDictionary(std::vector<fault::FaultDescriptor> faults)
    : faults_(std::move(faults)),
      universe_fingerprint_(campaign::hash_fault_list(faults_, util::kFnvOffsetBasis)) {}

bool FaultDictionary::compatible_with(const FaultDictionary& other) const {
  uint64_t ta = 0, tb = 0;
  std::memcpy(&ta, &detection_threshold, sizeof(ta));
  std::memcpy(&tb, &other.detection_threshold, sizeof(tb));
  return model_fingerprint == other.model_fingerprint &&
         universe_fingerprint_ == other.universe_fingerprint_ &&
         num_faults() == other.num_faults() && ta == tb && detect_only == other.detect_only;
}

size_t FaultDictionary::add_stimulus(StimulusEntry entry) {
  if (auto existing = find_stimulus(entry.fingerprint)) return *existing;
  // Only spike trains can be embedded: pack_bits rejects anything else
  // here, before the entry joins the table (replay would otherwise run a
  // different train than the one fingerprinted).
  if (entry.has_data()) util::pack_bits(entry.data.data(), entry.data.numel());
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
  if (fault >= num_faults()) {
    throw std::out_of_range("FaultDictionary::record: fault index out of range");
  }
  if (have_[stim].empty()) {
    have_[stim].assign(num_faults(), 0);
    results_[stim].resize(num_faults());
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
  std::vector<char> mask(num_faults(), 0);
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
  util::Writer header;
  header.u64(model_fingerprint);
  header.u64(universe_fingerprint_);
  header.u64(faults_.size());
  header.f64(detection_threshold);
  header.u32(detect_only ? 1u : 0u);
  header.u32(schedule_ordered ? 1u : 0u);

  util::Writer table;
  table.u64(stimuli_.size());
  for (const StimulusEntry& e : stimuli_) {
    table.bytes(e.name);
    table.u64(e.fingerprint);
    table.u64(e.duration_frames);
    table.u64(e.has_data() ? e.data.shape().dim(0) : 0);
    table.u64(e.has_data() ? e.data.shape().dim(1) : 0);
    table.bytes(e.has_data() ? util::pack_bits(e.data.data(), e.data.numel()) : std::string());
  }

  util::Writer universe;
  universe.u64(faults_.size());
  for (const fault::FaultDescriptor& f : faults_) write_fault(universe, f);

  util::Writer out;
  out.header(kDictionaryMagic, kDictionaryVersion);
  out.frame(header.str());
  out.frame(table.str());
  out.frame(universe.str());
  out.u64(num_records_);
  for (size_t s = 0; s < have_.size(); ++s) {
    for (size_t f = 0; f < have_[s].size(); ++f) {
      if (have_[s][f]) write_record(out, s, f, results_[s][f]);
    }
  }
  return out.take();
}

void FaultDictionary::save(const std::string& path) const {
  OBS_SPAN("coverage/dict_save");
  util::atomic_write_file(path, serialize());
}

std::optional<FaultDictionary> FaultDictionary::load(const std::string& path, LoadStats* stats) {
  OBS_SPAN("coverage/dict_load");
  LoadStats local;
  LoadStats& st = stats ? *stats : local;
  std::string file;
  try {
    file = util::read_file(path);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  util::Reader in(file, path);

  // Magic, header, stimulus table and fault universe: damage here has no
  // partial answer.
  FaultDictionary dict;
  try {
    in.expect_header(kDictionaryMagic, kDictionaryVersion);
    util::Reader header(in.frame(), path);
    dict.model_fingerprint = header.u64();
    const uint64_t universe_fingerprint = header.u64();
    const uint64_t num_faults = header.u64();
    dict.detection_threshold = header.f64();
    dict.detect_only = header.u32() != 0;
    dict.schedule_ordered = header.u32() != 0;
    header.expect_end();

    util::Reader table(in.frame(), path);
    const uint64_t num_stimuli = table.u64();
    for (uint64_t s = 0; s < num_stimuli; ++s) {
      StimulusEntry e;
      e.name = table.string();
      e.fingerprint = table.u64();
      e.duration_frames = table.u64();
      const uint64_t T = table.u64();
      const uint64_t C = table.u64();
      const std::string_view packed = table.packed_bits(T, C);
      if (T * C > 0) {
        e.data.resize_zero(tensor::Shape{T, C});
        util::unpack_bits(packed, e.data.data(), e.data.numel());
      }
      dict.stimuli_.push_back(std::move(e));
      dict.have_.emplace_back();
      dict.results_.emplace_back();
    }
    table.expect_end();

    util::Reader universe(in.frame(), path);
    if (universe.u64() != num_faults) universe.fail("fault count differs from the header's");
    // No reserve: a count no file could hold fails at the first missing fault.
    for (uint64_t f = 0; f < num_faults; ++f) dict.faults_.push_back(read_fault(universe));
    universe.expect_end();
    dict.universe_fingerprint_ = campaign::hash_fault_list(dict.faults_, util::kFnvOffsetBasis);
    if (dict.universe_fingerprint_ != universe_fingerprint) {
      universe.fail("fault universe does not hash to the header's fingerprint");
    }
  } catch (const std::runtime_error& e) {
    SNNTEST_LOG_WARN("fault dictionary unusable: %s", e.what());
    return std::nullopt;
  }

  if (in.remaining() < sizeof(uint64_t)) {
    // Truncated immediately after the fault universe: the record count is
    // gone, so nothing provably existed. The dictionary itself is usable.
    SNNTEST_LOG_WARN("fault dictionary %s: record section missing (truncated?)", path.c_str());
    return dict;
  }
  const uint64_t num_records = in.u64();
  for (uint64_t i = 0; i < num_records; ++i) {
    std::string_view payload;
    const auto status = in.try_frame(util::FrameLength::kU32, &payload);
    if (status == util::Reader::FrameStatus::kTruncated) {
      // A truncated tail or a corrupted length field: the framing is lost
      // and every record from here on is unrecoverable.
      st.records_skipped += num_records - i;
      break;
    }
    if (status == util::Reader::FrameStatus::kBadCrc) {
      ++st.records_skipped;
      continue;
    }
    size_t stim = 0, fault = 0;
    fault::DetectionResult r;
    try {
      parse_record(payload, dict.stimuli_.size(), dict.num_faults(), &stim, &fault, &r);
    } catch (const std::runtime_error&) {
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
