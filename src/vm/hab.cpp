#include "vm/hab.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <optional>
#include <type_traits>
#include <variant>

#include "support/string_utils.hpp"

namespace htvm::vm {
namespace {

// Sanity caps: a corrupted length field must produce a typed error, never a
// multi-gigabyte allocation.
constexpr i64 kMaxNodes = i64{1} << 20;
constexpr i64 kMaxKernels = i64{1} << 16;
constexpr i64 kMaxSteps = i64{1} << 20;
constexpr i64 kMaxBuffers = i64{1} << 20;
constexpr i64 kMaxPasses = 1024;
constexpr i64 kMaxDispatch = i64{1} << 20;
constexpr i64 kMaxAttrs = 64;
constexpr i64 kMaxInputs = 64;
constexpr i64 kMaxStringBytes = i64{1} << 20;
constexpr u32 kMaxSections = 64;

// --- flat little-endian encoding ------------------------------------------
//
// Writer and Reader share one visitor vocabulary, so a record's Fields()
// list (below, or next to the struct for DianaConfig and TilerOptions) is
// both its encoder and its decoder:
//   v(x)                      u8 / bool (one byte) / i32 / u32 / i64 / u64 /
//                             double / string (u32 length + bytes) / record
//   v.Enum(e, max, what)      one byte, range-checked on read
//   v.Vec(xs, cap, min, what) u32 count, then each element
//   v.Optional(x)             presence byte, then the value

class Writer {
 public:
  void operator()(u8 v) { out_.push_back(static_cast<char>(v)); }
  void operator()(bool v) { (*this)(static_cast<u8>(v ? 1 : 0)); }
  void operator()(i32 v) { Raw(&v, sizeof v); }
  void operator()(u32 v) { Raw(&v, sizeof v); }
  void operator()(i64 v) { Raw(&v, sizeof v); }
  void operator()(u64 v) { Raw(&v, sizeof v); }
  void operator()(double v) { Raw(&v, sizeof v); }
  void operator()(const std::string& s) {
    (*this)(static_cast<u32>(s.size()));
    Raw(s.data(), s.size());
  }
  template <class R>
    requires std::is_class_v<R>
  void operator()(const R& record) {
    Fields(*this, record);
  }
  template <class E>
  void Enum(E e, E /*max*/, const char* /*what*/) {
    (*this)(static_cast<u8>(e));
  }
  template <class T>
  void Vec(const std::vector<T>& xs, i64 /*cap*/, i64 /*min_record_bytes*/,
           const char* /*what*/) {
    (*this)(static_cast<u32>(xs.size()));
    for (const T& x : xs) (*this)(x);
  }
  template <class T>
  void Optional(const std::optional<T>& x) {
    (*this)(x.has_value());
    if (x.has_value()) (*this)(*x);
  }
  void Bytes(const u8* data, i64 size) {
    (*this)(static_cast<u64>(size));
    Raw(data, static_cast<size_t>(size));
  }
  const std::string& str() const { return out_; }

 private:
  void Raw(const void* data, size_t size) {
    out_.append(static_cast<const char*>(data), size);
  }
  std::string out_;
};

// Bounds-checked reader over one section payload. Sticky: the first
// overrun or range failure is kept as a typed InvalidArgument and every
// later read is a no-op that leaves its target untouched, so a decoder
// walks its whole field list and checks status() only where a value
// drives control flow or reaches an API with its own preconditions.
class Reader {
 public:
  Reader(const u8* data, size_t size, const char* section)
      : data_(data), size_(size), section_(section) {}

  void operator()(u8& v) { Raw(&v, sizeof v); }
  void operator()(bool& v) {
    u8 raw = 0;
    (*this)(raw);
    v = raw != 0;
  }
  void operator()(i32& v) { Raw(&v, sizeof v); }
  void operator()(u32& v) { Raw(&v, sizeof v); }
  void operator()(i64& v) { Raw(&v, sizeof v); }
  void operator()(u64& v) { Raw(&v, sizeof v); }
  void operator()(double& v) { Raw(&v, sizeof v); }
  void operator()(std::string& s) {
    u32 n = 0;
    (*this)(n);
    if (static_cast<i64>(n) > kMaxStringBytes) {
      return Fail("string length out of range");
    }
    if (!Need(n)) return;
    s.assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
  }
  template <class R>
    requires std::is_class_v<R>
  void operator()(R& record) {
    Fields(*this, record);
  }
  template <class E>
  void Enum(E& e, E max, const char* what) {
    u8 raw = 0;
    (*this)(raw);
    if (raw > static_cast<u8>(max)) {
      return Fail(StrFormat("bad %s %u", what, raw));
    }
    e = static_cast<E>(raw);
  }
  template <class T>
  void Vec(std::vector<T>& xs, i64 cap, i64 min_record_bytes,
           const char* what) {
    const i64 n = Count(cap, min_record_bytes, what);
    xs.reserve(static_cast<size_t>(n));
    for (i64 i = 0; i < n && ok(); ++i) (*this)(xs.emplace_back());
  }
  template <class T>
  void Optional(std::optional<T>& x) {
    bool present = false;
    (*this)(present);
    if (present && ok()) (*this)(x.emplace());
  }
  // A declared count of records must fit in the bytes left, on top of the
  // semantic cap — a flipped length field fails here instead of driving a
  // huge loop. 0 once the reader has failed.
  i64 Count(i64 cap, i64 min_record_bytes, const char* what) {
    u32 raw = 0;
    (*this)(raw);
    const i64 n = static_cast<i64>(raw);
    if (n > cap || (min_record_bytes > 0 &&
                    n > static_cast<i64>(size_ - pos_) / min_record_bytes)) {
      Fail(StrFormat("%s count %lld out of range", what,
                     static_cast<long long>(n)));
      return 0;
    }
    return ok() ? n : 0;
  }
  void CopyBytes(u8* dst, i64 expect) {
    u64 n = 0;
    (*this)(n);
    if (ok() && static_cast<i64>(n) != expect) {
      return Fail(StrFormat("payload of %llu bytes, expected %lld",
                            static_cast<unsigned long long>(n),
                            static_cast<long long>(expect)));
    }
    if (!Need(n)) return;
    std::memcpy(dst, data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
  }
  // Keeps the first failure only: later ones are fallout of the first.
  void Fail(const std::string& what) {
    if (ok()) {
      status_ = Status::InvalidArgument(
          StrFormat("hab %s section: %s", section_, what.c_str()));
    }
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  // The section's verdict: the first failure, else trailing bytes.
  Status Finish() {
    if (ok() && pos_ != size_) {
      Fail(StrFormat("%zu trailing bytes", size_ - pos_));
    }
    return status_;
  }

 private:
  bool Need(u64 bytes) {
    if (!ok()) return false;
    if (bytes > size_ - pos_) {
      status_ = Status::InvalidArgument(
          StrFormat("hab %s section truncated at byte %zu", section_, pos_));
      return false;
    }
    return true;
  }
  void Raw(void* dst, size_t bytes) {
    if (!Need(bytes)) return;
    std::memcpy(dst, data_ + pos_, bytes);
    pos_ += bytes;
  }

  const u8* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* section_;
  Status status_;
};

// --- record field lists ------------------------------------------------------
//
// Each list is the record's byte layout inside its section: changing one
// changes the format, so a field is only ever appended together with a
// kHabVersion bump.

template <class V, FieldsOf<HabMeta> T>
void Fields(V& v, T& m) {
  v(m.model_name);
  v(m.producer);
}

template <class V, FieldsOf<tvmgen::BinarySizeReport> T>
void Fields(V& v, T& s) {
  v(s.runtime_bytes);
  v(s.code_bytes);
  v(s.weight_bytes);
}

template <class V, FieldsOf<compiler::BufferAssignment> T>
void Fields(V& v, T& b) {
  v(b.value);
  v(b.offset);
  v(b.size);
  v(b.def_time);
  v(b.last_use_time);
}

template <class V, FieldsOf<compiler::MemoryPlan> T>
void Fields(V& v, T& plan) {
  v(plan.arena_bytes);
  v(plan.total_l2_bytes);
  v(plan.fits);
  v(plan.reuse);
  v.Vec(plan.buffers, kMaxBuffers, 36, "buffer");
}

template <class V, FieldsOf<compiler::PassStat> T>
void Fields(V& v, T& p) {
  v(p.name);
  v(p.wall_ns);
  v(p.nodes_before);
  v(p.nodes_after);
  v(p.skipped);
}

template <class V, FieldsOf<compiler::PassTimeline> T>
void Fields(V& v, T& timeline) {
  v.Vec(timeline, kMaxPasses, 29, "pass");
}

template <class V, FieldsOf<compiler::DispatchDecision> T>
void Fields(V& v, T& d) {
  v(d.root);
  v(d.pattern);
  v(d.layer);
  v(d.target);
  v(d.reason);
}

template <class V, FieldsOf<compiler::DispatchLog> T>
void Fields(V& v, T& log) {
  v.Vec(log, kMaxDispatch, 20, "decision");
}

template <class V, FieldsOf<dory::AccelLayerSpec> T>
void Fields(V& v, T& sp) {
  v.Enum(sp.kind, dory::LayerKind::kMatmul, "layer kind");
  v(sp.c);
  v(sp.iy);
  v(sp.ix);
  v(sp.k);
  v(sp.oy);
  v(sp.ox);
  v(sp.kh);
  v(sp.kw);
  v(sp.sy);
  v(sp.sx);
  v(sp.pad_t);
  v(sp.pad_l);
  v(sp.pad_b);
  v(sp.pad_r);
  v.Enum(sp.weight_dtype, DType::kTernary, "dtype tag");
  v(sp.requant.shift);
  v(sp.requant.relu);
  v.Vec(sp.requant.channel_shifts, kMaxNodes, 8, "channel-shift");
}

template <class V, FieldsOf<dory::TileSolution> T>
void Fields(V& v, T& so) {
  v(so.c_t);
  v(so.k_t);
  v(so.oy_t);
  v(so.ox_t);
  v(so.iy_t);
  v(so.ix_t);
  v(so.n_c);
  v(so.n_k);
  v(so.n_y);
  v(so.n_x);
  v(so.needs_tiling);
  v(so.psum);
  v(so.objective);
  v(so.l1_bytes);
}

template <class V, FieldsOf<dory::TileStep> T>
void Fields(V& v, T& st) {
  v(st.c0);
  v(st.k0);
  v(st.y0);
  v(st.x0);
  v(st.c_t);
  v(st.k_t);
  v(st.oy_t);
  v(st.ox_t);
  v(st.iy_t);
  v(st.ix_t);
  v(st.first_c);
  v(st.last_c);
  v(st.compute_cycles);
  v(st.in_dma_cycles);
  v(st.out_dma_cycles);
  v(st.weight_dma_cycles);
  v(st.setup_cycles);
}

template <class V, FieldsOf<dory::AccelSchedule> T>
void Fields(V& v, T& s) {
  v.Enum(s.target, dory::AccelTarget::kAnalog, "schedule target");
  v(s.macs);
  v(s.compute_cycles);
  v(s.weight_dma_cycles);
  v(s.act_dma_cycles);
  v(s.exposed_act_cycles);
  v(s.overhead_cycles);
  v(s.peak_cycles);
  v(s.full_cycles);
  v(s.spec);
  v(s.solution);
  v(s.options);
  v.Vec(s.steps, kMaxSteps, 122, "step");
}

template <class V, FieldsOf<hw::KernelPerf> T>
void Fields(V& v, T& p) {
  v(p.name);
  v(p.target);
  v(p.macs);
  v(p.peak_cycles);
  v(p.full_cycles);
  v(p.compute_cycles);
  v(p.weight_dma_cycles);
  v(p.act_dma_cycles);
  v(p.overhead_cycles);
  v(p.tiles);
}

template <class V, FieldsOf<compiler::CompiledKernel> T>
void Fields(V& v, T& k) {
  v(k.name);
  v(k.target);
  v(k.node);
  v(k.code_bytes);
  v(k.weight_bytes);
  v(k.perf);
  v.Optional(k.schedule);
}

template <class V, FieldsOf<std::vector<compiler::CompiledKernel>> T>
void Fields(V& v, T& kernels) {
  v.Vec(kernels, kMaxKernels, 42, "kernel");
}

// --- graph encoding ----------------------------------------------------------

// One attribute payload; its tag (the AttrValue variant index) precedes it.
template <class V, class X>
void AttrPayload(V& v, X& x) {
  if constexpr (std::is_same_v<std::remove_const_t<X>, std::vector<i64>>) {
    v.Vec(x, i64{1} << 16, 8, "int-vec");
  } else {
    v(x);
  }
}

void WriteShape(Writer& w, const Shape& shape) {
  w(static_cast<u8>(shape.rank()));
  for (i64 d : shape.dims()) w(d);
}

void WriteAttrs(Writer& w, const AttrMap& attrs) {
  w(static_cast<u32>(attrs.values().size()));
  for (const auto& [key, value] : attrs.values()) {
    w(key);
    w(static_cast<u8>(value.index()));
    std::visit([&w](const auto& x) { AttrPayload(w, x); }, value);
  }
}

void WriteGraph(Writer& w, const Graph& g) {
  w(static_cast<u32>(g.NumNodes()));
  for (const Node& n : g.nodes()) {
    w(static_cast<u8>(n.kind));
    switch (n.kind) {
      case NodeKind::kInput:
        w(n.name);
        w(static_cast<u8>(n.type.dtype));
        WriteShape(w, n.type.shape);
        break;
      case NodeKind::kConstant:
        w(n.name);
        w(static_cast<u8>(n.value.dtype()));
        WriteShape(w, n.value.shape());
        w.Bytes(n.value.raw(), n.value.SizeBytes());
        break;
      case NodeKind::kOp:
      case NodeKind::kComposite:
        w(n.op);
        w(n.name);
        w.Vec(n.inputs, 0, 0, "input");
        WriteAttrs(w, n.attrs);
        if (n.kind == NodeKind::kComposite) WriteGraph(w, *n.body);
        break;
    }
  }
  w.Vec(g.outputs(), 0, 0, "output");
}

Shape ReadShape(Reader& r) {
  u8 rank = 0;
  r(rank);
  if (rank > 8) {
    r.Fail("shape rank > 8");
    return Shape();
  }
  std::vector<i64> dims(rank);
  i64 elems = 1;
  for (i64& d : dims) {
    r(d);
    if (d < 0 || d > (i64{1} << 24)) {
      r.Fail("dim out of range");
      return Shape();
    }
    // Guard the product too: eight 2^24 dims would overflow i64 in
    // NumElements and demand an absurd allocation.
    elems *= std::max<i64>(d, 1);
    if (elems > (i64{1} << 26)) {
      r.Fail("tensor element count out of range");
      return Shape();
    }
  }
  return Shape(dims);
}

AttrMap ReadAttrs(Reader& r) {
  AttrMap attrs;
  const i64 n = r.Count(kMaxAttrs, 6, "attr");
  for (i64 i = 0; i < n && r.ok(); ++i) {
    std::string key;
    u8 tag = 0;
    r(key);
    r(tag);
    // The tag is the variant index; decode into that alternative's zero.
    static const AttrValue kZero[] = {false, i64{0}, 0.0, std::string(),
                                      std::vector<i64>()};
    if (tag >= std::size(kZero)) {
      r.Fail(StrFormat("bad attr tag %u", tag));
      break;
    }
    AttrValue value = kZero[tag];
    std::visit([&r](auto& x) { AttrPayload(r, x); }, value);
    attrs.Set(key, std::move(value));
  }
  return attrs;
}

std::vector<NodeId> ReadIdList(Reader& r, i64 cap, i64 num_nodes,
                               const char* what) {
  std::vector<NodeId> ids;
  r.Vec(ids, cap, 4, what);
  for (NodeId id : ids) {
    if (id < 0 || id >= num_nodes) {
      r.Fail(StrFormat("%s id %d out of range", what, id));
      break;
    }
  }
  return ids;
}

// Decoded values reach the Graph API, whose preconditions are CHECKs, only
// after status() confirms they are sound.
Status ReadGraph(Reader& r, Graph& g, bool allow_composite) {
  const i64 num_nodes = r.Count(kMaxNodes, 2, "node");
  for (i64 i = 0; i < num_nodes; ++i) {
    u8 kind = 0;
    r(kind);
    HTVM_RETURN_IF_ERROR(r.status());
    switch (kind) {
      case static_cast<u8>(NodeKind::kInput):
      case static_cast<u8>(NodeKind::kConstant): {
        std::string name;
        DType dtype = DType::kInt8;
        r(name);
        r.Enum(dtype, DType::kTernary, "dtype tag");
        const Shape shape = ReadShape(r);
        HTVM_RETURN_IF_ERROR(r.status());
        if (kind == static_cast<u8>(NodeKind::kInput)) {
          g.AddInput(name, {shape, dtype});
          break;
        }
        Tensor t(shape, dtype);
        r.CopyBytes(t.raw(), t.SizeBytes());
        HTVM_RETURN_IF_ERROR(r.status());
        g.AddConstant(std::move(t), name);
        break;
      }
      case static_cast<u8>(NodeKind::kOp): {
        std::string op, name;
        r(op);
        r(name);
        std::vector<NodeId> inputs =
            ReadIdList(r, kMaxInputs, g.NumNodes(), "op input");
        AttrMap attrs = ReadAttrs(r);
        HTVM_RETURN_IF_ERROR(r.status());
        // Every rejection is corruption here, an unknown op name included:
        // NotFound would read as "file missing" to a runner.
        auto id = g.TryAddOp(op, std::move(inputs), std::move(attrs), name);
        if (!id.ok()) {
          return Status::InvalidArgument("hab graph section: " +
                                         id.status().message());
        }
        break;
      }
      case static_cast<u8>(NodeKind::kComposite): {
        if (!allow_composite) {
          return Status::InvalidArgument(
              "hab graph section: nested composite in body");
        }
        std::string op, name;
        r(op);
        r(name);
        std::vector<NodeId> inputs =
            ReadIdList(r, kMaxInputs, g.NumNodes(), "composite input");
        AttrMap attrs = ReadAttrs(r);
        HTVM_RETURN_IF_ERROR(r.status());
        HTVM_RETURN_IF_ERROR(CheckAttrTypes(attrs));
        auto body = std::make_shared<Graph>();
        HTVM_RETURN_IF_ERROR(ReadGraph(r, *body, /*allow_composite=*/false));
        // AddComposite asserts these invariants; a corrupt file must fail
        // with a status instead.
        if (body->outputs().size() != 1) {
          return Status::InvalidArgument(
              "hab graph section: composite body output count != 1");
        }
        if (body->inputs().size() != inputs.size()) {
          return Status::InvalidArgument(
              "hab graph section: composite arity mismatch with body");
        }
        const NodeId id =
            g.AddComposite(op, std::move(inputs), std::move(body),
                           std::move(attrs));
        g.mutable_node(id).name = name;
        break;
      }
      default:
        return Status::InvalidArgument(
            StrFormat("hab graph section: bad node kind %u", kind));
    }
  }
  std::vector<NodeId> outputs =
      ReadIdList(r, kMaxNodes, g.NumNodes(), "output");
  HTVM_RETURN_IF_ERROR(r.status());
  if (outputs.empty()) {
    return Status::InvalidArgument("hab graph section: empty output list");
  }
  g.SetOutputs(std::move(outputs));
  return Status::Ok();
}

// --- header / section table ------------------------------------------------

u32 LoadU32(const u8* p) {
  u32 v;
  std::memcpy(&v, p, 4);
  return v;
}

u64 LoadU64(const u8* p) {
  u64 v;
  std::memcpy(&v, p, 8);
  return v;
}

u32 ByteSwap32(u32 v) {
  return ((v & 0xffu) << 24) | ((v & 0xff00u) << 8) | ((v >> 8) & 0xff00u) |
         (v >> 24);
}

}  // namespace

u64 HabChecksum(const u8* data, size_t size) {
  // FNV-1a 64.
  u64 h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

bool LooksLikeHab(std::span<const u8> data) {
  return data.size() >= sizeof kHabMagic &&
         std::memcmp(data.data(), kHabMagic, sizeof kHabMagic) == 0;
}

bool LooksLikeHab(const std::string& data) {
  return LooksLikeHab(std::span<const u8>(
      reinterpret_cast<const u8*>(data.data()), data.size()));
}

namespace {

std::string SerializeHabImpl(const compiler::Artifact& a, const HabMeta& meta,
                             bool scrub_wall_ns) {
  struct Section {
    HabSection id;
    std::string payload;
  };
  std::vector<Section> sections;
  const auto add = [&](HabSection id, const auto& record) {
    Writer w;
    w(record);
    sections.push_back({id, w.str()});
  };
  compiler::PassTimeline scrubbed;
  if (scrub_wall_ns) {
    scrubbed = a.pass_timeline;
    for (compiler::PassStat& p : scrubbed) p.wall_ns = 0;
  }
  add(HabSection::kMeta, meta);
  add(HabSection::kHwConfig, a.hw_config);
  add(HabSection::kSize, a.size);
  add(HabSection::kMemPlan, a.memory_plan);
  add(HabSection::kPasses, scrub_wall_ns ? scrubbed : a.pass_timeline);
  add(HabSection::kDispatch, a.dispatch_log);
  {
    Writer w;
    WriteGraph(w, a.kernel_graph);
    sections.push_back({HabSection::kGraph, w.str()});
  }
  add(HabSection::kKernels, a.kernels);
  // kSoc only for non-default SoCs: keeps "diana" HABs byte-identical to
  // pre-SoC-family producers (and loadable by their readers, which skip
  // unknown section ids).
  if (a.soc_name != "diana") add(HabSection::kSoc, a.soc_name);
  // kPlan only when a graph-level search actually produced a plan: the
  // heuristic path serializes byte-identically to pre-graph-search HABs.
  if (!a.plan.empty()) add(HabSection::kPlan, a.plan.Serialize());

  // Lay out payloads 8-byte aligned after header + section table.
  const size_t table_bytes = sections.size() * kHabSectionEntryBytes;
  u64 offset = kHabHeaderBytes + table_bytes;
  Writer table;
  std::string payloads;
  for (const Section& s : sections) {
    offset = (offset + 7) & ~u64{7};
    while ((kHabHeaderBytes + table_bytes + payloads.size()) < offset) {
      payloads.push_back('\0');
    }
    table(static_cast<u32>(s.id));
    table(u32{0});  // flags, reserved
    table(offset);
    table(static_cast<u64>(s.payload.size()));
    table(HabChecksum(reinterpret_cast<const u8*>(s.payload.data()),
                      s.payload.size()));
    payloads += s.payload;
    offset += s.payload.size();
  }

  Writer header;
  header(LoadU64(reinterpret_cast<const u8*>(kHabMagic)));
  header(kHabVersion);
  header(kHabEndianTag);
  header(kHabHeaderBytes);
  header(static_cast<u32>(sections.size()));
  header(offset);  // total file bytes
  std::string out = header.str();
  out.resize(kHabHeaderBytes, '\0');
  out += table.str();
  out += payloads;
  return out;
}

}  // namespace

std::string SerializeHab(const compiler::Artifact& a, const HabMeta& meta) {
  return SerializeHabImpl(a, meta, /*scrub_wall_ns=*/false);
}

std::string SerializeHabForDiff(const compiler::Artifact& a) {
  return SerializeHabImpl(a, {}, /*scrub_wall_ns=*/true);
}

Result<ParsedHab> ParseHab(std::span<const u8> data) {
  if (data.size() < kHabHeaderBytes) {
    return Status::InvalidArgument(StrFormat(
        "hab: file of %zu bytes is shorter than the %u-byte header",
        data.size(), kHabHeaderBytes));
  }
  if (!LooksLikeHab(data)) {
    return Status::InvalidArgument(
        "hab: bad magic (not an htvm-artifact v2 binary)");
  }
  const u32 endian = LoadU32(data.data() + kHabEndianOffset);
  if (endian != kHabEndianTag) {
    if (ByteSwap32(endian) == kHabEndianTag) {
      return Status::Unsupported(
          "hab: foreign-endian file (produced on an opposite-endian host)");
    }
    return Status::InvalidArgument(
        StrFormat("hab: bad endianness tag 0x%08x", endian));
  }
  const u32 version = LoadU32(data.data() + kHabVersionOffset);
  if (version != kHabVersion) {
    return Status::Unsupported(StrFormat(
        "hab: unsupported format version %u (this runtime supports v%u)",
        version, kHabVersion));
  }
  const u32 header_bytes = LoadU32(data.data() + kHabHeaderBytesOffset);
  if (header_bytes != kHabHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("hab: bad header size %u", header_bytes));
  }
  const u32 section_count = LoadU32(data.data() + kHabSectionCountOffset);
  if (section_count == 0 || section_count > kMaxSections) {
    return Status::InvalidArgument(
        StrFormat("hab: section count %u out of range", section_count));
  }
  const u64 file_bytes = LoadU64(data.data() + kHabFileBytesOffset);
  if (file_bytes != data.size()) {
    return Status::InvalidArgument(StrFormat(
        "hab: header declares %llu bytes but file has %zu (truncated?)",
        static_cast<unsigned long long>(file_bytes), data.size()));
  }
  const u64 table_end =
      u64{kHabHeaderBytes} + u64{section_count} * kHabSectionEntryBytes;
  if (table_end > data.size()) {
    return Status::InvalidArgument("hab: section table exceeds file size");
  }

  ParsedHab parsed;
  struct Span {
    const u8* data = nullptr;
    size_t size = 0;
  };
  Span by_id[16];
  for (u32 i = 0; i < section_count; ++i) {
    const u8* e = data.data() + kHabHeaderBytes +
                  u64{i} * kHabSectionEntryBytes;
    HabSectionInfo info;
    info.id = LoadU32(e);
    const u64 offset = LoadU64(e + 8);
    const u64 bytes = LoadU64(e + 16);
    info.checksum = LoadU64(e + 24);
    if (offset > data.size() || bytes > data.size() - offset) {
      return Status::InvalidArgument(StrFormat(
          "hab: section %u spans [%llu, +%llu) outside the %zu-byte file",
          info.id, static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(bytes), data.size()));
    }
    info.offset = static_cast<i64>(offset);
    info.bytes = static_cast<i64>(bytes);
    const u8* payload = data.data() + offset;
    if (HabChecksum(payload, static_cast<size_t>(bytes)) != info.checksum) {
      return Status::InvalidArgument(
          StrFormat("hab: section %u checksum mismatch (corrupt file)",
                    info.id));
    }
    parsed.sections.push_back(info);
    // Unknown section ids are valid (additive extensions); known duplicates
    // are not.
    if (info.id < 16) {
      if (by_id[info.id].data != nullptr) {
        return Status::InvalidArgument(
            StrFormat("hab: duplicate section %u", info.id));
      }
      by_id[info.id] = {payload, static_cast<size_t>(bytes)};
    }
  }

  const auto section = [&](HabSection id) -> Result<Span> {
    const Span s = by_id[static_cast<u32>(id)];
    if (s.data == nullptr) {
      return Status::InvalidArgument(
          StrFormat("hab: missing section %u", static_cast<u32>(id)));
    }
    return s;
  };

  const auto read = [&](HabSection id, const char* name,
                        auto& record) -> Status {
    HTVM_ASSIGN_OR_RETURN(s, section(id));
    Reader r(s.data, s.size, name);
    r(record);
    return r.Finish();
  };
  compiler::Artifact& a = parsed.artifact;
  HTVM_RETURN_IF_ERROR(read(HabSection::kMeta, "meta", parsed.meta));
  HTVM_RETURN_IF_ERROR(read(HabSection::kHwConfig, "hw-config", a.hw_config));
  HTVM_RETURN_IF_ERROR(read(HabSection::kSize, "size", a.size));
  HTVM_RETURN_IF_ERROR(read(HabSection::kMemPlan, "mem-plan", a.memory_plan));
  HTVM_RETURN_IF_ERROR(read(HabSection::kPasses, "passes", a.pass_timeline));
  HTVM_RETURN_IF_ERROR(read(HabSection::kDispatch, "dispatch", a.dispatch_log));
  {
    HTVM_ASSIGN_OR_RETURN(s, section(HabSection::kGraph));
    Reader r(s.data, s.size, "graph");
    HTVM_RETURN_IF_ERROR(ReadGraph(r, a.kernel_graph,
                                   /*allow_composite=*/true));
    HTVM_RETURN_IF_ERROR(r.Finish());
    HTVM_RETURN_IF_ERROR(a.kernel_graph.Validate());
  }
  HTVM_RETURN_IF_ERROR(read(HabSection::kKernels, "kernels", a.kernels));
  for (const compiler::CompiledKernel& k : a.kernels) {
    if (k.node < 0 || k.node >= a.kernel_graph.NumNodes()) {
      return Status::InvalidArgument(
          "hab kernels section: kernel node id out of range");
    }
  }
  // kSoc is optional: absent in every "diana" HAB (and everything produced
  // before SoC families existed), where the member default applies.
  {
    const Span s = by_id[static_cast<u32>(HabSection::kSoc)];
    if (s.data != nullptr) {
      Reader r(s.data, s.size, "soc");
      std::string name;
      r(name);
      HTVM_RETURN_IF_ERROR(r.Finish());
      if (name.empty()) {
        return Status::InvalidArgument("hab: soc section names an empty SoC");
      }
      a.soc_name = name;
    }
  }
  // kPlan is optional: absent for heuristic compiles and everything
  // produced before graph-level search existed. When present, the plan
  // must name the artifact's own SoC — a plan searched for SoC A encodes
  // A's fusion legality and dispatch capabilities, so replaying it against
  // another SoC would be silently wrong. Refuse with a typed error.
  {
    const Span s = by_id[static_cast<u32>(HabSection::kPlan)];
    if (s.data != nullptr) {
      Reader r(s.data, s.size, "plan");
      std::string text;
      r(text);
      HTVM_RETURN_IF_ERROR(r.Finish());
      HTVM_ASSIGN_OR_RETURN(plan, dory::GraphPlan::Deserialize(text));
      if (plan.soc_name != a.soc_name) {
        return Status::InvalidArgument(StrFormat(
            "hab: plan section was searched for soc \"%s\" but the artifact "
            "targets soc \"%s\" — refusing to replay a cross-SoC plan",
            plan.soc_name.c_str(), a.soc_name.c_str()));
      }
      a.plan = std::move(plan);
    }
  }
  return parsed;
}

Status SaveHab(const compiler::Artifact& artifact, const HabMeta& meta,
               const std::string& path) {
  // Atomic publish: concurrent writers race on the same path; rename makes
  // readers see nothing or a complete file.
  const std::string tmp =
      path + StrFormat(".tmp.%d", static_cast<int>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::binary);
    if (!out) return Status::Internal("cannot open " + tmp);
    const std::string bytes = SerializeHab(artifact, meta);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) return Status::Internal("cannot write " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace htvm::vm
