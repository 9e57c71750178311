// HAB (htvm-artifact v2) round-trip and end-to-end VM tests.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <utility>
#include <vector>

#include "cache/artifact_cache.hpp"
#include "compiler/pipeline.hpp"
#include "hw/soc.hpp"
#include "models/mlperf_tiny.hpp"
#include "runtime/executor.hpp"
#include "vm/hab.hpp"
#include "vm/vm_executor.hpp"

namespace htvm::vm {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("htvm_vm_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter()++));
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  static int& counter() {
    static int c = 0;
    return c;
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

compiler::Artifact MustCompile(const Graph& g,
                               const compiler::CompileOptions& options = {}) {
  auto artifact = compiler::HtvmCompiler{options}.Compile(g);
  HTVM_CHECK(artifact.ok());
  return std::move(*artifact);
}

compiler::Artifact CompileDsCnn() {
  return MustCompile(models::BuildDsCnn(models::PrecisionPolicy::kMixed));
}

Result<ParsedHab> Parse(const std::string& bytes) {
  return ParseHab({reinterpret_cast<const u8*>(bytes.data()), bytes.size()});
}

TEST(Hab, RoundTripIsBitIdentical) {
  // Every MLPerf Tiny model x a heterogeneous and a digital-only config:
  // serialize, parse back (ParseHab validates the kernel graph),
  // re-serialize — the two images must be byte-identical.
  for (const auto& m : models::MlperfTinySuite()) {
    for (const auto& [cfg, options] :
         {std::pair<const char*, compiler::CompileOptions>{
              "mixed", compiler::CompileOptions{}},
          {"digital", compiler::CompileOptions::DigitalOnly()}}) {
      const compiler::Artifact a =
          MustCompile(m.build(models::PrecisionPolicy::kMixed), options);
      HabMeta meta;
      meta.model_name = m.name;
      meta.producer = "test";
      const std::string bytes = SerializeHab(a, meta);
      ASSERT_TRUE(LooksLikeHab(bytes));

      auto parsed = Parse(bytes);
      ASSERT_TRUE(parsed.ok())
          << m.name << "/" << cfg << ": " << parsed.status().ToString();
      EXPECT_EQ(parsed->meta.model_name, m.name);
      EXPECT_EQ(parsed->meta.producer, "test");
      EXPECT_EQ(SerializeHab(parsed->artifact, parsed->meta), bytes)
          << m.name << "/" << cfg;
    }
  }
}

// The round trip above only proves what SerializeHab writes. This pins what
// it writes: perturbing any one field of a compiled artifact must change
// the diff bytes, and perturbing pass wall-clock must not.
TEST(Hab, DiffFormSeesEveryArtifactField) {
  compiler::CompileOptions options;
  // Graph-level search, so the artifact carries a non-empty plan.
  options.schedule_search.kind = dory::ScheduleSearchKind::kGraphBeam;
  const compiler::Artifact base = MustCompile(
      models::BuildDsCnn(models::PrecisionPolicy::kMixed), options);
  ASSERT_FALSE(base.plan.empty());
  ASSERT_FALSE(base.memory_plan.buffers.empty());
  ASSERT_FALSE(base.dispatch_log.empty());
  ASSERT_FALSE(base.pass_timeline.empty());

  size_t scheduled = base.kernels.size();
  for (size_t i = 0; i < base.kernels.size(); ++i) {
    if (base.kernels[i].schedule.has_value() &&
        !base.kernels[i].schedule->steps.empty()) {
      scheduled = i;
      break;
    }
  }
  ASSERT_LT(scheduled, base.kernels.size());
  // Weights live in the composite bodies: find one body constant and one
  // body op with an integer attr.
  NodeId const_composite = kInvalidNode;
  NodeId body_const = kInvalidNode;
  NodeId attr_composite = kInvalidNode;
  NodeId body_op = kInvalidNode;
  std::string body_attr;
  for (const Node& n : base.kernel_graph.nodes()) {
    if (n.kind != NodeKind::kComposite) continue;
    for (const Node& b : n.body->nodes()) {
      if (b.kind == NodeKind::kConstant && b.value.SizeBytes() > 0 &&
          body_const == kInvalidNode) {
        const_composite = n.id;
        body_const = b.id;
      }
      for (const auto& [key, value] : b.attrs.values()) {
        if (attr_composite != kInvalidNode) break;
        if (!std::holds_alternative<i64>(value)) continue;
        attr_composite = n.id;
        body_op = b.id;
        body_attr = key;
      }
    }
  }
  ASSERT_NE(body_const, kInvalidNode);
  ASSERT_NE(body_op, kInvalidNode);
  // Composite bodies are shared between artifact copies: edit a clone.
  const auto edit_body = [](compiler::Artifact& a, NodeId composite,
                            const std::function<void(Graph&)>& edit) {
    Node& node = a.kernel_graph.mutable_node(composite);
    auto body = std::make_shared<Graph>(*node.body);
    edit(*body);
    node.body = std::move(body);
  };

  using Perturb = std::function<void(compiler::Artifact&)>;
  std::vector<std::pair<std::string, Perturb>> fields = {
      {"kernel name", [](auto& a) { a.kernels[0].name += "'"; }},
      {"kernel target",
       [](auto& a) {
         a.kernels[0].target = a.kernels[0].target == "cpu" ? "digital" : "cpu";
       }},
      {"kernel node", [](auto& a) { a.kernels[0].node += 1; }},
      {"kernel code_bytes", [](auto& a) { a.kernels[0].code_bytes += 1; }},
      {"kernel weight_bytes", [](auto& a) { a.kernels[0].weight_bytes += 1; }},
      {"perf name", [](auto& a) { a.kernels[0].perf.name += "'"; }},
      {"perf target", [](auto& a) { a.kernels[0].perf.target += "'"; }},
      {"schedule tile",
       [&](auto& a) { a.kernels[scheduled].schedule->solution.k_t += 1; }},
      {"schedule step",
       [&](auto& a) {
         a.kernels[scheduled].schedule->steps[0].compute_cycles += 1;
       }},
      {"schedule spec",
       [&](auto& a) { a.kernels[scheduled].schedule->spec.c += 1; }},
      {"schedule options",
       [&](auto& a) { a.kernels[scheduled].schedule->options.alpha += 0.5; }},
      {"mem-plan buffer",
       [](auto& a) { a.memory_plan.buffers[0].offset += 8; }},
      {"mem-plan arena", [](auto& a) { a.memory_plan.arena_bytes += 1; }},
      {"dispatch reason", [](auto& a) { a.dispatch_log[0].reason += "'"; }},
      {"pass name", [](auto& a) { a.pass_timeline[0].name += "'"; }},
      {"pass nodes_before",
       [](auto& a) { a.pass_timeline[0].nodes_before += 1; }},
      {"pass nodes_after",
       [](auto& a) { a.pass_timeline[0].nodes_after += 1; }},
      {"pass skipped",
       [](auto& a) {
         a.pass_timeline[0].skipped = !a.pass_timeline[0].skipped;
       }},
      {"size runtime", [](auto& a) { a.size.runtime_bytes += 1; }},
      {"size code", [](auto& a) { a.size.code_bytes += 1; }},
      {"size weight", [](auto& a) { a.size.weight_bytes += 1; }},
      {"hw l1", [](auto& a) { a.hw_config.l1_bytes += 1; }},
      {"hw dma", [](auto& a) { a.hw_config.dma.setup_cycles += 1; }},
      {"hw digital", [](auto& a) { a.hw_config.digital.pe_rows += 1; }},
      {"hw analog", [](auto& a) { a.hw_config.analog.array_rows += 1; }},
      {"hw cpu", [](auto& a) { a.hw_config.cpu.conv_cycles_per_mac += 0.5; }},
      {"soc_name", [](auto& a) { a.soc_name = "diana-l2x2"; }},
      {"plan decision",
       [](auto& a) {
         a.plan.decisions[0].fuse_with_next =
             !a.plan.decisions[0].fuse_with_next;
       }},
      {"plan soc", [](auto& a) { a.plan.soc_name = "diana-l2x2"; }},
      {"body constant byte",
       [&](auto& a) {
         edit_body(a, const_composite, [&](Graph& body) {
           body.mutable_node(body_const).value.raw()[0] ^= 1;
         });
       }},
      {"body op attr",
       [&](auto& a) {
         edit_body(a, attr_composite, [&](Graph& body) {
           AttrMap& attrs = body.mutable_node(body_op).attrs;
           attrs.Set(body_attr, attrs.GetInt(body_attr) + 1);
         });
       }},
  };
  for (i64 hw::KernelPerf::*counter :
       {&hw::KernelPerf::macs, &hw::KernelPerf::peak_cycles,
        &hw::KernelPerf::full_cycles, &hw::KernelPerf::compute_cycles,
        &hw::KernelPerf::weight_dma_cycles, &hw::KernelPerf::act_dma_cycles,
        &hw::KernelPerf::overhead_cycles, &hw::KernelPerf::tiles}) {
    fields.emplace_back("perf counter", [counter](compiler::Artifact& a) {
      a.kernels[0].perf.*counter += 1;
    });
  }

  const std::string reference = SerializeHabForDiff(base);
  for (const auto& [field, perturb] : fields) {
    compiler::Artifact perturbed = base;
    perturb(perturbed);
    EXPECT_NE(SerializeHabForDiff(perturbed), reference)
        << field << " is invisible to the diff form";
  }
  // The perturbations worked on copies: the base artifact is untouched.
  EXPECT_EQ(SerializeHabForDiff(base), reference);

  // Wall-clock is measurement, not content.
  compiler::Artifact retimed = base;
  for (compiler::PassStat& p : retimed.pass_timeline) p.wall_ns += 12345;
  EXPECT_EQ(SerializeHabForDiff(retimed), reference);
  EXPECT_NE(SerializeHab(retimed), SerializeHab(base));
}

TEST(Hab, SectionTableIsComplete) {
  const compiler::Artifact a = CompileDsCnn();
  auto parsed = Parse(SerializeHab(a));
  ASSERT_TRUE(parsed.ok());
  // A default-SoC (diana) artifact has no kSoc section: the byte format is
  // identical to what pre-SoC-family writers produced.
  ASSERT_EQ(parsed->sections.size(), 8u);
  for (u32 id = 1; id <= 8; ++id) {
    EXPECT_EQ(parsed->sections[id - 1].id, id);
    EXPECT_EQ(parsed->sections[id - 1].offset % 8, 0) << "section " << id;
  }
  EXPECT_EQ(parsed->artifact.soc_name, "diana");
}

TEST(Hab, SocIdentityRoundTrips) {
  // A non-default SoC adds the kSoc section and survives the round trip
  // bit-identically; the parsed artifact carries the SoC name the compiler
  // recorded.
  Graph g = models::BuildDsCnn(models::PrecisionPolicy::kMixed);
  compiler::CompileOptions options;
  options.soc = *hw::FindSoc("diana-l1half");
  auto compiled = compiler::HtvmCompiler{options}.Compile(g);
  ASSERT_TRUE(compiled.ok());
  ASSERT_EQ(compiled->soc_name, "diana-l1half");

  const std::string bytes = SerializeHab(*compiled);
  auto parsed = Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->sections.size(), 9u);
  EXPECT_EQ(parsed->sections.back().id,
            static_cast<u32>(HabSection::kSoc));
  EXPECT_EQ(parsed->artifact.soc_name, "diana-l1half");
  EXPECT_EQ(SerializeHab(parsed->artifact, parsed->meta), bytes);
}

TEST(Hab, FileRoundTripThroughLoader) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();
  HabMeta meta;
  meta.model_name = "dscnn";
  const std::string path = dir.file("model.hab");
  ASSERT_TRUE(SaveHab(a, meta, path).ok());

  auto loaded = LoadedArtifact::FromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->zero_copy_source());
  EXPECT_GT(loaded->file_bytes(), 0);
  EXPECT_EQ(SerializeHab(loaded->artifact(), loaded->meta()),
            SerializeHab(a, meta));
}

TEST(Hab, MissingFileIsNotFound) {
  auto loaded = LoadedArtifact::FromFile("/nonexistent/model.hab");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(Hab, VmExecutorBitExactWithInProcessExecutor) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();
  const std::string path = dir.file("model.hab");
  ASSERT_TRUE(SaveHab(a, {}, path).ok());
  auto loaded = LoadedArtifact::FromFile(path);
  ASSERT_TRUE(loaded.ok());

  const VmExecutor vm_exec(std::move(*loaded));
  const runtime::Executor in_process(&a);
  const std::vector<Tensor> inputs = SyntheticInputs(a, 42);

  auto from_vm = vm_exec.Run(inputs);
  auto from_compile = in_process.Run(inputs);
  ASSERT_TRUE(from_vm.ok()) << from_vm.status().ToString();
  ASSERT_TRUE(from_compile.ok());
  ASSERT_EQ(from_vm->outputs.size(), from_compile->outputs.size());
  for (size_t i = 0; i < from_vm->outputs.size(); ++i) {
    EXPECT_TRUE(from_vm->outputs[i].SameAs(from_compile->outputs[i]));
  }
  EXPECT_EQ(from_vm->total_cycles, from_compile->total_cycles);
}

TEST(Hab, TensorFileRoundTrip) {
  TempDir dir;
  Rng rng(5);
  std::vector<Tensor> tensors;
  tensors.push_back(Tensor::Random(Shape{1, 8, 4, 4}, DType::kInt8, rng));
  tensors.push_back(Tensor::Random(Shape{12}, DType::kInt32, rng));
  const std::string path = dir.file("io.tensors");
  ASSERT_TRUE(SaveTensors(tensors, path).ok());

  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_TRUE((*loaded)[0].SameAs(tensors[0]));
  EXPECT_TRUE((*loaded)[1].SameAs(tensors[1]));

  EXPECT_EQ(LoadTensors(dir.file("missing.tensors")).status().code(),
            StatusCode::kNotFound);
  std::ofstream(dir.file("junk.tensors")) << "not a tensor file";
  EXPECT_EQ(LoadTensors(dir.file("junk.tensors")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(Hab, CacheTreatsV1TextAsAMissAndReplacesItWithHab) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();
  const std::string path = dir.file("model.htvmart");
  const auto file_head = [&path] {
    std::ifstream in(path, std::ios::binary);
    std::string head(8, '\0');
    in.read(head.data(), 8);
    return head;
  };

  // A v1 text file left by an older build is not an artifact this build
  // reads: the lookup misses...
  std::ofstream(path) << "htvm-artifact v1\nhw 1 2\nend\n";
  cache::ArtifactCache cache({.dir = dir.path.string()});
  EXPECT_EQ(cache.Lookup("model"), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_FALSE(LooksLikeHab(file_head()));

  // ...the store after the recompile overwrites it with a HAB...
  cache.Store("model", a);
  EXPECT_EQ(cache.stats().disk_writes, 1);
  EXPECT_TRUE(LooksLikeHab(file_head()));

  // ...which the next process serves from disk.
  cache::ArtifactCache reader({.dir = dir.path.string()});
  auto hit = reader.Lookup("model");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(reader.stats().disk_hits, 1);
  EXPECT_EQ(SerializeHab(*hit), SerializeHab(a));
}

TEST(Hab, CorruptCacheFileDegradesToMiss) {
  TempDir dir;
  const compiler::Artifact a = CompileDsCnn();
  cache::ArtifactCache writer({.dir = dir.path.string()});
  writer.Store("model", a);

  // Flip one byte in the middle of the file: checksum must catch it and the
  // cache must treat the file as a miss instead of crashing.
  const std::string path = dir.file("model.htvmart");
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  cache::ArtifactCache reader({.dir = dir.path.string()});
  EXPECT_EQ(reader.Lookup("model"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1);
}

}  // namespace
}  // namespace htvm::vm
