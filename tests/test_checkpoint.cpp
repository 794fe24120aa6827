// Tests for hardened checkpoints: AXNP v3 CRC footer, atomic writes,
// corruption rejection, v2 compatibility, and the Workbench treating any
// unusable cache as a cache miss.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>

#include <unistd.h>

#include "axnn/core/pipeline.hpp"
#include "axnn/nn/activations.hpp"
#include "axnn/nn/conv2d.hpp"
#include "axnn/nn/linear.hpp"
#include "axnn/nn/pooling.hpp"
#include "axnn/nn/sequential.hpp"
#include "axnn/nn/serialize.hpp"
#include "axnn/resilience/checkpoint.hpp"
#include "axnn/tensor/rng.hpp"

namespace axnn::nn {
namespace {

namespace fs = std::filesystem;

std::unique_ptr<Sequential> tiny_net(uint64_t seed = 5) {
  Rng rng(seed);
  auto net = std::make_unique<Sequential>("tiny");
  net->emplace<Conv2d>(Conv2dConfig{3, 4, 3, 1, 1, 1, true}, rng);
  net->emplace<ReLU>();
  net->emplace<GlobalAvgPool>();
  net->emplace<Linear>(4, 10, rng);
  return net;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& buf) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

/// A temp directory of the running test's own, named after the test and
/// the process: `ctest -j` runs the tests in concurrent processes, and a
/// name shared by sibling tests would let one test's SetUp/TearDown delete
/// another's files.
std::string own_temp_dir() {
  const ::testing::TestInfo* t = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string name = std::string("axnn_") + t->test_suite_name() + "." + t->name() + "." +
                           std::to_string(::getpid());
  return (fs::temp_directory_path() / name).string();
}

std::string message_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

class CheckpointFile : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = own_temp_dir();
    fs::create_directories(dir_);
    path_ = dir_ + "/net.axnp";
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_, path_;
};

TEST_F(CheckpointFile, V3RoundTripRestoresEveryParameter) {
  auto src = tiny_net(5);
  save_params(*src, path_);
  EXPECT_TRUE(is_param_file(path_));
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));  // atomic write left no temp file

  auto dst = tiny_net(99);  // different init, same structure
  load_params(*dst, path_);
  const auto ps = collect_params(*src), pd = collect_params(*dst);
  ASSERT_EQ(ps.size(), pd.size());
  for (size_t i = 0; i < ps.size(); ++i) {
    ASSERT_EQ(ps[i]->value.shape(), pd[i]->value.shape());
    for (int64_t j = 0; j < ps[i]->value.numel(); ++j)
      EXPECT_EQ(ps[i]->value[j], pd[i]->value[j]);
  }
}

TEST_F(CheckpointFile, V2FilesStayLoadable) {
  auto src = tiny_net(5);
  save_params(*src, path_, /*version=*/2);
  EXPECT_TRUE(is_param_file(path_));
  auto dst = tiny_net(99);
  load_params(*dst, path_);  // no CRC footer, must still load
  const auto ps = collect_params(*src), pd = collect_params(*dst);
  for (size_t i = 0; i < ps.size(); ++i)
    for (int64_t j = 0; j < ps[i]->value.numel(); ++j)
      EXPECT_EQ(ps[i]->value[j], pd[i]->value[j]);
}

TEST_F(CheckpointFile, RejectsUnsupportedSaveVersion) {
  auto net = tiny_net();
  EXPECT_THROW(save_params(*net, path_, 1), std::invalid_argument);
  EXPECT_THROW(save_params(*net, path_, 4), std::invalid_argument);
}

TEST_F(CheckpointFile, TruncationDetected) {
  auto net = tiny_net();
  save_params(*net, path_);
  const std::string full = read_file(path_);
  // Any truncation point must be rejected: the CRC footer covers short cuts
  // and the bounds-checked reader covers the rest.
  for (const size_t keep : {full.size() - 1, full.size() / 2, size_t{10}, size_t{0}}) {
    write_file(path_, full.substr(0, keep));
    auto dst = tiny_net();
    EXPECT_THROW(load_params(*dst, path_), std::runtime_error) << "kept " << keep;
  }
}

TEST_F(CheckpointFile, BitFlipDetectedByChecksum) {
  auto net = tiny_net();
  save_params(*net, path_);
  std::string buf = read_file(path_);
  buf[buf.size() / 2] ^= 0x04;  // single bit flip in the payload
  write_file(path_, buf);
  auto dst = tiny_net();
  const std::string msg = message_of([&] { load_params(*dst, path_); });
  EXPECT_NE(msg.find("checksum mismatch"), std::string::npos) << msg;
}

TEST_F(CheckpointFile, MemoryLoadMatchesFileLoad) {
  auto src = tiny_net(5);
  save_params(*src, path_);
  const std::string image = read_file(path_);

  // The fuzz-harness entry point decodes the same image byte-for-byte.
  auto dst = tiny_net(99);
  load_params_from_memory(*dst, image.data(), image.size(), "image");
  const auto ps = collect_params(*src), pd = collect_params(*dst);
  ASSERT_EQ(ps.size(), pd.size());
  for (size_t i = 0; i < ps.size(); ++i)
    for (int64_t j = 0; j < ps[i]->value.numel(); ++j)
      EXPECT_EQ(ps[i]->value[j], pd[i]->value[j]);

  // And rejects truncations with the caller-supplied name in the message.
  auto dst2 = tiny_net(99);
  const std::string msg = message_of(
      [&] { load_params_from_memory(*dst2, image.data(), image.size() / 2, "image"); });
  EXPECT_NE(msg.find("image"), std::string::npos) << msg;
}

TEST_F(CheckpointFile, ShapeMismatchNamesParameterAndShapes) {
  auto src = tiny_net();
  save_params(*src, path_);
  // Structurally different net: first conv has 8 channels instead of 4.
  Rng rng(7);
  auto other = std::make_unique<Sequential>("other");
  other->emplace<Conv2d>(Conv2dConfig{3, 8, 3, 1, 1, 1, true}, rng);
  other->emplace<ReLU>();
  other->emplace<GlobalAvgPool>();
  other->emplace<Linear>(8, 10, rng);
  const std::string msg = message_of([&] { load_params(*other, path_); });
  EXPECT_NE(msg.find("param 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected"), std::string::npos) << msg;
  EXPECT_NE(msg.find(collect_params(*other)[0]->value.shape().to_string()), std::string::npos)
      << msg;
}

TEST_F(CheckpointFile, CountMismatchReported) {
  auto src = tiny_net();
  save_params(*src, path_);
  Rng rng(7);
  auto shallow = std::make_unique<Sequential>("shallow");
  shallow->emplace<GlobalAvgPool>();
  shallow->emplace<Linear>(3, 10, rng);
  const std::string msg = message_of([&] { load_params(*shallow, path_); });
  EXPECT_NE(msg.find("state count mismatch"), std::string::npos) << msg;
}

TEST_F(CheckpointFile, IsParamFileSafeOnGarbage) {
  EXPECT_FALSE(is_param_file(dir_ + "/does_not_exist.axnp"));
  write_file(path_, "");
  EXPECT_FALSE(is_param_file(path_));
  write_file(path_, "AX");  // shorter than the magic
  EXPECT_FALSE(is_param_file(path_));
  write_file(path_, "AXNP");  // magic but no version
  EXPECT_FALSE(is_param_file(path_));
  write_file(path_, std::string("AXNP") + std::string(4, '\x09'));  // wild version
  EXPECT_FALSE(is_param_file(path_));
  write_file(path_, "NOPE1234");
  EXPECT_FALSE(is_param_file(path_));
}

// ---------------------------------------------------------------------------
// CheckpointSet rotation: keep-N generations with corrupt-newest fallback
// (the serving engine's crash-safety store, DESIGN.md §5k).

class CheckpointRotation : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = own_temp_dir();
    fs::remove_all(dir_);
    cfg_.dir = dir_;
    cfg_.stem = "model";
    cfg_.keep = 3;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
  resilience::CheckpointConfig cfg_;
};

TEST_F(CheckpointRotation, ConfigValidation) {
  resilience::CheckpointConfig bad = cfg_;
  bad.dir = "";
  EXPECT_THROW(resilience::CheckpointSet{bad}, std::invalid_argument);
  bad = cfg_;
  bad.keep = 0;
  EXPECT_THROW(resilience::CheckpointSet{bad}, std::invalid_argument);
  bad = cfg_;
  bad.stem = "";
  EXPECT_THROW(resilience::CheckpointSet{bad}, std::invalid_argument);
}

TEST_F(CheckpointRotation, KeepsNewestNGenerations) {
  resilience::CheckpointSet set(cfg_);
  EXPECT_EQ(set.latest_generation(), -1);
  EXPECT_TRUE(set.generations().empty());

  std::vector<std::string> written;
  for (int i = 0; i < 5; ++i)
    written.push_back(set.save([&](const std::string& p) { write_file(p, "gen"); }));
  EXPECT_EQ(set.latest_generation(), 4);

  // Only the 3 newest survive, listed newest first.
  const auto gens = set.generations();
  ASSERT_EQ(gens.size(), 3u);
  EXPECT_EQ(gens[0], written[4]);
  EXPECT_EQ(gens[1], written[3]);
  EXPECT_EQ(gens[2], written[2]);
  EXPECT_FALSE(fs::exists(written[0]));
  EXPECT_FALSE(fs::exists(written[1]));
}

TEST_F(CheckpointRotation, FailedWriterLeavesSetUnchanged) {
  resilience::CheckpointSet set(cfg_);
  (void)set.save([&](const std::string& p) { write_file(p, "ok"); });
  EXPECT_THROW(set.save([](const std::string&) { throw std::runtime_error("disk full"); }),
               std::runtime_error);
  EXPECT_EQ(set.generations().size(), 1u);
  EXPECT_EQ(set.latest_generation(), 0);
}

TEST_F(CheckpointRotation, LoadLatestFallsBackPastCorruptGenerations) {
  resilience::CheckpointSet set(cfg_);
  const std::string good = set.save([&](const std::string& p) { write_file(p, "good"); });
  const std::string corrupt = set.save([&](const std::string& p) { write_file(p, "bad"); });

  // The loader rejects the newest generation; the previous one is used.
  const std::string loaded = set.load_latest([&](const std::string& p) {
    if (read_file(p) != "good") throw std::runtime_error("checksum mismatch");
  });
  EXPECT_EQ(loaded, good);
  (void)corrupt;

  // No loadable generation: the error names every rejected one.
  const std::string msg = message_of([&] {
    set.load_latest([](const std::string&) { throw std::runtime_error("checksum mismatch"); });
  });
  EXPECT_NE(msg.find("no loadable generation"), std::string::npos) << msg;
  EXPECT_NE(msg.find("gen 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("gen 1"), std::string::npos) << msg;
}

TEST_F(CheckpointRotation, RotatesRealParamFilesWithCrcFallback) {
  // The engine's actual wiring: nn::save_params as the writer, a CRC-checked
  // nn::load_params as the loader. Corrupting the newest generation falls
  // back to the previous weights instead of failing the reload.
  auto gen0 = tiny_net(5);
  auto gen1 = tiny_net(11);
  resilience::CheckpointSet set(cfg_);
  (void)set.save([&](const std::string& p) { save_params(*gen0, p); });
  const std::string newest = set.save([&](const std::string& p) { save_params(*gen1, p); });

  std::string buf = read_file(newest);
  buf[buf.size() / 2] ^= 0x10;
  write_file(newest, buf);

  auto restored = tiny_net(99);
  const std::string loaded =
      set.load_latest([&](const std::string& p) { load_params(*restored, p); });
  EXPECT_NE(loaded, newest);
  const auto ps = collect_params(*gen0), pr = collect_params(*restored);
  ASSERT_EQ(ps.size(), pr.size());
  for (size_t i = 0; i < ps.size(); ++i)
    for (int64_t j = 0; j < ps[i]->value.numel(); ++j)
      EXPECT_EQ(ps[i]->value[j], pr[i]->value[j]);
}

// ---------------------------------------------------------------------------
// Workbench cache resilience: any unusable cache is a cache miss.

class WorkbenchCache : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = own_temp_dir();
    fs::remove_all(dir_);
    cfg_.model = core::ModelKind::kResNet20;
    cfg_.profile.image_size = 8;
    cfg_.profile.train_size = 160;
    cfg_.profile.test_size = 80;
    cfg_.profile.resnet_width = 0.25f;
    cfg_.profile.fp_epochs = 3;
    cfg_.profile.ft_epochs = 1;
    cfg_.profile.ft_batch = 40;
    cfg_.profile.quant_epochs = 1;
    cfg_.profile.cache_dir = dir_;
    cfg_.calib_samples = 80;
    cfg_.use_cache = true;
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string fp_cache() const {
    for (const auto& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("fp_", 0) == 0) return e.path().string();
    }
    return "";
  }

  std::string dir_;
  core::WorkbenchConfig cfg_;
};

TEST_F(WorkbenchCache, CorruptedCacheFallsBackToRetraining) {
  const double fp1 = core::Workbench(cfg_).fp_accuracy();  // populates the cache
  const std::string path = fp_cache();
  ASSERT_FALSE(path.empty());

  // Corrupt the cached FP weights with a mid-file bit flip.
  std::string buf = read_file(path);
  buf[buf.size() / 2] ^= 0x20;
  write_file(path, buf);

  // The second workbench must warn, retrain, and reach the same accuracy
  // (training is deterministic given the seeds) — never throw.
  const core::Workbench second(cfg_);
  EXPECT_DOUBLE_EQ(second.fp_accuracy(), fp1);

  // The retrain repaired the cache: a third workbench loads it cleanly.
  EXPECT_TRUE(is_param_file(path));
  const core::Workbench third(cfg_);
  EXPECT_DOUBLE_EQ(third.fp_accuracy(), fp1);
}

TEST_F(WorkbenchCache, GarbageCacheFileIsIgnored) {
  const double fp1 = core::Workbench(cfg_).fp_accuracy();
  const std::string path = fp_cache();
  ASSERT_FALSE(path.empty());
  write_file(path, "this is not a checkpoint");
  const core::Workbench second(cfg_);
  EXPECT_DOUBLE_EQ(second.fp_accuracy(), fp1);
}

}  // namespace
}  // namespace axnn::nn
