#include "zoo/model_zoo.hpp"

#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "data/synthetic_gesture.hpp"
#include "data/synthetic_nmnist.hpp"
#include "data/synthetic_shd.hpp"
#include "snn/conv_layer.hpp"
#include "snn/dense_layer.hpp"
#include "snn/recurrent_layer.hpp"
#include "snn/serialization.hpp"
#include "train/trainer.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace snntest::zoo {
namespace {

snn::LifParams default_lif() {
  snn::LifParams p;
  p.threshold = 1.0f;
  p.leak = 0.9f;
  p.refractory = 1;
  p.reset_potential = 0.0f;
  return p;
}

snn::Network make_nmnist_network(uint64_t seed) {
  util::Rng rng(seed);
  snn::Network net("snn-nmnist");
  const snn::LifParams lif = default_lif();
  {
    snn::Conv2dSpec s;
    s.in_channels = 2; s.in_height = 16; s.in_width = 16;
    s.out_channels = 8; s.kernel = 3; s.stride = 2; s.padding = 1;
    auto conv = std::make_unique<snn::ConvLayer>(s, lif);
    conv->init_weights(rng, 1.2f);
    net.add_layer(std::move(conv));
  }
  {
    snn::Conv2dSpec s;
    s.in_channels = 8; s.in_height = 8; s.in_width = 8;
    s.out_channels = 16; s.kernel = 3; s.stride = 2; s.padding = 1;
    auto conv = std::make_unique<snn::ConvLayer>(s, lif);
    conv->init_weights(rng, 1.2f);
    net.add_layer(std::move(conv));
  }
  {
    auto fc = std::make_unique<snn::DenseLayer>(16 * 4 * 4, 64, lif);
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  }
  {
    auto fc = std::make_unique<snn::DenseLayer>(64, 10, lif);
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  }
  return net;
}

snn::Network make_gesture_network(uint64_t seed) {
  util::Rng rng(seed + 1);
  snn::Network net("snn-gesture");
  const snn::LifParams lif = default_lif();
  {
    snn::Conv2dSpec s;
    s.in_channels = 2; s.in_height = 24; s.in_width = 24;
    s.out_channels = 12; s.kernel = 3; s.stride = 2; s.padding = 1;
    auto conv = std::make_unique<snn::ConvLayer>(s, lif);
    conv->init_weights(rng, 1.2f);
    net.add_layer(std::move(conv));
  }
  {
    snn::Conv2dSpec s;
    s.in_channels = 12; s.in_height = 12; s.in_width = 12;
    s.out_channels = 24; s.kernel = 3; s.stride = 2; s.padding = 1;
    auto conv = std::make_unique<snn::ConvLayer>(s, lif);
    conv->init_weights(rng, 1.2f);
    net.add_layer(std::move(conv));
  }
  {
    auto fc = std::make_unique<snn::DenseLayer>(24 * 6 * 6, 128, lif);
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  }
  {
    auto fc = std::make_unique<snn::DenseLayer>(128, 11, lif);
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  }
  return net;
}

snn::Network make_shd_network(uint64_t seed) {
  util::Rng rng(seed + 2);
  snn::Network net("snn-shd");
  const snn::LifParams lif = default_lif();
  {
    auto rec = std::make_unique<snn::RecurrentLayer>(64, 128, lif);
    rec->init_weights(rng, 1.2f, 0.3f);
    net.add_layer(std::move(rec));
  }
  {
    auto fc = std::make_unique<snn::DenseLayer>(128, 64, lif);
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  }
  {
    auto fc = std::make_unique<snn::DenseLayer>(64, 20, lif);
    fc->init_weights(rng, 1.2f);
    net.add_layer(std::move(fc));
  }
  return net;
}

struct TrainPlan {
  size_t epochs;
  size_t train_samples;
  size_t eval_samples;
  double lr;
};

TrainPlan plan_for(BenchmarkId id, double budget) {
  TrainPlan plan{};
  switch (id) {
    case BenchmarkId::kNmnist:
      plan = {26, 640, 200, 3e-3};
      break;
    case BenchmarkId::kGesture:
      plan = {10, 330, 110, 3e-3};
      break;
    case BenchmarkId::kShd:
      plan = {28, 760, 200, 4e-3};
      break;
  }
  plan.epochs = std::max<size_t>(1, static_cast<size_t>(plan.epochs * budget));
  plan.train_samples = std::max<size_t>(32, static_cast<size_t>(plan.train_samples * budget));
  return plan;
}

}  // namespace

const char* benchmark_name(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kNmnist: return "nmnist";
    case BenchmarkId::kGesture: return "gesture";
    case BenchmarkId::kShd: return "shd";
  }
  return "unknown";
}

BenchmarkId parse_benchmark(const std::string& name) {
  if (name == "nmnist") return BenchmarkId::kNmnist;
  if (name == "gesture" || name == "ibm" || name == "dvs128") return BenchmarkId::kGesture;
  if (name == "shd") return BenchmarkId::kShd;
  throw std::invalid_argument("unknown benchmark: " + name + " (expect nmnist|gesture|shd)");
}

snn::Network make_network(BenchmarkId id, uint64_t seed) {
  switch (id) {
    case BenchmarkId::kNmnist: return make_nmnist_network(seed);
    case BenchmarkId::kGesture: return make_gesture_network(seed);
    case BenchmarkId::kShd: return make_shd_network(seed);
  }
  throw std::logic_error("make_network: bad id");
}

data::TrainTestSplit make_datasets(BenchmarkId id) {
  switch (id) {
    case BenchmarkId::kNmnist: {
      data::SyntheticNmnistConfig cfg;
      cfg.count = 1024;
      auto ds = std::make_shared<data::SyntheticNmnist>(cfg);
      return data::split(ds, 768, 256);
    }
    case BenchmarkId::kGesture: {
      data::SyntheticGestureConfig cfg;
      cfg.count = 528;
      auto ds = std::make_shared<data::SyntheticGesture>(cfg);
      return data::split(ds, 396, 132);
    }
    case BenchmarkId::kShd: {
      data::SyntheticShdConfig cfg;
      cfg.count = 1000;
      auto ds = std::make_shared<data::SyntheticShd>(cfg);
      return data::split(ds, 760, 240);
    }
  }
  throw std::logic_error("make_datasets: bad id");
}

std::string model_cache_path(BenchmarkId id, const ZooOptions& options) {
  std::string dir = options.cache_dir;
  if (const char* env = std::getenv("SNNTEST_CACHE_DIR")) dir = env;
  return dir + "/" + benchmark_name(id) + ".snnt";
}

BenchmarkBundle load_or_train(BenchmarkId id, const ZooOptions& options) {
  BenchmarkBundle bundle;
  auto datasets = make_datasets(id);
  bundle.train = datasets.train;
  bundle.test = datasets.test;
  bundle.steps_per_sample = bundle.train->num_steps();

  const std::string path = model_cache_path(id, options);
  const TrainPlan plan = plan_for(id, options.train_budget);

  if (options.allow_cache && std::filesystem::exists(path)) {
    try {
      bundle.network = snn::load_network(path);
      bundle.from_cache = true;
    } catch (const std::exception& e) {
      SNNTEST_LOG_WARN("model cache %s unreadable (%s); retraining", path.c_str(), e.what());
    }
  }

  if (!bundle.from_cache) {
    bundle.network = make_network(id, options.seed);
    train::TrainerConfig tc;
    tc.epochs = plan.epochs;
    tc.lr = plan.lr;
    tc.max_train_samples = plan.train_samples;
    tc.eval_samples = plan.eval_samples;
    tc.verbose = options.verbose;
    util::Timer timer;
    train::Trainer trainer(bundle.network, tc);
    if (options.verbose) {
      SNNTEST_LOG_INFO("training %s model (%zu epochs x %zu samples)...",
                       benchmark_name(id), plan.epochs, plan.train_samples);
    }
    trainer.fit(*bundle.train, *bundle.test);
    bundle.train_seconds = timer.seconds();
    // Freshly trained models are always cached; allow_cache only gates
    // *loading* (so --retrain refreshes the cache rather than bypassing it).
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(path).parent_path(), ec);
    try {
      snn::save_network(bundle.network, path);
    } catch (const std::exception& e) {
      SNNTEST_LOG_WARN("cannot cache model to %s: %s", path.c_str(), e.what());
    }
  }

  // Score a kAuto copy: the bundle's layers keep their default dense
  // kernels, and the event-driven ones give the same spike trains
  // (DESIGN.md §9) for a fraction of the forward cost.
  snn::Network eval_net(bundle.network);
  eval_net.set_kernel_mode(snn::KernelMode::kAuto);
  bundle.test_accuracy = train::evaluate(eval_net, *bundle.test, plan.eval_samples).accuracy;
  return bundle;
}

}  // namespace snntest::zoo
