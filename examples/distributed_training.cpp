// Horovod-style synchronous data-parallel training demo: trains the same
// U-Net with ddp::train_fleet on 1, 2, 4, ... simulated GPUs (rank threads
// over the thread transport, gradients summed by the canonical tree
// allreduce) and prints measured speedups plus the calibrated DGX A100
// projection. Rank counts double up to --max_ranks, because the fleet
// needs power-of-two world sizes.
//
//   ./distributed_training [--scenes=4] [--epochs=3] [--max_ranks=8]

#include <cstdio>

#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "ddp/device_model.h"
#include "ddp/fleet_trainer.h"
#include "par/context.h"
#include "par/thread_pool.h"
#include "util/args.h"
#include "util/table.h"

using namespace polarice;

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int epochs = static_cast<int>(args.get_int("epochs", 3));
  const int max_ranks = static_cast<int>(args.get_int("max_ranks", 8));

  core::CorpusConfig corpus_cfg;
  corpus_cfg.acquisition.num_scenes =
      static_cast<int>(args.get_int("scenes", 4));
  corpus_cfg.acquisition.scene_size = 256;
  corpus_cfg.acquisition.tile_size = 32;
  par::ThreadPool pool(par::ThreadPool::hardware());
  const par::ExecutionContext ctx(&pool);
  const auto tiles = core::prepare_corpus(corpus_cfg, ctx);
  const auto data =
      core::build_dataset(tiles, core::LabelSource::kAuto,
                          core::ImageVariant::kFiltered);
  std::printf("dataset: %zu tiles of %dx%d\n", data.size(), data.width(),
              data.height());

  ddp::FleetTrainConfig cfg;
  cfg.model.depth = 2;
  cfg.model.base_channels = 6;
  cfg.model.use_dropout = false;  // the fleet trains without dropout
  cfg.epochs = epochs;
  cfg.batch_per_device = 4;

  util::Table table({"ranks", "total (s)", "s/epoch", "img/s", "speedup",
                     "final loss"});
  double t1 = 0.0;
  for (int ranks = 1; ranks <= max_ranks; ranks *= 2) {
    cfg.world_size = ranks;
    nn::UNet model(cfg.model);
    const auto stats = ddp::train_fleet(model, data, cfg);
    if (ranks == 1) t1 = stats.total_s;
    const double images =
        static_cast<double>(stats.steps) * cfg.global_batch();
    table.add_row({std::to_string(ranks), util::Table::num(stats.total_s, 2),
                   util::Table::num(stats.total_s / epochs, 3),
                   util::Table::num(images / stats.total_s, 1),
                   util::Table::num(t1 / stats.total_s, 2),
                   util::Table::num(stats.final_loss, 4)});
  }
  std::printf("measured on this host (train_fleet over rank threads):\n");
  table.print();

  std::printf("\ncalibrated DGX A100 projection (paper Table III):\n");
  util::Table dgx({"GPUs", "total (s)", "s/epoch", "img/s", "speedup"});
  for (const int gpus : {1, 2, 4, 6, 8}) {
    const auto sim = ddp::simulate_training(ddp::DeviceModelConfig{}, gpus);
    dgx.add_row({std::to_string(gpus), util::Table::num(sim.total_s, 2),
                 util::Table::num(sim.epoch_s, 3),
                 util::Table::num(sim.images_per_s, 1),
                 util::Table::num(sim.speedup, 2)});
  }
  dgx.print();
  return 0;
}
