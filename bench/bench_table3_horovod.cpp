// Table III — distributed U-Net training with Horovod-style data
// parallelism, 1/2/4/6/8 devices.
//
// Prints (1) the calibrated DGX A100 simulation (paper-shape, deterministic)
// and (2) measured wall times of the repo's data-parallel trainer on the
// host it runs on: ddp::train_fleet, one rank thread per simulated GPU over
// the thread transport, gradients summed by the canonical tree allreduce.
// Each rank's math is sequential, so host speedups are real parallel
// speedups. The fleet needs power-of-two world sizes, so the measured table
// runs 1/2/4/8 ranks; the per-device batch is fixed (weak scaling, as in
// the paper) and must be a power of two.
//
//   --epochs=2 --tiles_scenes=2 --batch=4

#include <cstdio>

#include "core/corpus.h"
#include "core/dataset_builder.h"
#include "ddp/device_model.h"
#include "ddp/fleet_trainer.h"
#include "support.h"

using namespace polarice;

namespace {
struct PaperRow {
  int gpus;
  double time_s, epoch_s, data_per_s, speedup;
};
constexpr PaperRow kPaper[] = {{1, 280.72, 5.5, 585.88, 1.00},
                               {2, 142.98, 2.778, 1160.81, 1.96},
                               {4, 74.09, 1.45, 2229.56, 3.79},
                               {6, 51.56, 0.97, 3330.03, 5.44},
                               {8, 38.91, 0.79, 4248.56, 7.21}};
}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  bench::banner("Table III: distributed U-Net training (Horovod/fleet)");

  // ---- 1. Calibrated DGX A100 simulation. ----
  std::printf("simulated DGX A100 (50 epochs, batch 32/device):\n");
  util::Table sim({"GPUs", "Time (s)", "Time/Epoch (s)", "Data/s", "Speedup",
                   "paper time/speedup"});
  for (const auto& row : kPaper) {
    const auto t = ddp::simulate_training(ddp::DeviceModelConfig{}, row.gpus);
    sim.add_row({std::to_string(row.gpus), util::Table::num(t.total_s, 2),
                 util::Table::num(t.epoch_s, 3),
                 util::Table::num(t.images_per_s, 2),
                 util::Table::num(t.speedup, 2),
                 util::Table::num(row.time_s, 2) + " / " +
                     util::Table::num(row.speedup, 2)});
  }
  sim.print();

  // ---- 2. Real fleet training on this host. ----
  core::CorpusConfig corpus_cfg;
  corpus_cfg.acquisition.num_scenes =
      static_cast<int>(args.get_int("tiles_scenes", 2));
  corpus_cfg.acquisition.scene_size = 256;
  corpus_cfg.acquisition.tile_size = 32;
  par::ThreadPool prep_pool(par::ThreadPool::hardware());
  const auto tiles =
      core::prepare_corpus(corpus_cfg, par::ExecutionContext(&prep_pool));
  const auto data = core::build_dataset(tiles, core::LabelSource::kAuto,
                                        core::ImageVariant::kFiltered);

  ddp::FleetTrainConfig cfg;
  cfg.model.depth = 2;
  cfg.model.base_channels = 6;
  cfg.model.use_dropout = false;  // the fleet trains without dropout
  cfg.epochs = static_cast<int>(args.get_int("epochs", 2));
  cfg.batch_per_device = static_cast<int>(args.get_int("batch", 4));

  std::printf("\nmeasured on this host (%zu tiles of %dx%d, %d epochs, "
              "batch %d per rank, one rank thread per simulated GPU):\n",
              data.size(), data.width(), data.height(), cfg.epochs,
              cfg.batch_per_device);
  util::Table real({"ranks", "Time (s)", "Time/Epoch (s)", "Data/s",
                    "Speedup", "final loss"});
  double t1 = 0.0;
  for (const int ranks : {1, 2, 4, 8}) {
    cfg.world_size = ranks;
    nn::UNet model(cfg.model);
    const auto stats = ddp::train_fleet(model, data, cfg);
    if (ranks == 1) t1 = stats.total_s;
    const double images =
        static_cast<double>(stats.steps) * cfg.global_batch();
    real.add_row({std::to_string(ranks), util::Table::num(stats.total_s, 2),
                  util::Table::num(stats.total_s / cfg.epochs, 3),
                  util::Table::num(images / stats.total_s, 1),
                  util::Table::num(t1 / stats.total_s, 2),
                  util::Table::num(stats.final_loss, 4)});
  }
  real.print();
  std::printf("note: paper reports 7.21x at 8 GPUs (90%% efficiency); host "
              "scaling depends on available cores (%zu here).\n",
              par::ThreadPool::hardware());
  return 0;
}
