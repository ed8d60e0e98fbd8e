// Umbrella header: the full public API of the Tesseract reproduction.
//
// Downstream users normally need only this include plus the tesseract
// library target:
//
//   #include "tesseract.hpp"
//   using namespace tsr;
//
// Module map (each header is individually includable):
//   tensor/    — Tensor, gemm/matmul, kernels, Rng, initializers
//   runtime/   — run_spmd, SimClock
//   comm/      — World, Communicator (collectives + phantom twins)
//   fault/     — FaultPlan, Injector (seeded fault/straggler injection)
//   topology/  — Grid3D, MachineSpec, closed-form collective costs
//   pdgemm/    — cannon / summa / solomonik25d / tesseract matmuls
//   nn/        — serial layers, losses, SGD/Adam/LAMB
//   parallel/  — Tesseract layers, Megatron-LM and Optimus baselines,
//                pipeline parallelism
//   perf/      — paper formulas, shape-only layer replay, table evaluator
//   train/     — dataset, ViT, training loops (Fig. 7 harness)
#pragma once

#include "comm/communicator.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/transformer.hpp"
#include "parallel/dist.hpp"
#include "parallel/megatron.hpp"
#include "parallel/optimus.hpp"
#include "parallel/pipeline.hpp"
#include "parallel/tesseract_transformer.hpp"
#include "pdgemm/cannon.hpp"
#include "pdgemm/serial.hpp"
#include "pdgemm/solomonik25d.hpp"
#include "pdgemm/summa.hpp"
#include "pdgemm/tesseract_mm.hpp"
#include "perf/cost_model.hpp"
#include "perf/formulas.hpp"
#include "perf/report.hpp"
#include "perf/trace.hpp"
#include "runtime/cluster.hpp"
#include "tensor/gemm.hpp"
#include "tensor/init.hpp"
#include "tensor/kernels.hpp"
#include "tensor/rng.hpp"
#include "tensor/tensor.hpp"
#include "topology/cost.hpp"
#include "topology/grid.hpp"
#include "topology/machine_spec.hpp"
#include "train/trainer.hpp"
