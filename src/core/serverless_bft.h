#ifndef SBFT_CORE_SERVERLESS_BFT_H_
#define SBFT_CORE_SERVERLESS_BFT_H_

/// \file
/// \brief Umbrella header: the public API of the ServerlessBFT library.
///
/// Typical usage (see examples/quickstart.cc):
///
/// \code
///   sbft::core::SystemConfig config;
///   config.shim.n = 4;                 // 3f_R+1 edge devices
///   config.n_e = 3;                    // 2f_E+1 serverless executors
///   config.num_clients = 100;
///   auto report = sbft::core::RunExperiment(config);
/// \endcode

#include "core/architecture.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/spawner.h"

#endif  // SBFT_CORE_SERVERLESS_BFT_H_
