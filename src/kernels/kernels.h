#ifndef TQP_KERNELS_KERNELS_H_
#define TQP_KERNELS_KERNELS_H_

/// \file Umbrella header for the tensor kernel library (the PyTorch-analog
/// layer of the TQP reproduction).

#include "kernels/elementwise.h"   // IWYU pragma: export
#include "kernels/hash.h"          // IWYU pragma: export
#include "kernels/kernel_types.h"  // IWYU pragma: export
#include "kernels/matmul.h"        // IWYU pragma: export
#include "kernels/reduce.h"        // IWYU pragma: export
#include "kernels/selection.h"     // IWYU pragma: export
#include "kernels/sort.h"          // IWYU pragma: export
#include "kernels/strings.h"       // IWYU pragma: export

#endif  // TQP_KERNELS_KERNELS_H_
