// Feature matrix, proc half (config_matrix.h): every cell under the
// process runtime, launched in this process through
// ProcCoordinator::ForkWorkers. Forks real workers, so it runs in the
// `proc` ctest label with the other process-runtime suites.

#include <gtest/gtest.h>

#include "config_matrix.h"

namespace hetkg {
namespace {

class ConfigMatrixProcTest
    : public ::testing::TestWithParam<config_matrix::Cell> {};

TEST_P(ConfigMatrixProcTest, TrainsOrNamesTheConflictBeforeForking) {
  config_matrix::RunCell(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Proc, ConfigMatrixProcTest,
                         ::testing::ValuesIn(config_matrix::Cells(true)),
                         config_matrix::CellNamer());

}  // namespace
}  // namespace hetkg
