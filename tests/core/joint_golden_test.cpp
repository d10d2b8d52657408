// Solver decision goldens, fast tier: one configuration per option preset
// (both difficulty mixes, both fleet sizes and both rates appear). The rest
// of the 100-configuration grid runs in joint_golden_slow_test.cpp.
#include "joint_golden.hpp"

namespace scalpel::golden {
namespace {

const Golden kGoldens[] = {
    {{7, 24, false, Preset::kLight, 2.0}, 0x3cd4407ddf1c7afbull, 0x3fcb497bee15f8b1ull},
    {{7, 24, false, Preset::kQuantized, 2.0}, 0x42562a8a69f60c10ull, 0x3fb31b25a9be5462ull},
    {{7, 48, true, Preset::kLight, 2.0}, 0x73a6c5c608eee744ull, 0x3fd92a9480dc585aull},
    {{11, 24, false, Preset::kBench, 2.0}, 0x76ede971b1918ee0ull, 0x3fec78a177518cc8ull},
    {{11, 24, false, Preset::kDefault, 2.0}, 0x76ede971b1918ee0ull, 0x3fec78a177518cc8ull},
    {{11, 24, true, Preset::kLight, 4.0}, 0x39a06217e795b508ull, 0x7ff0000000000000ull},
    {{19, 24, true, Preset::kDeadline, 4.0}, 0xf8d45faf73844c7full, 0x7ff0000000000000ull},
};

class JointGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(JointGolden, DecisionMatchesGolden) { expect_golden(GetParam()); }

INSTANTIATE_TEST_SUITE_P(Grid, JointGolden, ::testing::ValuesIn(kGoldens));

}  // namespace
}  // namespace scalpel::golden
