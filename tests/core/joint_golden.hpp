#pragma once

// Solver decision goldens: shared configuration grid and decision digest for
// joint_golden_test.cpp (fast tier) and joint_golden_slow_test.cpp (slow
// tier). A golden pins, per configuration, an FNV-1a digest over every
// device's plan fields and the bit patterns of its share and bandwidth, plus
// the bit pattern of the decision's mean latency. Rewrites of the solver
// kernels (the exit-setting DP above all) must leave every golden unchanged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>

#include "core/joint.hpp"
#include "edge/builders.hpp"

namespace scalpel::golden {

enum class Preset { kBench, kLight, kDefault, kQuantized, kDeadline };

struct Config {
  std::uint64_t seed = 7;
  std::size_t devices = 24;
  bool mixed_difficulty = false;
  Preset preset = Preset::kBench;
  double rate = 2.0;
};

struct Golden {
  Config config;
  std::uint64_t digest;
  std::uint64_t mean_latency_bits;
};

inline const char* preset_name(Preset p) {
  switch (p) {
    case Preset::kBench: return "kBench";
    case Preset::kLight: return "kLight";
    case Preset::kDefault: return "kDefault";
    case Preset::kQuantized: return "kQuantized";
    case Preset::kDeadline: return "kDeadline";
  }
  return "?";
}

inline JointOptions options_for(Preset p) {
  JointOptions o;  // kDefault
  switch (p) {
    case Preset::kDefault:
      break;
    case Preset::kLight:
      o.max_iterations = 2;
      o.dp_coverage_bins = 40;
      o.theta_grid = {0.0, 0.3, 0.6};
      break;
    case Preset::kBench:
    case Preset::kQuantized:
    case Preset::kDeadline:
      o.max_iterations = 4;
      o.dp_coverage_bins = 60;
      o.enable_quantized_upload = p == Preset::kQuantized;
      if (p == Preset::kDeadline) {
        o.objective = JointObjective::kDeadlineSatisfaction;
      }
      break;
  }
  return o;
}

/// Campus deployment (one server per 8 devices, at least 4); the mixed
/// variant cycles the devices through the four difficulty presets.
inline ClusterTopology topology_for(const Config& c) {
  clusters::CampusOptions o;
  o.num_devices = c.devices;
  o.num_servers = std::max<std::size_t>(4, c.devices / 8);
  o.mean_arrival_rate = c.rate;
  o.seed = c.seed;
  ClusterTopology topo = clusters::campus(o);
  if (!c.mixed_difficulty) return topo;
  static const char* kPresets[] = {"uniform", "easy_heavy", "hard_heavy",
                                   "bimodal_easy"};
  ClusterTopology out;
  for (Cell cell : topo.cells()) {
    cell.id = -1;
    out.add_cell(std::move(cell));
  }
  for (Device dev : topo.devices()) {
    dev.difficulty = DifficultyModel::preset(
        kPresets[static_cast<std::size_t>(dev.id) % 4]);
    dev.id = -1;
    out.add_device(std::move(dev));
  }
  for (EdgeServer server : topo.servers()) {
    server.id = -1;
    out.add_server(std::move(server));
  }
  out.validate();
  return out;
}

inline std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

/// FNV-1a over every device's exact plan and grant.
inline std::uint64_t digest(const Decision& d) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(d.per_device.size());
  for (const auto& dd : d.per_device) {
    mix(dd.plan.device_only);
    mix(static_cast<std::uint64_t>(dd.plan.partition_after));
    mix(dd.plan.quantize_upload);
    mix(dd.plan.policy.exits.size());
    for (const auto& e : dd.plan.policy.exits) {
      mix(e.candidate);
      mix(bits(e.theta));
    }
    mix(static_cast<std::uint64_t>(dd.server));
    mix(bits(dd.compute_share));
    mix(bits(dd.bandwidth));
  }
  mix(bits(d.mean_latency));
  return h;
}

inline std::string describe(const Config& c) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{%llu, %zu, %s, Preset::%s, %.1f}",
                static_cast<unsigned long long>(c.seed), c.devices,
                c.mixed_difficulty ? "true" : "false", preset_name(c.preset),
                c.rate);
  return buf;
}

// Names a parameterized case by its configuration in gtest output.
inline void PrintTo(const Golden& g, std::ostream* os) {
  *os << describe(g.config);
}

/// Solves the configuration and compares it with its golden; the failure
/// message carries the actual row in source form.
inline void expect_golden(const Golden& g) {
  const ProblemInstance instance(topology_for(g.config));
  const Decision d = JointOptimizer(options_for(g.config.preset))
                         .optimize(instance);
  const std::uint64_t got = digest(d);
  const std::uint64_t got_latency = bits(d.mean_latency);
  char row[96];
  std::snprintf(row, sizeof row, "0x%016llxull, 0x%016llxull",
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(got_latency));
  EXPECT_EQ(got_latency, g.mean_latency_bits)
      << describe(g.config) << " mean_latency " << d.mean_latency
      << "; actual row: " << row;
  EXPECT_EQ(got, g.digest) << describe(g.config) << " plan digest; actual row: "
                           << row;
}

}  // namespace scalpel::golden
