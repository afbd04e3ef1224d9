// Observability opt-in knobs, plumbed through every subsystem config
// (SchedulerConfig, TcpEndpointConfig, TrainConfig, DseConfig and the
// bench harness's --obs/--trace-out flags).
//
// Both knobs default OFF and are execution-only: observability reads the
// clock and counts events, it NEVER touches a computed value — the repo's
// bit-identity determinism contract holds with any combination of these
// flags (asserted by tests/obs_test.cpp and bench_serving's gates).
//
// This header is dependency-free on purpose: configs embed an ObsConfig
// without pulling in the registry or the trace collector.
#pragma once

namespace gnnhls {

struct ObsConfig {
  /// Publish this instance's counters/gauges/histograms into the
  /// process-wide MetricsRegistry::global() (obs/metrics.h), where a STATS
  /// wire frame or render_text() can scrape them. When false the instance
  /// keeps its counters in a private registry — the stats() facades stay
  /// exact either way, nothing leaks into the global exposition.
  bool metrics = false;
  /// Emit ObsSpan trace events (obs/trace.h) when the process-wide
  /// TraceCollector is active. When false, instrumented scopes skip even
  /// the collector's active() load.
  bool trace = false;
};

}  // namespace gnnhls
