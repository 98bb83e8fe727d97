// Package repro is a from-scratch Go reproduction of "Implementing a
// Distributed Lecture-on-Demand Multimedia Presentation System" (Deng,
// Shih, Shiau, Chang, Liu — ICDCS Workshops 2002): the WMPS web-based
// multimedia presentation system, including the extended timed Petri net
// synchronization model, the multiple-level content tree, an open ASF-like
// stream container with script commands, simulated codecs with the
// bandwidth profile ladder, an HTTP streaming server, an instrumented
// player, and multi-user floor control. The streaming tier scales out
// through internal/relay: edge nodes mirror stored assets and re-fan-out
// live channels from an origin, and a cluster registry redirects clients
// to the edge with the least bandwidth in flight (lodserver's
// -origin/-edge/-registry flags).
//
// Edge mirroring is bounded: with -cache-bytes set, mirrored assets live
// in a byte-budgeted, frequency-gated cache (internal/edgecache) that
// drops cold mirrors while pinning anything actively streaming, so an
// edge serves an unbounded catalog in bounded memory. The whole serving
// stack is observable through internal/metrics — a dependency-free
// counter/gauge/histogram registry every role exposes as Prometheus
// text at GET /v1/metrics and as a JSON snapshot at GET /v1/status.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured record, and README.md for a quickstart. Each paper
// table or figure is checked by a test in the package it reproduces; the
// root package holds the end-to-end integration tests and the benchmarks
// of those packages (bench_test.go). The library lives under internal/
// and the runnable tools under cmd/ and examples/.
package repro
