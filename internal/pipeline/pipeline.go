// Package pipeline owns the fleet cache the experiment runners share, so
// every consumer of a (platform, scale, seed) fleet gets the same
// generated-once result.
//
// The package sits between the simulation substrate (internal/faultsim)
// and the programs that generate fleets (the memfp root package's
// experiments, cmd/memfp, cmd/mlopsd, the examples and the benchmark).
// The worker pool that fans experiment cells out lives in internal/par —
// a leaf package the substrate below (faultsim's parallel generator)
// shares — and the runners call it directly.
package pipeline
