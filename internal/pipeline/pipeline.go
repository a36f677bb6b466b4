// Package pipeline owns what the experiment runners share: a fleet cache
// so every consumer of a (platform, scale, seed) fleet gets the same
// generated-once result, and a scenario registry that makes new
// experiments one registration away.
//
// The package sits between the simulation substrate (internal/faultsim)
// and the experiment runners (the memfp root package, cmd/memfp,
// cmd/mlopsd, benchmarks). The worker pool that fans experiment cells out
// lives in internal/par — a leaf package the substrate below (faultsim's
// parallel generator) shares — and the runners call it directly.
package pipeline
