package faultsim

import (
	"context"
	"fmt"
	"math"

	"memfp/internal/dram"
	"memfp/internal/par"
	"memfp/internal/platform"
	"memfp/internal/trace"
	"memfp/internal/xrand"
)

// Config parameterizes fleet generation for one platform.
type Config struct {
	Platform platform.ID
	// Scale multiplies the calibrated fleet size (1.0 = the paper's
	// Table I population). Benchmarks and examples use fractions.
	Scale float64
	// Seed makes the fleet fully reproducible.
	Seed uint64
	// MaxEventsPerDIMM caps a single DIMM's CE count (default 2500).
	MaxEventsPerDIMM int
	// Calib overrides the default calibration when non-nil (used by
	// calibration tests and ablations).
	Calib *Calibration
	// Workers bounds generation concurrency: 0 runs one worker per CPU,
	// 1 forces the sequential path. Each DIMM draws its randomness from an
	// index-addressable stream (xrand.Derive), so the generated fleet is
	// byte-identical for every worker count.
	Workers int
	// Regimes applies timed per-mode CE-rate multipliers (firmware waves,
	// environmental shifts). Empty means the historical stationary rates.
	Regimes []Regime
	// ServerBase offsets every generated DIMM's Server index. Scenario
	// fleets built from several templates of the same platform use
	// distinct bases so their DIMM identities never collide.
	ServerBase int
}

// Truth records the generator's hidden state for one DIMM. It exists for
// validation and analysis tests only — the prediction pipeline never
// reads it.
type Truth struct {
	ID      trace.DIMMID
	Part    platform.DIMMPart
	Mode    Mode
	Profile Profile
	// UETime is the UE instant, or -1 when the DIMM never fails.
	UETime trace.Minutes
	// Sudden marks UEs with no preceding CEs.
	Sudden bool
	// Weak marks predictable UEs with only a short CE precursor window.
	Weak bool
	// Bursty marks DIMMs given storm episodes.
	Bursty bool
}

// UE reports whether the DIMM experienced any UE.
func (t *Truth) UE() bool { return t.UETime >= 0 }

// GroundTruth indexes Truth records for a generated fleet.
type GroundTruth struct {
	ByDIMM map[trace.DIMMID]*Truth
	List   []*Truth
}

// Result bundles a generated fleet.
type Result struct {
	Platform *platform.Platform
	Calib    *Calibration
	Store    *trace.Store
	Truth    *GroundTruth
}

// rate multipliers per fault mode: higher-level faults produce more CEs.
var modeRateMult = map[Mode]float64{
	ModeSporadic:    0.3,
	ModeCell:        1.0,
	ModeColumn:      1.8,
	ModeRow:         2.2,
	ModeBank:        3.0,
	ModeMultiDevice: 2.6,
}

// genEnv bundles the read-only inputs shared by every per-DIMM generation
// task. Workers only read it, so one copy serves the whole pool.
type genEnv struct {
	platform    *platform.Platform
	platformID  platform.ID
	calib       *Calibration
	maxEvents   int
	x4Parts     []platform.DIMMPart
	x8Parts     []platform.DIMMPart
	modes       []Mode
	modeWeights []float64
	slots       int
	base        uint64 // per-platform seed base for xrand.Derive streams
	regimes     []Regime
	serverBase  int
}

// dimmShard is one per-DIMM generation result: the ground truth and the
// DIMM's events in emission order, buffered locally so workers never touch
// the shared store. Shards are merged into the store in DIMM-index order,
// which makes the parallel generator byte-identical to the sequential one.
type dimmShard struct {
	truth  *Truth
	events []trace.Event
}

// buildEnv validates cfg and constructs the shared per-DIMM generation
// environment plus the CE-DIMM count.
func buildEnv(cfg Config) (*genEnv, int, error) {
	if cfg.Scale <= 0 {
		return nil, 0, fmt.Errorf("faultsim: scale must be positive, got %v", cfg.Scale)
	}
	p, err := platform.Get(cfg.Platform)
	if err != nil {
		return nil, 0, err
	}
	calib := cfg.Calib
	if calib == nil {
		calib, err = DefaultCalibration(cfg.Platform)
		if err != nil {
			return nil, 0, err
		}
	}
	if err := calib.Validate(); err != nil {
		return nil, 0, err
	}
	maxEvents := cfg.MaxEventsPerDIMM
	if maxEvents <= 0 {
		maxEvents = 2500
	}
	for _, reg := range cfg.Regimes {
		if err := reg.Validate(); err != nil {
			return nil, 0, err
		}
	}

	// x4 parts dominate the studied population (the paper's bit-level
	// analysis is for x4 DRAM).
	catalog := platform.Catalog()
	var x4Parts, x8Parts []platform.DIMMPart
	for _, part := range catalog {
		if part.Width == dram.X4 {
			x4Parts = append(x4Parts, part)
		} else {
			x8Parts = append(x8Parts, part)
		}
	}

	modes := Modes()
	modeWeights := make([]float64, len(modes))
	for i, m := range modes {
		modeWeights[i] = calib.ModeMix[m]
	}

	env := &genEnv{
		platform:    p,
		platformID:  cfg.Platform,
		calib:       calib,
		maxEvents:   maxEvents,
		x4Parts:     x4Parts,
		x8Parts:     x8Parts,
		modes:       modes,
		modeWeights: modeWeights,
		slots:       p.Sockets * p.ChannelsPerSocket * p.DIMMsPerChannel,
		base:        cfg.Seed ^ hashPlatform(cfg.Platform),
		regimes:     cfg.Regimes,
		serverBase:  cfg.ServerBase,
	}

	nCE := int(math.Round(float64(calib.CEDIMMs) * cfg.Scale))
	if nCE < 1 {
		nCE = 1
	}
	return env, nCE, nil
}

// suddenCount sizes the sudden-UE population so the sudden/predictable
// split matches Table I.
func suddenCount(calib *Calibration, predictableUEs int) int {
	return int(math.Round(float64(predictableUEs) * calib.SuddenShare / (1 - calib.SuddenShare)))
}

// GenerateCtx simulates one platform fleet. DIMMs are sharded across a
// worker pool (cfg.Workers); each DIMM's randomness comes from
// xrand.Derive(base, dimmIndex), so the output is independent of worker
// count and scheduling order.
func GenerateCtx(ctx context.Context, cfg Config) (*Result, error) {
	env, nCE, err := buildEnv(cfg)
	if err != nil {
		return nil, err
	}
	p, calib := env.platform, env.calib

	store := trace.NewStore()
	truth := &GroundTruth{ByDIMM: make(map[trace.DIMMID]*Truth)}
	merge := func(shards []*dimmShard) error {
		for _, sh := range shards {
			t := sh.truth
			if _, err := store.Register(t.ID, t.Part); err != nil {
				return err
			}
			if err := store.AppendEvents(t.ID, sh.events); err != nil {
				return err
			}
			truth.ByDIMM[t.ID] = t
			truth.List = append(truth.List, t)
		}
		return nil
	}

	shardName := func(i int) string { return fmt.Sprintf("gen/%s/dimm%06d", cfg.Platform, i) }
	shards, err := par.MapN(ctx, cfg.Workers, nCE, shardName,
		func(_ context.Context, i int) (*dimmShard, error) {
			return genCEDIMM(env, i)
		})
	if err != nil {
		return nil, err
	}
	if err := merge(shards); err != nil {
		return nil, err
	}
	predictableUEs := 0
	for _, sh := range shards {
		if sh.truth.UE() {
			predictableUEs++
		}
	}

	// Sudden-UE DIMMs: UEs with no CE history. Their stream indices start
	// at nCE, after the CE DIMMs'.
	nSudden := suddenCount(calib, predictableUEs)
	sudden, err := par.MapN(ctx, cfg.Workers, nSudden, shardName,
		func(_ context.Context, i int) (*dimmShard, error) {
			return genSuddenDIMM(env, nCE, i)
		})
	if err != nil {
		return nil, err
	}
	if err := merge(sudden); err != nil {
		return nil, err
	}

	store.SortAllWorkers(cfg.Workers)
	trace.AnnotateStormsWorkers(store, trace.DefaultStormConfig(), cfg.Workers)
	return &Result{Platform: p, Calib: calib, Store: store, Truth: truth}, nil
}

// genCEDIMM generates CE DIMM i: part and fault-mode draws, then the CE
// stream (and UE, when the fault is UE-bound) into a local shard.
func genCEDIMM(env *genEnv, i int) (*dimmShard, error) {
	drng := xrand.Derive(env.base, uint64(i))
	part := env.x4Parts[drng.Intn(len(env.x4Parts))]
	if drng.Bool(0.15) && len(env.x8Parts) > 0 {
		part = env.x8Parts[drng.Intn(len(env.x8Parts))]
	}
	id := trace.DIMMID{Platform: env.platformID, Server: env.serverBase + i, Slot: drng.Intn(env.slots)}
	mode := env.modes[drng.Categorical(env.modeWeights)]
	ueBound := drng.Bool(env.calib.UEHazard[mode])

	prof := sampleProfile(env.calib, ueBound, drng)
	fault := NewFault(mode, prof, part.Geometry, drng)

	sh := &dimmShard{truth: &Truth{ID: id, Part: part, Mode: mode, Profile: prof, UETime: -1}}
	if err := emitDIMM(sh, env, fault, sh.truth, ueBound, drng); err != nil {
		return nil, err
	}
	return sh, nil
}

// genSuddenDIMM generates sudden-UE DIMM i (stream index nCE+i): a single
// UE with no CE history.
func genSuddenDIMM(env *genEnv, nCE, i int) (*dimmShard, error) {
	drng := xrand.Derive(env.base, uint64(nCE+i))
	part := env.x4Parts[drng.Intn(len(env.x4Parts))]
	id := trace.DIMMID{Platform: env.platformID, Server: env.serverBase + nCE + i, Slot: drng.Intn(env.slots)}
	mode := env.modes[drng.Categorical(env.modeWeights)]
	fault := NewFault(mode, ProfileSingleBit, part.Geometry, drng)
	ueTime := trace.Minutes(drng.Int63n(int64(trace.ObservationSpan)))
	if _, err := fault.EscalationTransaction(env.platform, part.Width, drng); err != nil {
		return nil, err
	}
	sh := &dimmShard{
		truth: &Truth{ID: id, Part: part, Mode: mode, Profile: ProfileSingleBit,
			UETime: ueTime, Sudden: true},
		events: []trace.Event{{
			Time: ueTime, Type: trace.TypeUE, DIMM: id, Addr: fault.UEAddr(drng),
		}},
	}
	return sh, nil
}

// sampleProfile draws the fault's signature profile from the calibrated
// risky/benign mixture.
func sampleProfile(c *Calibration, ueBound bool, rng *xrand.RNG) Profile {
	pRisky := c.PRiskyGivenBenign
	if ueBound {
		pRisky = c.PRiskyGivenUE
	}
	if rng.Bool(pRisky) {
		return c.RiskyProfile
	}
	profs := make([]Profile, 0, len(c.BenignProfileMix))
	weights := make([]float64, 0, len(c.BenignProfileMix))
	for _, p := range Profiles() {
		if w, ok := c.BenignProfileMix[p]; ok && w > 0 {
			profs = append(profs, p)
			weights = append(weights, w)
		}
	}
	return profs[rng.Categorical(weights)]
}

// emitDIMM generates the CE stream (and UE, when ueBound) for one DIMM,
// buffering events into the DIMM's shard.
func emitDIMM(sh *dimmShard, env *genEnv, fault *Fault, t *Truth, ueBound bool, rng *xrand.RNG) error {
	p, calib, maxEvents := env.platform, env.calib, env.maxEvents
	spanDays := int(trace.ObservationSpan / trace.Day)
	baseRate := rng.LogNormal(calib.RateMu, calib.RateSigma) * modeRateMult[fault.Mode]

	var firstDay, lastDay, ueDay int
	var ueMinute trace.Minutes = -1
	switch {
	case ueBound:
		t.Weak = rng.Bool(calib.WeakPrecursorFrac)
		// UE somewhere inside the window, late enough for precursors.
		ueDay = 30 + rng.Intn(spanDays-30)
		lead := 20 + rng.Intn(100) // strong precursor: 20-120 days of CEs
		if t.Weak {
			lead = 1 + rng.Intn(6) // weak precursor: 1-6 days
		}
		firstDay = ueDay - lead
		if firstDay < 0 {
			firstDay = 0
		}
		lastDay = ueDay
		ueMinute = trace.Minutes(ueDay)*trace.Day + trace.Minutes(rng.Int63n(int64(trace.Day)))
		t.UETime = ueMinute
	default:
		// Benign fault episodes are bounded: production faults get
		// repaired, page-offlined, or simply stay transient. A
		// log-normal episode length (median ≈ 1 month, occasional
		// long-lived tails) keeps the benign feature distribution
		// stationary across the collection window, as in real fleets.
		firstDay = rng.Intn(spanDays - 10)
		dur := 5 + int(rng.LogNormal(3.3, 1.0))
		lastDay = firstDay + dur
		if lastDay > spanDays-1 {
			lastDay = spanDays - 1
		}
	}

	bursty := false
	if ueBound {
		bursty = rng.Bool(0.5)
	} else {
		bursty = rng.Bool(calib.BurstyBenignFrac)
	}
	t.Bursty = bursty
	stormDays := map[int]int{}
	if bursty {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			d := firstDay + rng.Intn(lastDay-firstDay+1)
			stormDays[d] = 15 + rng.Poisson(30)
		}
	}

	total := 0
	for d := firstDay; d <= lastDay && total < maxEvents; d++ {
		mean := baseRate * regimeMult(env.regimes, d, fault.Mode)
		if ueBound {
			// CE rate accelerates approaching the UE (the temporal
			// signal the paper's 5-day observation window captures):
			// a multi-week exponential ramp, distinguishable from the
			// single-day spikes of benign CE storms.
			mean *= 1 + 14*math.Exp(-float64(ueDay-d)/8.0)
		}
		n := rng.Poisson(mean)
		if extra, ok := stormDays[d]; ok {
			n += extra
		}
		if n == 0 {
			continue
		}
		if total+n > maxEvents {
			n = maxEvents - total
		}
		dayStart := trace.Minutes(d) * trace.Day
		for k := 0; k < n; k++ {
			ts := dayStart + trace.Minutes(rng.Int63n(int64(trace.Day)))
			if ueMinute >= 0 && ts >= ueMinute {
				ts = ueMinute - 1 - trace.Minutes(rng.Int63n(60))
				if ts < 0 {
					ts = 0
				}
			}
			bits, err := fault.SampleCEBits(p.ECC, t.Part.Width, rng)
			if err != nil {
				return err
			}
			sh.events = append(sh.events, trace.Event{
				Time: ts, Type: trace.TypeCE, DIMM: t.ID,
				Addr: fault.SampleAddr(rng), Bits: bits,
			})
			total++
		}
	}

	if total == 0 {
		// Every fleet member is by definition a "DIMM with CEs"
		// (Table I); guarantee at least one observation.
		ts := trace.Minutes(firstDay)*trace.Day + trace.Minutes(rng.Int63n(int64(trace.Day)))
		if ueMinute >= 0 && ts >= ueMinute {
			ts = ueMinute - 1
			if ts < 0 {
				ts = 0
			}
		}
		bits, err := fault.SampleCEBits(p.ECC, t.Part.Width, rng)
		if err != nil {
			return err
		}
		sh.events = append(sh.events, trace.Event{
			Time: ts, Type: trace.TypeCE, DIMM: t.ID,
			Addr: fault.SampleAddr(rng), Bits: bits,
		})
	}

	if ueBound {
		if _, err := fault.EscalationTransaction(p, t.Part.Width, rng); err != nil {
			return err
		}
		sh.events = append(sh.events, trace.Event{
			Time: ueMinute, Type: trace.TypeUE, DIMM: t.ID, Addr: fault.UEAddr(rng),
		})
	}
	return nil
}

// hashPlatform derives a stable per-platform seed component so fleets for
// different platforms are decorrelated even under the same user seed.
func hashPlatform(id platform.ID) uint64 {
	var h uint64 = 1469598103934665603
	for _, c := range string(id) {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
