// Package scenario is the declarative chaos-testing harness: one YAML
// file declares a fleet mix (platform templates × weights expanded
// through the calibrated generator), a timed chaos schedule (CE storms,
// correlated fault bursts, firmware-wave rate regimes, maintenance
// windows, DIMM hot-swaps, collection lag, mid-stream model promotion
// and rollback), and end-of-run assertions (alarm bounds, lead-time
// percentiles, precision/recall, score-drift PSI) — executed against the
// real control plane (one per platform, with its in-process node) and
// MLOps pipeline, never a mock.
//
// Scenarios are seeded and deterministic: the same file and seed produce
// a byte-identical report and alarm stream at every shard count, because
// injection happens at the event-stream layer (the composable Injector
// chain rewrites, inserts, drops, or delays the merged stream before it
// reaches controlplane.Server.ServeStream) and every random draw comes from
// an index-addressable xrand.Derive stream.
//
// The schema is written once: each section is decoded through one table
// that maps its keys to their destinations (see decoder.fields), so a
// key is declared in exactly one place, and a day or minute count is
// checked against the observation span before it is converted.
//
// Run scenarios with `memfp simulate scenarios/<name>.yaml`; check a
// file against the schema with `memfp simulate -validate <file>`.
package scenario

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"memfp/internal/dataset"
	"memfp/internal/faultsim"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// Scenario is one parsed, validated scenario file.
type Scenario struct {
	Name        string
	Description string
	Seed        uint64
	// TickMinutes is the serving tick: events are delivered to the engine
	// in batches covering this much simulated time (default one day).
	TickMinutes trace.Minutes
	// RecordAlarms embeds the full alarm stream in the report (the
	// digest is always present).
	RecordAlarms bool

	Fleet      FleetGen
	Train      TrainSpec
	Chaos      []Action
	Assertions []Assertion
}

// FleetGen declares the generated fleet: templates × weights at a scale.
type FleetGen struct {
	// Scale is the total fleet scale, divided across templates by weight.
	Scale float64
	// Templates are the platform mix. Multiple templates may share a
	// platform; their DIMM identities are decollided via ServerBase.
	Templates []Template
	// Regimes are generation-time rate shifts (firmware waves).
	Regimes []faultsim.Regime
	// MaxEventsPerDIMM caps one DIMM's CE count (0 = generator default).
	MaxEventsPerDIMM int
}

// Template is one weighted platform slice of the fleet.
type Template struct {
	Platform platform.ID
	Weight   float64
}

// TrainSpec configures the bootstrap training cycle.
type TrainSpec struct {
	// Trainer is the predictor-registry name (default LightGBM).
	Trainer string
	// TrainEndDay / ValEndDay split the stream time range exactly like
	// the offline experiments (defaults dataset.TrainEndDay / ValEndDay).
	TrainEndDay, ValEndDay int
}

// Action kinds of the chaos schedule.
const (
	ActionCEStorm      = "ce_storm"      // stream-layer CE flood on a DIMM fraction
	ActionFaultBurst   = "fault_burst"   // correlated row/bank CE bursts on fresh faults
	ActionMaintenance  = "maintenance"   // control plane paused, then resumed
	ActionHotswap      = "hotswap"       // retire alarmed DIMMs, fresh module in the slot
	ActionLogLag       = "log_lag"       // collection lag: events delivered late
	ActionTrainPromote = "train_promote" // mid-stream retrain + gate + promote
	ActionRollback     = "rollback"      // registry rollback to the previous model
)

// Action is one timed chaos step.
type Action struct {
	// At is when the action fires (from at_day / at_minutes).
	At trace.Minutes
	// Kind is one of the Action constants.
	Kind string
	// Duration bounds windowed actions (storms, maintenance, lag).
	Duration trace.Minutes
	// Platform restricts the action to one platform ("" = all).
	Platform platform.ID

	// Fraction of the fleet targeted (ce_storm, log_lag, hotswap with
	// selector random).
	Fraction float64
	// RatePerDay is the injected CE rate per targeted DIMM (ce_storm).
	RatePerDay float64
	// Mode is the injected fault mode (ce_storm, fault_burst).
	Mode faultsim.Mode
	// Risky injects the platform's risky bit-signature profile instead
	// of the benign single-bit one (ce_storm, fault_burst).
	Risky bool
	// Count is the number of DIMMs hit by a fault_burst.
	Count int
	// BurstCEs is the CE count each burst DIMM receives (fault_burst).
	BurstCEs int
	// Selector picks hotswap targets: "alarmed" (default) or "random".
	Selector string
	// MaxTargets caps hotswap targets (0 = unlimited).
	MaxTargets int
	// TrainEndDay/ValEndDay override the mid-stream retrain split
	// (train_promote; defaults derived from the action time).
	TrainEndDay, ValEndDay int
	// Force promotes the retrained version even when the CI/CD gate
	// would keep the incumbent (train_promote) — chaos runs that test
	// rollback need a promotion to undo.
	Force bool
}

// Assertion is one end-of-run check. Metrics are aggregated across
// platforms (counts summed, PSI maximized, lead times pooled).
type Assertion struct {
	// Type names the observed metric, a key of observers.
	Type string
	// Min/Max bound the observation inclusively; nil means unbounded.
	Min, Max *float64
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// Keys two sections share, with one meaning in both: a platform (a
// template's, or the one an action is restricted to) and a training
// split (train: and train_promote).
const (
	keyPlatform = "platform"
	keyTrainEnd = "train_end_day"
	keyValEnd   = "val_end_day"
)

// decoder tracks the path through the document for positioned errors.
type decoder struct{ path []string }

func (d *decoder) errf(format string, args ...any) error {
	p := strings.Join(d.path, ".")
	if p == "" {
		p = "document"
	}
	return fmt.Errorf("scenario: %s: %s", p, fmt.Sprintf(format, args...))
}

// items is the table destination of a sequence section: it decodes each
// item in turn, with the item's index on the error path (chaos[3]).
type items func(item any) error

// within is the table destination of a day (unit trace.Day) or minute
// (unit 1) count. The count is refused outside [0, the observation span]
// before anything converts or adds it, so no count can wrap. dst is an
// *int, or an **int where presence matters.
type within struct {
	unit trace.Minutes
	dst  any
}

// fields decodes one mapping section through its table. The table's keys
// are the section's known keys, and each destination's type picks the
// conversion: *string, *int, *float64, *bool, *platform.ID,
// *faultsim.Mode, **int and **float64 (set only when the key is given),
// within (a time count), func(any) error (a nested mapping) and items (a
// nested sequence). Keys decode in sorted order, so the first error is
// the same on every run.
func (d *decoder) fields(n any, table map[string]any) error {
	m, ok := n.(map[string]any)
	if !ok {
		return d.errf("expected a mapping, got %T", n)
	}
	for _, k := range slices.Sorted(maps.Keys(m)) {
		dst, known := table[k]
		if !known {
			return d.errf("unknown key %q (known: %s)", k, strings.Join(slices.Sorted(maps.Keys(table)), ", "))
		}
		if err := d.set(k, m[k], dst); err != nil {
			return err
		}
	}
	return nil
}

// set decodes the value under key into one table destination.
func (d *decoder) set(key string, v, dst any) error {
	switch p := dst.(type) {
	case func(any) error:
		d.path = append(d.path, key)
		defer func() { d.path = d.path[:len(d.path)-1] }()
		return p(v)
	case items:
		seq, ok := v.([]any)
		if !ok {
			return d.errf("%s: expected a sequence, got %T", key, v)
		}
		for i, it := range seq {
			d.path = append(d.path, fmt.Sprintf("%s[%d]", key, i))
			if err := p(it); err != nil {
				return err
			}
			d.path = d.path[:len(d.path)-1]
		}
		return nil
	}
	s, ok := v.(string)
	if !ok {
		return d.errf("%s: expected a scalar, got %T", key, v)
	}
	var err error
	switch p := dst.(type) {
	case *string:
		*p = s
	case *bool:
		switch s {
		case "true", "yes", "on":
			*p = true
		case "false", "no", "off":
			*p = false
		default:
			return d.errf("%s: %q is not a boolean", key, s)
		}
	case *int:
		if *p, err = strconv.Atoi(s); err != nil {
			return d.errf("%s: %q is not an integer", key, s)
		}
	case **int:
		*p = new(int)
		return d.set(key, v, *p)
	case *float64:
		if *p, err = strconv.ParseFloat(s, 64); err != nil {
			return d.errf("%s: %q is not a number", key, s)
		}
		if math.IsNaN(*p) || math.IsInf(*p, 0) {
			// NaN compares false, so it would pass every range check.
			return d.errf("%s: %q is not finite", key, s)
		}
	case **float64:
		*p = new(float64)
		return d.set(key, v, *p)
	case within:
		var n int
		if err := d.set(key, v, &n); err != nil {
			return err
		}
		if n < 0 || trace.Minutes(n) > trace.ObservationSpan/p.unit {
			return d.errf("%s: %d is outside the observation span", key, n)
		}
		return d.set(key, v, p.dst)
	case *platform.ID:
		if _, err := platform.Get(platform.ID(s)); err != nil {
			return d.errf("%v", err)
		}
		*p = platform.ID(s)
	case *faultsim.Mode:
		if *p, err = faultsim.ParseMode(s); err != nil {
			return d.errf("%v", err)
		}
	default:
		panic(fmt.Sprintf("scenario: %s: no conversion to %T", key, dst))
	}
	return nil
}

// either converts an either/or pair of day and minute counts, both
// already inside the observation span, to minutes; ok is false when
// neither was given.
func (d *decoder) either(keys string, days, mins *int) (t trace.Minutes, ok bool, err error) {
	switch {
	case days != nil && mins != nil:
		return 0, false, d.errf("give %s, not both", keys)
	case days != nil:
		return trace.Minutes(*days) * trace.Day, true, nil
	case mins != nil:
		return trace.Minutes(*mins), true, nil
	}
	return 0, false, nil
}

// Parse decodes and validates one scenario document.
func Parse(src string) (*Scenario, error) {
	node, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	s := &Scenario{
		Train: TrainSpec{Trainer: model.NameGBDT, TrainEndDay: dataset.TrainEndDay, ValEndDay: dataset.ValEndDay},
	}
	seed, tick := 42, int(trace.Day)
	if err := d.fields(node, map[string]any{
		"name": &s.Name, "description": &s.Description, "seed": &seed,
		"tick_minutes": &tick, "record_alarms": &s.RecordAlarms,
		"fleet":      func(n any) error { return d.fleet(n, &s.Fleet) },
		"train":      func(n any) error { return d.train(n, &s.Train) },
		"chaos":      items(func(n any) error { return d.action(n, s) }),
		"assertions": items(func(n any) error { return d.assertion(n, s) }),
	}); err != nil {
		return nil, err
	}
	switch {
	case s.Name == "":
		return nil, d.errf("name is required")
	case len(s.Fleet.Templates) == 0: // fleet refuses a section without one
		return nil, d.errf("fleet section is required")
	case seed < 0:
		return nil, d.errf("seed must be non-negative")
	case tick <= 0:
		return nil, d.errf("tick_minutes must be positive")
	}
	s.Seed, s.TickMinutes = uint64(seed), trace.Minutes(tick)

	// Checks across sections, made once every section is decoded: the
	// trainer must run on every fleet platform, and no action may inject
	// more CEs into one DIMM than the generator lets a DIMM have.
	tr, _ := model.Resolve(s.Train.Trainer) // resolved when decoded, or the default
	for _, t := range s.Fleet.Templates {
		if !tr.Applicable(t.Platform) {
			d.path = []string{"train", "trainer"}
			return nil, d.errf("%s is not applicable on %s", tr.Name(), t.Platform)
		}
	}
	limit := s.Fleet.MaxEventsPerDIMM
	if limit <= 0 {
		limit = faultsim.DefaultMaxEventsPerDIMM
	}
	for i, a := range s.Chaos {
		if key, n := a.cesPerDIMM(); n > float64(limit) {
			d.path = []string{fmt.Sprintf("chaos[%d]", i)}
			return nil, d.errf("%s: %g CEs per DIMM exceed the cap of %d (fleet.max_events_per_dimm)", key, n, limit)
		}
	}
	return s, nil
}

// cesPerDIMM is what the action injects into each DIMM it targets, and
// the keys that set it: a fault burst's CE count, or a CE storm's Poisson
// mean; 0 for the other kinds.
func (a *Action) cesPerDIMM() (key string, n float64) {
	switch a.Kind {
	case ActionFaultBurst:
		return "burst_ces", float64(a.BurstCEs)
	case ActionCEStorm:
		return "rate_per_day × duration", a.RatePerDay * float64(a.Duration) / float64(trace.Day)
	}
	return "", 0
}

func (d *decoder) fleet(n any, f *FleetGen) error {
	if err := d.fields(n, map[string]any{
		"scale": &f.Scale, "max_events_per_dimm": &f.MaxEventsPerDIMM,
		"templates": items(func(n any) error { return d.template(n, f) }),
		"regimes":   items(func(n any) error { return d.regime(n, f) }),
	}); err != nil {
		return err
	}
	switch {
	case f.Scale <= 0:
		return d.errf("scale must be a positive number")
	case f.Scale > 1:
		return d.errf("scale: %g is above 1, the paper's whole population", f.Scale)
	case f.MaxEventsPerDIMM > faultsim.DefaultMaxEventsPerDIMM:
		return d.errf("max_events_per_dimm: %d is above the generator's cap of %d", f.MaxEventsPerDIMM, faultsim.DefaultMaxEventsPerDIMM)
	}
	if len(f.Templates) == 0 {
		return d.errf("templates must list at least one platform")
	}
	return nil
}

func (d *decoder) template(n any, f *FleetGen) error {
	t := Template{Weight: 1}
	if err := d.fields(n, map[string]any{keyPlatform: &t.Platform, "weight": &t.Weight}); err != nil {
		return err
	}
	if t.Platform == "" {
		return d.errf("platform is required")
	}
	if t.Weight <= 0 {
		return d.errf("weight must be positive")
	}
	f.Templates = append(f.Templates, t)
	return nil
}

func (d *decoder) regime(n any, f *FleetGen) error {
	var r faultsim.Regime
	var from *int
	if err := d.fields(n, map[string]any{
		"from_day": &from, "to_day": &r.ToDay, "rate_mult": &r.RateMult,
		"modes": func(n any) error { return d.modes(n, &r) },
	}); err != nil {
		return err
	}
	if from == nil {
		return d.errf("from_day is required")
	}
	r.FromDay = *from
	if err := r.Validate(); err != nil {
		return d.errf("%v", err)
	}
	f.Regimes = append(f.Regimes, r)
	return nil
}

// modes decodes a regime's mapping of fault-mode name to multiplier.
func (d *decoder) modes(n any, r *faultsim.Regime) error {
	m, ok := n.(map[string]any)
	if !ok {
		return d.errf("expected a mapping of mode name to multiplier")
	}
	r.ModeMult = map[faultsim.Mode]float64{}
	for _, name := range slices.Sorted(maps.Keys(m)) {
		mode, err := faultsim.ParseMode(name)
		if err != nil {
			return d.errf("%v", err)
		}
		var f float64
		if err := d.set(name, m[name], &f); err != nil {
			return err
		}
		r.ModeMult[mode] = f
	}
	return nil
}

func (d *decoder) train(n any, t *TrainSpec) error {
	if err := d.fields(n, map[string]any{
		"trainer":   &t.Trainer,
		keyTrainEnd: within{trace.Day, &t.TrainEndDay}, keyValEnd: within{trace.Day, &t.ValEndDay},
	}); err != nil {
		return err
	}
	tr, err := model.Resolve(t.Trainer)
	if err != nil {
		return d.errf("%v", err)
	}
	t.Trainer = tr.Name()
	if t.TrainEndDay <= 0 || t.ValEndDay <= t.TrainEndDay {
		return d.errf("need 0 < train_end_day < val_end_day")
	}
	return nil
}

func (d *decoder) action(n any, s *Scenario) error {
	var a Action
	var atDay, atMin, durDays, durMin *int
	if err := d.fields(n, map[string]any{
		"action": &a.Kind,
		"at_day": within{trace.Day, &atDay}, "at_minutes": within{1, &atMin},
		"duration_days": within{trace.Day, &durDays}, "duration_minutes": within{1, &durMin},
		keyPlatform: &a.Platform, "fraction": &a.Fraction, "rate_per_day": &a.RatePerDay,
		"mode": &a.Mode, "risky": &a.Risky, "count": &a.Count, "burst_ces": &a.BurstCEs,
		"selector": &a.Selector, "max_targets": &a.MaxTargets,
		keyTrainEnd: within{trace.Day, &a.TrainEndDay}, keyValEnd: within{trace.Day, &a.ValEndDay},
		"force": &a.Force,
	}); err != nil {
		return err
	}
	at, ok, err := d.either("at_day or at_minutes", atDay, atMin)
	if err != nil {
		return err
	}
	if !ok {
		return d.errf("at_day (or at_minutes) is required")
	}
	a.At = at
	if a.Duration, _, err = d.either("duration_days or duration_minutes", durDays, durMin); err != nil {
		return err
	}
	if err := a.validate(d); err != nil {
		return err
	}
	s.Chaos = append(s.Chaos, a)
	return nil
}

// validate checks one action's kind-specific requirements.
func (a *Action) validate(d *decoder) error {
	if a.At < 0 || a.At >= trace.ObservationSpan {
		return d.errf("action time %v outside the observation span", a.At)
	}
	if a.Duration < 0 || a.At+a.Duration > trace.ObservationSpan {
		return d.errf("action window extends past the observation span")
	}
	switch a.Kind {
	case ActionCEStorm:
		if a.Fraction <= 0 || a.Fraction > 1 {
			return d.errf("ce_storm needs fraction in (0, 1]")
		}
		if a.RatePerDay <= 0 {
			return d.errf("ce_storm needs a positive rate_per_day")
		}
		if a.Duration == 0 {
			return d.errf("ce_storm needs a duration")
		}
	case ActionFaultBurst:
		if a.Count <= 0 || a.BurstCEs <= 0 {
			return d.errf("fault_burst needs positive count and burst_ces")
		}
		if a.Duration == 0 {
			a.Duration = trace.Day
		}
	case ActionMaintenance:
		if a.Duration == 0 {
			return d.errf("maintenance needs a duration")
		}
	case ActionHotswap:
		switch a.Selector {
		case "":
			a.Selector = "alarmed"
		case "alarmed":
		case "random":
			if a.Fraction <= 0 || a.Fraction > 1 {
				return d.errf("hotswap selector random needs fraction in (0, 1]")
			}
		default:
			return d.errf("hotswap selector must be alarmed or random, got %q", a.Selector)
		}
	case ActionLogLag:
		if a.Fraction <= 0 || a.Fraction > 1 {
			return d.errf("log_lag needs fraction in (0, 1]")
		}
		if a.Duration == 0 {
			return d.errf("log_lag needs a duration")
		}
	case ActionTrainPromote:
		if a.TrainEndDay != 0 || a.ValEndDay != 0 {
			if a.TrainEndDay <= 0 || a.ValEndDay <= a.TrainEndDay {
				return d.errf("train_promote needs 0 < train_end_day < val_end_day")
			}
			if trace.Minutes(a.ValEndDay)*trace.Day > a.At {
				return d.errf("train_promote split must not look past the action time")
			}
		}
	case ActionRollback:
	case "":
		return d.errf("action is required")
	default:
		return d.errf("unknown action %q", a.Kind)
	}
	return nil
}

func (d *decoder) assertion(n any, s *Scenario) error {
	var a Assertion
	if err := d.fields(n, map[string]any{"type": &a.Type, "min": &a.Min, "max": &a.Max}); err != nil {
		return err
	}
	if observers[a.Type] == nil {
		return d.errf("unknown assertion type %q", a.Type)
	}
	if a.Min == nil && a.Max == nil {
		return d.errf("assertion needs min and/or max")
	}
	if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
		return d.errf("min %v exceeds max %v", *a.Min, *a.Max)
	}
	s.Assertions = append(s.Assertions, a)
	return nil
}
