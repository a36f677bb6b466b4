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
// Run scenarios with `memfp simulate scenarios/<name>.yaml`; check a
// file against the schema with `memfp simulate -validate <file>`.
package scenario

import (
	"fmt"
	"sort"
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
	// Shards is the default serving-engine shard count (0 = one per
	// CPU). Any value yields the identical report; runners may override.
	Shards int
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

// feedbackWindow is the prediction window alarms are resolved against
// (TP/FP/lead time).
const feedbackWindow = 30 * trace.Day

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
	// Type names the observed metric: alarm_count, predictions,
	// events_delivered, events_injected, events_dropped, events_lagged,
	// events_held, hotswaps, promotions, rollbacks, precision, recall,
	// lead_time_p50, lead_time_p90 (days), psi.
	Type string
	// Min/Max bound the observation inclusively; nil means unbounded.
	Min, Max *float64
}

// assertionTypes lists the valid Assertion.Type values.
var assertionTypes = map[string]bool{
	"alarm_count": true, "predictions": true, "events_delivered": true,
	"events_injected": true, "events_dropped": true, "events_lagged": true,
	"events_held": true, "hotswaps": true, "promotions": true,
	"rollbacks": true, "precision": true, "recall": true,
	"lead_time_p50": true, "lead_time_p90": true, "psi": true,
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// decoder tracks the path through the document for positioned errors.
type decoder struct{ path []string }

func (d *decoder) errf(format string, args ...any) error {
	p := strings.Join(d.path, ".")
	if p == "" {
		p = "document"
	}
	return fmt.Errorf("scenario: %s: %s", p, fmt.Sprintf(format, args...))
}

func (d *decoder) push(k string) { d.path = append(d.path, k) }
func (d *decoder) pop()          { d.path = d.path[:len(d.path)-1] }

// mapNode asserts a node is a mapping and checks for unknown keys.
func (d *decoder) mapNode(n any, known ...string) (map[string]any, error) {
	m, ok := n.(map[string]any)
	if !ok {
		return nil, d.errf("expected a mapping, got %T", n)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		found := false
		for _, w := range known {
			if k == w {
				found = true
				break
			}
		}
		if !found {
			return nil, d.errf("unknown key %q (known: %s)", k, strings.Join(known, ", "))
		}
	}
	return m, nil
}

func (d *decoder) str(m map[string]any, key string) (string, bool, error) {
	v, ok := m[key]
	if !ok {
		return "", false, nil
	}
	s, isStr := v.(string)
	if !isStr {
		return "", false, d.errf("%s: expected a scalar, got %T", key, v)
	}
	return s, true, nil
}

func (d *decoder) float(m map[string]any, key string) (float64, bool, error) {
	s, ok, err := d.str(m, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false, d.errf("%s: %q is not a number", key, s)
	}
	return f, true, nil
}

func (d *decoder) integer(m map[string]any, key string) (int, bool, error) {
	s, ok, err := d.str(m, key)
	if err != nil || !ok {
		return 0, ok, err
	}
	i, err := strconv.Atoi(s)
	if err != nil {
		return 0, false, d.errf("%s: %q is not an integer", key, s)
	}
	return i, true, nil
}

func (d *decoder) boolean(m map[string]any, key string) (bool, bool, error) {
	s, ok, err := d.str(m, key)
	if err != nil || !ok {
		return false, ok, err
	}
	switch s {
	case "true", "yes", "on":
		return true, true, nil
	case "false", "no", "off":
		return false, true, nil
	}
	return false, false, d.errf("%s: %q is not a boolean", key, s)
}

func (d *decoder) seq(m map[string]any, key string) ([]any, bool, error) {
	v, ok := m[key]
	if !ok {
		return nil, false, nil
	}
	s, isSeq := v.([]any)
	if !isSeq {
		return nil, false, d.errf("%s: expected a sequence, got %T", key, v)
	}
	return s, true, nil
}

// Parse decodes and validates one scenario document.
func Parse(src string) (*Scenario, error) {
	node, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	root, err := d.mapNode(node, "name", "description", "seed", "tick_minutes",
		"shards", "record_alarms", "fleet", "train", "chaos", "assertions")
	if err != nil {
		return nil, err
	}

	s := &Scenario{
		Seed:        42,
		TickMinutes: trace.Day,
		Train:       TrainSpec{Trainer: model.NameGBDT, TrainEndDay: dataset.TrainEndDay, ValEndDay: dataset.ValEndDay},
	}
	if s.Name, _, err = d.str(root, "name"); err != nil {
		return nil, err
	}
	if s.Name == "" {
		return nil, d.errf("name is required")
	}
	if s.Description, _, err = d.str(root, "description"); err != nil {
		return nil, err
	}
	if v, ok, err := d.integer(root, "seed"); err != nil {
		return nil, err
	} else if ok {
		if v < 0 {
			return nil, d.errf("seed must be non-negative")
		}
		s.Seed = uint64(v)
	}
	if v, ok, err := d.integer(root, "tick_minutes"); err != nil {
		return nil, err
	} else if ok {
		if v <= 0 {
			return nil, d.errf("tick_minutes must be positive")
		}
		s.TickMinutes = trace.Minutes(v)
	}
	if v, ok, err := d.integer(root, "shards"); err != nil {
		return nil, err
	} else if ok {
		s.Shards = v
	}
	if v, ok, err := d.boolean(root, "record_alarms"); err != nil {
		return nil, err
	} else if ok {
		s.RecordAlarms = v
	}

	if err := d.decodeFleet(root, s); err != nil {
		return nil, err
	}
	if err := d.decodeTrain(root, s); err != nil {
		return nil, err
	}
	if err := d.decodeChaos(root, s); err != nil {
		return nil, err
	}
	if err := d.decodeAssertions(root, s); err != nil {
		return nil, err
	}
	return s, s.validate()
}

func (d *decoder) decodeFleet(root map[string]any, s *Scenario) error {
	v, ok := root["fleet"]
	if !ok {
		return d.errf("fleet section is required")
	}
	d.push("fleet")
	defer d.pop()
	m, err := d.mapNode(v, "scale", "templates", "regimes", "max_events_per_dimm")
	if err != nil {
		return err
	}
	if s.Fleet.Scale, ok, err = d.float(m, "scale"); err != nil {
		return err
	} else if !ok || s.Fleet.Scale <= 0 {
		return d.errf("scale must be a positive number")
	}
	if s.Fleet.MaxEventsPerDIMM, _, err = d.integer(m, "max_events_per_dimm"); err != nil {
		return err
	}
	items, ok, err := d.seq(m, "templates")
	if err != nil {
		return err
	}
	if !ok || len(items) == 0 {
		return d.errf("templates must list at least one platform")
	}
	for i, it := range items {
		d.push(fmt.Sprintf("templates[%d]", i))
		tm, err := d.mapNode(it, "platform", "weight")
		if err != nil {
			return err
		}
		var t Template
		pf, ok, err := d.str(tm, "platform")
		if err != nil {
			return err
		}
		if !ok {
			return d.errf("platform is required")
		}
		t.Platform, err = parsePlatform(pf)
		if err != nil {
			return d.errf("%v", err)
		}
		t.Weight = 1
		if w, ok, err := d.float(tm, "weight"); err != nil {
			return err
		} else if ok {
			if w <= 0 {
				return d.errf("weight must be positive")
			}
			t.Weight = w
		}
		s.Fleet.Templates = append(s.Fleet.Templates, t)
		d.pop()
	}
	regs, _, err := d.seq(m, "regimes")
	if err != nil {
		return err
	}
	for i, it := range regs {
		d.push(fmt.Sprintf("regimes[%d]", i))
		rm, err := d.mapNode(it, "from_day", "to_day", "rate_mult", "modes")
		if err != nil {
			return err
		}
		var r faultsim.Regime
		if r.FromDay, ok, err = d.integer(rm, "from_day"); err != nil {
			return err
		} else if !ok {
			return d.errf("from_day is required")
		}
		if r.ToDay, _, err = d.integer(rm, "to_day"); err != nil {
			return err
		}
		if r.RateMult, _, err = d.float(rm, "rate_mult"); err != nil {
			return err
		}
		if mv, ok := rm["modes"]; ok {
			mm, isMap := mv.(map[string]any)
			if !isMap {
				return d.errf("modes: expected a mapping of mode name to multiplier")
			}
			r.ModeMult = map[faultsim.Mode]float64{}
			names := make([]string, 0, len(mm))
			for name := range mm {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				mode, err := faultsim.ParseMode(name)
				if err != nil {
					return d.errf("modes: %v", err)
				}
				fs, isStr := mm[name].(string)
				if !isStr {
					return d.errf("modes.%s: expected a number", name)
				}
				f, err := strconv.ParseFloat(fs, 64)
				if err != nil {
					return d.errf("modes.%s: %q is not a number", name, fs)
				}
				r.ModeMult[mode] = f
			}
		}
		if err := r.Validate(); err != nil {
			return d.errf("%v", err)
		}
		s.Fleet.Regimes = append(s.Fleet.Regimes, r)
		d.pop()
	}
	return nil
}

func (d *decoder) decodeTrain(root map[string]any, s *Scenario) error {
	v, ok := root["train"]
	if !ok {
		return nil
	}
	d.push("train")
	defer d.pop()
	m, err := d.mapNode(v, "trainer", "train_end_day", "val_end_day")
	if err != nil {
		return err
	}
	if name, ok, err := d.str(m, "trainer"); err != nil {
		return err
	} else if ok {
		t, err := model.Resolve(name)
		if err != nil {
			return d.errf("%v", err)
		}
		s.Train.Trainer = t.Name()
	}
	if v, ok, err := d.integer(m, "train_end_day"); err != nil {
		return err
	} else if ok {
		s.Train.TrainEndDay = v
	}
	if v, ok, err := d.integer(m, "val_end_day"); err != nil {
		return err
	} else if ok {
		s.Train.ValEndDay = v
	}
	if s.Train.TrainEndDay <= 0 || s.Train.ValEndDay <= s.Train.TrainEndDay {
		return d.errf("need 0 < train_end_day < val_end_day")
	}
	return nil
}

func (d *decoder) decodeChaos(root map[string]any, s *Scenario) error {
	items, _, err := d.seq(root, "chaos")
	if err != nil {
		return err
	}
	for i, it := range items {
		d.push(fmt.Sprintf("chaos[%d]", i))
		m, err := d.mapNode(it, "at_day", "at_minutes", "action", "duration_days",
			"duration_minutes", "platform", "fraction", "rate_per_day", "mode",
			"risky", "count", "burst_ces", "selector", "max_targets",
			"train_end_day", "val_end_day", "force")
		if err != nil {
			return err
		}
		var a Action
		if a.Kind, _, err = d.str(m, "action"); err != nil {
			return err
		}
		atDay, dayOK, err := d.integer(m, "at_day")
		if err != nil {
			return err
		}
		atMin, minOK, err := d.integer(m, "at_minutes")
		if err != nil {
			return err
		}
		switch {
		case dayOK && minOK:
			return d.errf("give at_day or at_minutes, not both")
		case dayOK:
			a.At = trace.Minutes(atDay) * trace.Day
		case minOK:
			a.At = trace.Minutes(atMin)
		default:
			return d.errf("at_day (or at_minutes) is required")
		}
		durD, dOK, err := d.integer(m, "duration_days")
		if err != nil {
			return err
		}
		durM, mOK, err := d.integer(m, "duration_minutes")
		if err != nil {
			return err
		}
		switch {
		case dOK && mOK:
			return d.errf("give duration_days or duration_minutes, not both")
		case dOK:
			a.Duration = trace.Minutes(durD) * trace.Day
		case mOK:
			a.Duration = trace.Minutes(durM)
		}
		if pf, ok, err := d.str(m, "platform"); err != nil {
			return err
		} else if ok {
			if a.Platform, err = parsePlatform(pf); err != nil {
				return d.errf("%v", err)
			}
		}
		if a.Fraction, _, err = d.float(m, "fraction"); err != nil {
			return err
		}
		if a.RatePerDay, _, err = d.float(m, "rate_per_day"); err != nil {
			return err
		}
		if ms, ok, err := d.str(m, "mode"); err != nil {
			return err
		} else if ok {
			if a.Mode, err = faultsim.ParseMode(ms); err != nil {
				return d.errf("%v", err)
			}
		}
		if a.Risky, _, err = d.boolean(m, "risky"); err != nil {
			return err
		}
		if a.Count, _, err = d.integer(m, "count"); err != nil {
			return err
		}
		if a.BurstCEs, _, err = d.integer(m, "burst_ces"); err != nil {
			return err
		}
		if a.Selector, _, err = d.str(m, "selector"); err != nil {
			return err
		}
		if a.MaxTargets, _, err = d.integer(m, "max_targets"); err != nil {
			return err
		}
		if a.TrainEndDay, _, err = d.integer(m, "train_end_day"); err != nil {
			return err
		}
		if a.ValEndDay, _, err = d.integer(m, "val_end_day"); err != nil {
			return err
		}
		if a.Force, _, err = d.boolean(m, "force"); err != nil {
			return err
		}
		if err := a.validate(d); err != nil {
			return err
		}
		s.Chaos = append(s.Chaos, a)
		d.pop()
	}
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

func (d *decoder) decodeAssertions(root map[string]any, s *Scenario) error {
	items, _, err := d.seq(root, "assertions")
	if err != nil {
		return err
	}
	for i, it := range items {
		d.push(fmt.Sprintf("assertions[%d]", i))
		m, err := d.mapNode(it, "type", "min", "max")
		if err != nil {
			return err
		}
		var a Assertion
		if a.Type, _, err = d.str(m, "type"); err != nil {
			return err
		}
		if !assertionTypes[a.Type] {
			return d.errf("unknown assertion type %q", a.Type)
		}
		if v, ok, err := d.float(m, "min"); err != nil {
			return err
		} else if ok {
			a.Min = &v
		}
		if v, ok, err := d.float(m, "max"); err != nil {
			return err
		} else if ok {
			a.Max = &v
		}
		if a.Min == nil && a.Max == nil {
			return d.errf("assertion needs min and/or max")
		}
		if a.Min != nil && a.Max != nil && *a.Min > *a.Max {
			return d.errf("min %v exceeds max %v", *a.Min, *a.Max)
		}
		s.Assertions = append(s.Assertions, a)
		d.pop()
	}
	return nil
}

// validate runs the cross-section checks after decoding.
func (s *Scenario) validate() error {
	tdEnd := trace.Minutes(s.Train.ValEndDay) * trace.Day
	if tdEnd > trace.ObservationSpan {
		return fmt.Errorf("scenario: train: val_end_day past the observation span")
	}
	if _, ok := model.Get(s.Train.Trainer); !ok {
		return fmt.Errorf("scenario: train: unknown trainer %q", s.Train.Trainer)
	}
	return nil
}

// parsePlatform resolves a platform name.
func parsePlatform(s string) (platform.ID, error) {
	for _, id := range platform.All() {
		if string(id) == s {
			return id, nil
		}
	}
	return "", fmt.Errorf("unknown platform %q (want one of %v)", s, platform.All())
}
