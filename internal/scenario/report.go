package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"memfp/internal/mlops"
	"memfp/internal/trace"
)

// ReportFormat identifies the report schema version.
const ReportFormat = "memfp-scenario-report-v1"

// Report is the machine-readable outcome of one scenario run. Every
// field except WallMS is a pure function of (scenario, seed), so
// CanonicalJSON is byte-identical across repeats, shard counts and
// worker counts.
type Report struct {
	Format      string `json:"format"`
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        uint64 `json:"seed"`

	Fleet    FleetSummary      `json:"fleet"`
	Counters Counters          `json:"counters"`
	Metrics  Metrics           `json:"metrics"`
	Perform  []PlatformSummary `json:"platforms"`

	Assertions []AssertionResult `json:"assertions"`
	Passed     bool              `json:"passed"`

	// AlarmDigest is a SHA-256 over the canonical alarm stream; two runs
	// alarmed identically iff their digests match.
	AlarmDigest string `json:"alarm_digest"`
	// Alarms is the full stream, embedded when the scenario sets
	// record_alarms.
	Alarms []AlarmRecord `json:"alarms,omitempty"`

	// WallMS is wall-clock runtime — the one nondeterministic field;
	// CanonicalJSON drops it.
	WallMS int64 `json:"wall_ms,omitempty"`
}

// FleetSummary describes the generated population.
type FleetSummary struct {
	DIMMs     int `json:"dimms"`
	Generated int `json:"generated_events"`
	Failures  int `json:"failures"`
}

// Counters are the run's integer observables.
type Counters struct {
	EventsDelivered int `json:"events_delivered"`
	EventsInjected  int `json:"events_injected"`
	EventsDropped   int `json:"events_dropped"`
	EventsLagged    int `json:"events_lagged"`
	EventsHeld      int `json:"events_held"`
	Predictions     int `json:"predictions"`
	Alarms          int `json:"alarms"`
	Hotswaps        int `json:"hotswaps"`
	Promotions      int `json:"promotions"`
	Rollbacks       int `json:"rollbacks"`
}

// Metrics are the run's aggregate quality observables. Precision and
// recall pool TP/FP/FN across platforms; PSI takes the worst platform;
// lead-time percentiles pool the per-DIMM lead times (in days).
type Metrics struct {
	Precision   float64 `json:"precision"`
	Recall      float64 `json:"recall"`
	LeadSamples int     `json:"lead_samples"`
	LeadP50Days float64 `json:"lead_time_p50_days"`
	LeadP90Days float64 `json:"lead_time_p90_days"`
	PSI         float64 `json:"psi"`
}

// PlatformSummary is one platform's slice of the run.
type PlatformSummary struct {
	Platform    string  `json:"platform"`
	DIMMs       int     `json:"dimms"`
	Events      int     `json:"events"`
	Predictions int     `json:"predictions"`
	Alarms      int     `json:"alarms"`
	Precision   float64 `json:"precision"`
	Recall      float64 `json:"recall"`
	PSI         float64 `json:"psi"`
}

// AssertionResult is one evaluated assertion.
type AssertionResult struct {
	Type     string   `json:"type"`
	Min      *float64 `json:"min,omitempty"`
	Max      *float64 `json:"max,omitempty"`
	Observed float64  `json:"observed"`
	Pass     bool     `json:"pass"`
}

// AlarmRecord is one alarm in report form.
type AlarmRecord struct {
	Time  int64   `json:"time"`
	DIMM  string  `json:"dimm"`
	Score float64 `json:"score"`
	Model string  `json:"model"`
}

// CanonicalJSON renders the deterministic report bytes: the wall-time
// field is zeroed (and omitted via omitempty) so repeats compare equal.
func (r *Report) CanonicalJSON() ([]byte, error) {
	cp := *r
	cp.WallMS = 0
	b, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// AlarmDigest hashes an alarm stream into its canonical digest: one
// "time|dimm|score|model" line per alarm, SHA-256, hex.
func AlarmDigest(alarms []mlops.Alarm) string {
	h := sha256.New()
	for _, a := range alarms {
		fmt.Fprintf(h, "%d|%s|%s|%s\n", int64(a.Time), a.DIMM,
			strconv.FormatFloat(a.Score, 'g', -1, 64), a.Model)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// buildReport resolves each platform's alarms into its monitor's
// feedback, assembles the report from the finished run state and
// evaluates the scenario's assertions.
func buildReport(s *Scenario, st *runState, generated int, reporters []statsReporter) *Report {
	rep := &Report{
		Format:      ReportFormat,
		Name:        s.Name,
		Description: s.Description,
		Seed:        s.Seed,
		Fleet:       FleetSummary{DIMMs: len(st.ctxI.dimms), Generated: generated},
		Counters: Counters{
			EventsDelivered: st.delivered,
			EventsHeld:      st.heldTotal,
			Alarms:          len(st.alarms),
			Hotswaps:        st.hotswaps,
			Promotions:      st.promotes,
			Rollbacks:       st.rollbacks,
		},
		AlarmDigest: AlarmDigest(st.alarms),
	}
	for _, r := range reporters {
		is := r.stats()
		rep.Counters.EventsInjected += is.Injected
		rep.Counters.EventsDropped += is.Dropped
		rep.Counters.EventsLagged += is.Lagged
	}

	// Resolve each platform's alarms against its failures (feeding its
	// pipeline's monitor) and pool the outcomes.
	tp, fp, fn := 0, 0, 0
	var leads []float64
	for _, pf := range st.order {
		pr := st.runs[pf]
		rep.Fleet.Failures += len(pr.failed)
		var pa []mlops.Alarm
		for _, a := range st.alarms {
			if a.DIMM.Platform == pf {
				pa = append(pa, a)
			}
		}
		ptp, pfp, pfn, pleads := pr.pipe.ResolveAlarms(pa, pr.failed)
		tp, fp, fn = tp+ptp, fp+pfp, fn+pfn
		for _, lead := range pleads {
			leads = append(leads, float64(lead)/float64(trace.Day))
		}

		// The node's monitor counts predictions and scores; the pipeline's
		// counts events and resolved outcomes.
		mon, fl := pr.pipe.Monitor, pr.cp.Fleet()
		prec, rec := mon.LivePrecisionRecall()
		if fl.PSI > rep.Metrics.PSI {
			rep.Metrics.PSI = fl.PSI
		}
		rep.Counters.Predictions += int(fl.Predictions)
		ps := PlatformSummary{
			Platform:    string(pf),
			DIMMs:       pr.store.Len(),
			Predictions: int(fl.Predictions),
			Alarms:      len(pa),
			Precision:   prec,
			Recall:      rec,
			PSI:         fl.PSI,
		}
		for _, t := range []trace.EventType{trace.TypeCE, trace.TypeUE, trace.TypeStorm} {
			ps.Events += mon.EventCount(t)
		}
		rep.Perform = append(rep.Perform, ps)
	}
	if tp+fp > 0 {
		rep.Metrics.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		rep.Metrics.Recall = float64(tp) / float64(tp+fn)
	}
	sort.Float64s(leads)
	rep.Metrics.LeadSamples = len(leads)
	rep.Metrics.LeadP50Days = percentile(leads, 50)
	rep.Metrics.LeadP90Days = percentile(leads, 90)

	if s.RecordAlarms {
		for _, a := range st.alarms {
			rep.Alarms = append(rep.Alarms, AlarmRecord{
				Time: int64(a.Time), DIMM: a.DIMM.String(), Score: a.Score, Model: a.Model,
			})
		}
	}

	rep.Passed = true
	for _, as := range s.Assertions {
		obs := observers[as.Type](rep)
		res := AssertionResult{Type: as.Type, Min: as.Min, Max: as.Max, Observed: obs, Pass: true}
		if as.Min != nil && obs < *as.Min {
			res.Pass = false
		}
		if as.Max != nil && obs > *as.Max {
			res.Pass = false
		}
		if !res.Pass {
			rep.Passed = false
		}
		rep.Assertions = append(rep.Assertions, res)
	}
	return rep
}

// observers maps each assertion type to the report value it bounds; its
// keys are the valid Assertion.Type values.
var observers = map[string]func(*Report) float64{
	"alarm_count":      func(r *Report) float64 { return float64(r.Counters.Alarms) },
	"predictions":      func(r *Report) float64 { return float64(r.Counters.Predictions) },
	"events_delivered": func(r *Report) float64 { return float64(r.Counters.EventsDelivered) },
	"events_injected":  func(r *Report) float64 { return float64(r.Counters.EventsInjected) },
	"events_dropped":   func(r *Report) float64 { return float64(r.Counters.EventsDropped) },
	"events_lagged":    func(r *Report) float64 { return float64(r.Counters.EventsLagged) },
	"events_held":      func(r *Report) float64 { return float64(r.Counters.EventsHeld) },
	"hotswaps":         func(r *Report) float64 { return float64(r.Counters.Hotswaps) },
	"promotions":       func(r *Report) float64 { return float64(r.Counters.Promotions) },
	"rollbacks":        func(r *Report) float64 { return float64(r.Counters.Rollbacks) },
	"precision":        func(r *Report) float64 { return r.Metrics.Precision },
	"recall":           func(r *Report) float64 { return r.Metrics.Recall },
	"lead_time_p50":    func(r *Report) float64 { return r.Metrics.LeadP50Days },
	"lead_time_p90":    func(r *Report) float64 { return r.Metrics.LeadP90Days },
	"psi":              func(r *Report) float64 { return r.Metrics.PSI },
}

// Summary renders a short human-readable pass/fail table.
func (r *Report) Summary() string {
	var sb strings.Builder
	status := "PASS"
	if !r.Passed {
		status = "FAIL"
	}
	fmt.Fprintf(&sb, "%s %s: %d DIMMs, %d delivered (%d injected, %d dropped), %d alarms\n",
		status, r.Name, r.Fleet.DIMMs, r.Counters.EventsDelivered,
		r.Counters.EventsInjected, r.Counters.EventsDropped, r.Counters.Alarms)
	for _, a := range r.Assertions {
		mark := "ok"
		if !a.Pass {
			mark = "FAIL"
		}
		bounds := ""
		if a.Min != nil {
			bounds += fmt.Sprintf(" min=%g", *a.Min)
		}
		if a.Max != nil {
			bounds += fmt.Sprintf(" max=%g", *a.Max)
		}
		fmt.Fprintf(&sb, "  [%s] %s observed=%g%s\n", mark, a.Type, a.Observed, bounds)
	}
	return sb.String()
}

// percentile is the nearest-rank percentile of a sorted sample.
func percentile(sorted []float64, pct int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*pct/100]
}
