package pipeline

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Env is the execution environment handed to every scenario: the shared
// fleet cache, the concurrency budget, the experiment knobs common to all
// scenarios, and where to write the report.
type Env struct {
	// Cache serves fleet generation; nil means Shared.
	Cache *FleetCache
	// Workers bounds cell concurrency (0 = one per CPU).
	Workers int
	// Scale is the fleet-size multiplier relative to the paper's
	// population.
	Scale float64
	// Seed drives every random choice.
	Seed uint64
	// Out receives the scenario's rendered report; nil means io.Discard.
	Out io.Writer
}

// Fleets returns the cache to generate through.
func (e *Env) Fleets() *FleetCache {
	if e.Cache != nil {
		return e.Cache
	}
	return Shared
}

// Printf writes formatted report output.
func (e *Env) Printf(format string, args ...any) {
	w := e.Out
	if w == nil {
		w = io.Discard
	}
	fmt.Fprintf(w, format, args...)
}

// Scenario is a named, registered experiment: one paper table/figure, one
// sweep, one replay. New scenarios — larger scales, multi-seed replication
// runs — are one Register call away and immediately reachable from every
// driver that iterates the registry (e.g. `memfp repro`).
type Scenario struct {
	// Name is the registry key and CLI selector ("table2").
	Name string
	// Order positions the scenario in All(); lower runs first.
	Order int
	// Describe is a one-line summary for listings.
	Describe string
	// Run executes the scenario against env.
	Run func(ctx context.Context, env *Env) error
}

var (
	regMu sync.RWMutex
	reg   = map[string]Scenario{}
)

// Register adds a scenario to the registry. It panics on an empty or
// duplicate name — registration happens from init functions, where a
// conflict is a programming error.
func Register(s Scenario) {
	if s.Name == "" {
		panic("pipeline: Register with empty scenario name")
	}
	if s.Run == nil {
		panic(fmt.Sprintf("pipeline: scenario %q has no Run", s.Name))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := reg[s.Name]; dup {
		panic(fmt.Sprintf("pipeline: duplicate scenario %q", s.Name))
	}
	reg[s.Name] = s
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := reg[name]
	return s, ok
}

// All returns every registered scenario ordered by (Order, Name).
func All() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(reg))
	for _, s := range reg {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}
