package mlops

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"memfp/internal/eval"
	"memfp/internal/ml/model"
	"memfp/internal/platform"
)

// Stage is a model lifecycle stage.
type Stage string

// Lifecycle stages.
const (
	StageStaging    Stage = "staging"
	StageProduction Stage = "production"
	StageArchived   Stage = "archived"
)

// ModelVersion is one registered model. A version is its artifact: the
// model lives as a serialized internal/ml/model envelope, so a version
// survives the process that registered it — Registry.Save/Load
// round-trips the exported fields under their JSON names — and serving
// rehydrates the model from the artifact on first use.
type ModelVersion struct {
	Name      string       `json:"name"`
	Version   int          `json:"version"`
	Platform  platform.ID  `json:"platform"`
	Algorithm string       `json:"algorithm"`
	Stage     Stage        `json:"stage"`
	Metrics   eval.Metrics `json:"metrics"`   // offline benchmark metrics at registration
	Threshold float64      `json:"threshold"` // tuned decision threshold
	CreatedAt time.Time    `json:"created_at"`
	// Artifact is the serialized model envelope (model.Load-able).
	Artifact []byte `json:"artifact"`

	// mdl caches the rehydrated serving model.
	mdlOnce sync.Once
	mdl     model.Model
	mdlErr  error
}

// Model rehydrates the serialized artifact into a fresh model value.
func (v *ModelVersion) Model() (model.Model, error) {
	if len(v.Artifact) == 0 {
		return nil, fmt.Errorf("mlops: %s v%d has no serialized artifact", v.Name, v.Version)
	}
	return model.Load(v.Artifact)
}

// ServingModel returns the version's model for serving, decoding the
// artifact once and caching the result (or the decode error): a server
// scoring every tick pays the decode once.
func (v *ModelVersion) ServingModel() (model.Model, error) {
	v.mdlOnce.Do(func() { v.mdl, v.mdlErr = v.Model() })
	return v.mdl, v.mdlErr
}

// Registry is the model registry of Figure 6. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	versions map[string][]*ModelVersion // name → versions ascending
	// epoch advances on every promotion. Serving layers cache the
	// resolved production model and compare epochs instead of taking the
	// registry lock on every prediction.
	epoch atomic.Uint64
}

// Epoch returns a counter that advances on every Promote (including
// promotions through RunGate). A server that cached a production lookup
// at epoch E serves it lock-free until Epoch() != E, then re-resolves —
// the invalidation hook behind the engine's cached production model.
func (r *Registry) Epoch() uint64 { return r.epoch.Load() }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{versions: map[string][]*ModelVersion{}}
}

// Register serializes a trained model and adds it as a new version in
// the staging stage.
func (r *Registry) Register(name string, pf platform.ID, m model.Model,
	metrics eval.Metrics, threshold float64) (*ModelVersion, error) {
	artifact, err := m.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("mlops: serialize %s: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := &ModelVersion{
		Name: name, Version: len(r.versions[name]) + 1,
		Platform: pf, Algorithm: m.Algo(), Stage: StageStaging,
		Metrics: metrics, Threshold: threshold,
		CreatedAt: time.Now(), Artifact: artifact,
	}
	r.versions[name] = append(r.versions[name], v)
	return v, nil
}

// ImportVersion inserts a version replicated from another registry —
// the control-plane → node artifact-distribution path — preserving the
// origin's version number so serving labels ("name-vN") and thresholds
// match the origin byte for byte. The artifact must be a model.Load-able
// envelope; importing a version number that already exists is an error.
func (r *Registry) ImportVersion(name string, version int, pf platform.ID, algo string,
	artifact []byte, metrics eval.Metrics, threshold float64) (*ModelVersion, error) {
	if version <= 0 {
		return nil, fmt.Errorf("mlops: import %s: version %d must be positive", name, version)
	}
	if len(artifact) == 0 {
		return nil, fmt.Errorf("mlops: import %s v%d: empty artifact", name, version)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, v := range r.versions[name] {
		if v.Version == version {
			return nil, fmt.Errorf("mlops: %s v%d already registered", name, version)
		}
	}
	v := &ModelVersion{
		Name: name, Version: version, Platform: pf, Algorithm: algo,
		Stage: StageStaging, Metrics: metrics, Threshold: threshold,
		CreatedAt: time.Now(), Artifact: append([]byte(nil), artifact...),
	}
	vs := append(r.versions[name], v)
	sort.Slice(vs, func(i, j int) bool { return vs[i].Version < vs[j].Version })
	r.versions[name] = vs
	return v, nil
}

// Promote moves a version to production, archiving any previous
// production version of the same name.
func (r *Registry) Promote(name string, version int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	vs := r.versions[name]
	var target *ModelVersion
	for _, v := range vs {
		if v.Version == version {
			target = v
			break
		}
	}
	if target == nil {
		return fmt.Errorf("mlops: model %s v%d not found", name, version)
	}
	for _, v := range vs {
		if v.Stage == StageProduction {
			v.Stage = StageArchived
		}
	}
	target.Stage = StageProduction
	r.epoch.Add(1)
	return nil
}

// Rollback undoes the latest promotion: the highest-versioned archived
// version below the current production one — i.e. the model most recently
// displaced from production — is promoted back, and the current
// production version is archived. It returns the version now serving.
// Serving layers pick the change up through the promotion epoch like any
// other promotion.
func (r *Registry) Rollback(name string) (*ModelVersion, error) {
	r.mu.RLock()
	var cur, prev *ModelVersion
	for _, v := range r.versions[name] {
		if v.Stage == StageProduction {
			cur = v
		}
	}
	if cur != nil {
		for _, v := range r.versions[name] {
			if v.Stage == StageArchived && v.Version < cur.Version &&
				(prev == nil || v.Version > prev.Version) {
				prev = v
			}
		}
	}
	r.mu.RUnlock()
	if cur == nil {
		return nil, fmt.Errorf("mlops: no production version of %s to roll back", name)
	}
	if prev == nil {
		return nil, fmt.Errorf("mlops: %s v%d has no previously-promoted version to roll back to", name, cur.Version)
	}
	if err := r.Promote(name, prev.Version); err != nil {
		return nil, err
	}
	return prev, nil
}

// Production returns the current production version of a model, or an
// error when none is deployed.
func (r *Registry) Production(name string) (*ModelVersion, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, v := range r.versions[name] {
		if v.Stage == StageProduction {
			return v, nil
		}
	}
	return nil, fmt.Errorf("mlops: no production version of %s", name)
}

// Latest returns the newest version regardless of stage.
func (r *Registry) Latest(name string) (*ModelVersion, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	vs := r.versions[name]
	if len(vs) == 0 {
		return nil, fmt.Errorf("mlops: unknown model %s", name)
	}
	return vs[len(vs)-1], nil
}

// List returns all versions of all models, sorted by (name, version).
func (r *Registry) List() []*ModelVersion {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.listLocked()
}

func (r *Registry) listLocked() []*ModelVersion {
	var out []*ModelVersion
	for _, vs := range r.versions {
		out = append(out, vs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

// registryJSON is the registry's on-disk form: every version, sorted by
// (name, version).
type registryJSON struct {
	Format   string          `json:"format"`
	Versions []*ModelVersion `json:"versions"`
}

const registryFormat = "memfp-registry-v1"

// Save serializes every version — artifacts, stages, thresholds,
// metrics — so a reloaded registry serves the same models at the same
// stages.
func (r *Registry) Save(w io.Writer) error {
	r.mu.RLock() // List's order, held across the encode: Promote mutates stages
	defer r.mu.RUnlock()
	return json.NewEncoder(w).Encode(registryJSON{Format: registryFormat, Versions: r.listLocked()})
}

// LoadRegistry reads a registry written by Save. Models rehydrate
// lazily on first use; artifacts are validated then, not here.
func LoadRegistry(rd io.Reader) (*Registry, error) {
	var in registryJSON
	if err := json.NewDecoder(rd).Decode(&in); err != nil {
		return nil, fmt.Errorf("mlops: decode registry: %w", err)
	}
	if in.Format != registryFormat {
		return nil, fmt.Errorf("mlops: unknown registry format %q", in.Format)
	}
	r := NewRegistry()
	for _, v := range in.Versions {
		if v == nil {
			return nil, fmt.Errorf("mlops: registry holds a null version")
		}
		r.versions[v.Name] = append(r.versions[v.Name], v)
	}
	for _, vs := range r.versions {
		sort.Slice(vs, func(i, j int) bool { return vs[i].Version < vs[j].Version })
	}
	return r, nil
}

// The CI/CD quality gate: a staged candidate replaces production only
// when its benchmark precision is at least minPrecision and its F1
// improves on production's by at least minF1Gain.
const (
	minF1Gain    = 0.01
	minPrecision = 0.2
)

// decide returns whether candidate should replace current (nil current
// always promotes: the first model is the only one there is to serve) and
// a human-readable reason.
func decide(current, candidate *ModelVersion) (bool, string) {
	floor := ""
	if candidate.Metrics.Precision < minPrecision {
		floor = fmt.Sprintf("precision %.3f below floor %.3f", candidate.Metrics.Precision, minPrecision)
	}
	if current == nil {
		if floor != "" {
			return true, "no production model; bootstrapping despite " + floor
		}
		return true, "no production model; bootstrapping"
	}
	if floor != "" {
		return false, floor
	}
	gain := candidate.Metrics.F1 - current.Metrics.F1
	if gain < minF1Gain {
		return false, fmt.Sprintf("F1 gain %.3f below required %.3f", gain, minF1Gain)
	}
	return true, fmt.Sprintf("F1 improved %.3f → %.3f", current.Metrics.F1, candidate.Metrics.F1)
}

// RunGate evaluates the gate and promotes on success — one CI/CD cycle.
func (r *Registry) RunGate(name string) (bool, string, error) {
	cand, err := r.Latest(name)
	if err != nil {
		return false, "", err
	}
	cur, _ := r.Production(name)
	ok, reason := decide(cur, cand)
	if ok {
		if err := r.Promote(name, cand.Version); err != nil {
			return false, reason, err
		}
	}
	return ok, reason, nil
}
