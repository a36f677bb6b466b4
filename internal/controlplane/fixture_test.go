package controlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"memfp/internal/dataset"
	"memfp/internal/eval"
	"memfp/internal/faultsim"
	"memfp/internal/ml/linear"
	"memfp/internal/ml/model"
	"memfp/internal/mlops"
	"memfp/internal/pipeline"
	"memfp/internal/platform"
	"memfp/internal/trace"
)

// The shared fixture: one small Purley fleet (the examples-smoke scale,
// known to contain training positives) and one GBDT artifact trained on
// its first five months. Tests rebuild registries from the serialized
// artifact — the same bytes a node daemon pulls over HTTP — so every
// scorer in play rehydrates from the identical envelope.
type fleetFixture struct {
	all       []trace.Event
	parts     map[trace.DIMMID]platform.DIMMPart
	modelName string
	artifact  []byte
	threshold float64
	metrics   eval.Metrics
	valScores []float64
	// A logistic artifact over the same training window: near-free to
	// score, so benchmarks over it measure the serving data path rather
	// than GBDT tree walks.
	fastArtifact  []byte
	fastThreshold float64
	fastMetrics   eval.Metrics
	err           error
}

var (
	fixOnce sync.Once
	fix     fleetFixture
)

func fleet(tb testing.TB) *fleetFixture {
	tb.Helper()
	fixOnce.Do(func() {
		res, err := pipeline.Generate(context.Background(),
			faultsim.Config{Platform: platform.Purley, Scale: 0.03, Seed: 31})
		if err != nil {
			fix.err = err
			return
		}
		parts := map[trace.DIMMID]platform.DIMMPart{}
		for _, l := range res.Store.DIMMs() {
			parts[l.ID] = l.Part
		}
		all, _ := res.Store.Stream()

		pipe := mlops.NewPipeline(platform.Purley)
		pipe.Seed = 31
		tr, err := pipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day)
		if err != nil {
			fix.err = err
			return
		}
		if !tr.Promoted {
			fix.err = fmt.Errorf("fixture model not promoted: %s", tr.Reason)
			return
		}
		fastPipe := mlops.NewPipeline(platform.Purley)
		fastPipe.Seed = 31
		fastPipe.TrainerName = model.NameLogistic
		ftr, err := fastPipe.TrainAndMaybePromote(res.Store, 150*trace.Day, 180*trace.Day)
		if err != nil {
			fix.err = err
			return
		}

		fix.all = all
		fix.parts = parts
		fix.modelName = pipe.ModelName
		fix.artifact = tr.Version.Artifact
		fix.threshold = tr.Version.Threshold
		fix.metrics = tr.Version.Metrics
		fix.fastArtifact = ftr.Version.Artifact
		fix.fastThreshold = ftr.Version.Threshold
		fix.fastMetrics = ftr.Version.Metrics
	})
	if fix.err != nil {
		tb.Fatalf("fleet fixture: %v", fix.err)
	}
	return &fix
}

// mirror builds a fresh pipeline whose registry holds the fixture
// artifact as promoted v1 plus a staged v2 — the same model at half the
// threshold, so a mid-stream promotion visibly changes the alarm stream.
func mirror(tb testing.TB) *mlops.Pipeline {
	tb.Helper()
	f := fleet(tb)
	pipe := mlops.NewPipeline(platform.Purley)
	if _, err := pipe.Registry.ImportVersion(pipe.ModelName, 1, platform.Purley,
		model.NameGBDT, f.artifact, f.metrics, f.threshold); err != nil {
		tb.Fatal(err)
	}
	if _, err := pipe.Registry.ImportVersion(pipe.ModelName, 2, platform.Purley,
		model.NameGBDT, f.artifact, f.metrics, f.threshold/2); err != nil {
		tb.Fatal(err)
	}
	if err := pipe.Registry.Promote(pipe.ModelName, 1); err != nil {
		tb.Fatal(err)
	}
	return pipe
}

// testFleet is a control plane served on a loopback listener, with
// in-process nodes joined to it.
type testFleet struct {
	cp    *Server
	url   string            // the control plane's base URL
	cl    *Client           // its API over the listener
	hosts map[string]string // node name -> the in-process host routed to it
}

// bootFleet builds a control plane from cfg, serves its API on a loopback
// listener and joins one in-process node per name (none in local mode:
// New joined its own). Everything closes at cleanup, the control plane's
// senders before the listener.
func bootFleet(t *testing.T, cfg Config, names ...string) *testFleet {
	t.Helper()
	cp, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(cp.Handler())
	t.Cleanup(ts.Close)
	fl := &testFleet{cp: cp, url: ts.URL, cl: NewClient(ts.URL), hosts: map[string]string{}}
	for _, name := range names {
		fl.join(t, name)
	}
	t.Cleanup(cp.Close)
	return fl
}

// join builds in-process node name, with two engine shards, and joins it
// to the fleet; a name the fleet knows rejoins (fresh state, same host).
func (fl *testFleet) join(t *testing.T, name string) *Node {
	t.Helper()
	host, ok := fl.hosts[name]
	if !ok {
		host = fmt.Sprintf("%s-%d", inProcessHost, len(fl.hosts))
		fl.hosts[name] = host
	}
	n := NewNode(name, "http://control-plane")
	n.Shards = 2
	if err := fl.cp.joinInProcess(n, host); err != nil {
		t.Fatal(err)
	}
	return n
}

// kill deletes node name's route: every later request to it fails, as to
// a daemon whose process died.
func (fl *testFleet) kill(name string) { fl.cp.hosts.Delete(fl.hosts[name]) }

// refEngine builds the single-process reference engine over pipe's
// registry and monitor, with every fixture DIMM registered.
func refEngine(f *fleetFixture, pipe *mlops.Pipeline, shards int) *mlops.Server {
	s := mlops.NewShardedServer(pipe.Platform, pipe.Features, pipe.Registry, pipe.ModelName, pipe.Monitor, shards)
	for id, part := range f.parts {
		s.RegisterDIMM(id, part)
	}
	return s
}

// fastMirror is mirror with the logistic artifact promoted as v1: real
// envelope bytes a node can pull, near-zero scoring cost.
func fastMirror(tb testing.TB) *mlops.Pipeline {
	tb.Helper()
	f := fleet(tb)
	pipe := mlops.NewPipeline(platform.Purley)
	if _, err := pipe.Registry.ImportVersion(pipe.ModelName, 1, platform.Purley,
		model.NameLogistic, f.fastArtifact, f.fastMetrics, f.fastThreshold); err != nil {
		tb.Fatal(err)
	}
	if err := pipe.Registry.Promote(pipe.ModelName, 1); err != nil {
		tb.Fatal(err)
	}
	return pipe
}

// constModel hand-builds a logistic model with no weights and the given
// bias, so every vector scores sigmoid(bias): +40 always fires (the score
// is exactly 1), -40 never does. It is loaded from envelope bytes like
// any artifact.
func constModel(tb testing.TB, bias float64) model.Model {
	tb.Helper()
	var payload bytes.Buffer
	if err := (&linear.Model{B: bias, Scaler: &dataset.Scaler{}}).Encode(&payload); err != nil {
		tb.Fatal(err)
	}
	env, err := json.Marshal(map[string]any{
		"format": "memfp-model", "version": 1, "algo": model.NameLogistic,
		"payload": payload.Bytes(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := model.Load(env)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// alwaysFirePipeline builds a pipeline serving an always-firing constant
// model — cheap alarms for API tests.
func alwaysFirePipeline(tb testing.TB) *mlops.Pipeline {
	tb.Helper()
	pipe := mlops.NewPipeline(platform.Purley)
	pipe.Shards = 2
	mv, err := pipe.Registry.Register(pipe.ModelName, platform.Purley, constModel(tb, 40), eval.Metrics{F1: 1}, 0.5)
	if err != nil {
		tb.Fatal(err)
	}
	if err := pipe.Registry.Promote(pipe.ModelName, mv.Version); err != nil {
		tb.Fatal(err)
	}
	return pipe
}

// encodeLines renders fixture events [lo, hi) as BMC text log lines.
func encodeLines(f *fleetFixture, lo, hi int) string {
	var sb strings.Builder
	for _, e := range f.all[lo:hi] {
		sb.WriteString(trace.EncodeEvent(e, f.parts[e.DIMM]))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ingestLines posts one tick of BMC text log lines: the ingest endpoint's
// text arm, which no program posts to through the Client.
func ingestLines(c *Client, text string) (TickResponse, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+"/api/v1/ingest", strings.NewReader(text))
	if err != nil {
		return TickResponse{}, err
	}
	req.Header.Set("Content-Type", "text/plain")
	var tr TickResponse
	err = c.do(req, &tr)
	return tr, err
}

// renderAlarms renders an alarm stream with exact (hex-float) scores for
// byte comparison.
func renderAlarms(as []mlops.Alarm) string {
	var sb strings.Builder
	for _, a := range as {
		fmt.Fprintf(&sb, "%d %s %d %d %s %s\n",
			int64(a.Time), a.DIMM.Platform, a.DIMM.Server, a.DIMM.Slot,
			strconv.FormatFloat(a.Score, 'x', -1, 64), a.Model)
	}
	return sb.String()
}

// fromWire inverts toWire, for tests comparing JSON alarm pages against
// engine or binary-frame alarms.
func fromWire(a AlarmJSON) mlops.Alarm {
	return mlops.Alarm{
		Time:  trace.Minutes(a.Time),
		DIMM:  trace.DIMMID{Platform: platform.ID(a.Platform), Server: a.Server, Slot: a.Slot},
		Score: a.Score,
		Model: a.Model,
	}
}
