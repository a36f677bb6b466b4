package faultsim

import (
	"testing"

	"memfp/internal/dram"
	"memfp/internal/ecc"
	"memfp/internal/platform"
	"memfp/internal/xrand"
)

func TestProfileShapes(t *testing.T) {
	rng := xrand.New(21)
	for trial := 0; trial < 300; trial++ {
		// The Purley risky signature: exactly 2 DQs, 2 beats, 4 apart.
		e := ProfileRiskyPurley.Sample(dram.X4, rng)
		if e.DQCount() != 2 || e.BeatCount() != 2 || e.BeatInterval() != 4 {
			t.Fatalf("risky-purley sample wrong: dq=%d beats=%d bi=%d",
				e.DQCount(), e.BeatCount(), e.BeatInterval())
		}
		// The Whitley risky signature: 4 DQs, 5 beats.
		w := ProfileRiskyWhitley.Sample(dram.X4, rng)
		if w.DQCount() != 4 || w.BeatCount() != 5 {
			t.Fatalf("risky-whitley sample wrong: dq=%d beats=%d", w.DQCount(), w.BeatCount())
		}
		// Single bit.
		s := ProfileSingleBit.Sample(dram.X4, rng)
		if s.BitCount() != 1 {
			t.Fatalf("single-bit sample has %d bits", s.BitCount())
		}
		// Long beat: one DQ, 3..6 beats, contiguous.
		lb := ProfileLongBeat.Sample(dram.X4, rng)
		if lb.DQCount() != 1 || lb.BeatCount() < 3 || lb.BeatCount() > 6 {
			t.Fatalf("long-beat sample wrong: dq=%d beats=%d", lb.DQCount(), lb.BeatCount())
		}
		if lb.BeatInterval() != lb.BeatCount()-1 {
			t.Fatalf("long-beat not contiguous: beats=%d interval=%d", lb.BeatCount(), lb.BeatInterval())
		}
		// Adjacent: 2 DQs with interval 1.
		a := ProfileAdjacent.Sample(dram.X4, rng)
		if a.DQCount() != 2 || a.DQInterval() != 1 {
			t.Fatalf("adjacent sample wrong: dq=%d dqi=%d", a.DQCount(), a.DQInterval())
		}
		// Wide DQ: 3-4 DQs on 1-2 beats.
		wd := ProfileWideDQ.Sample(dram.X4, rng)
		if wd.DQCount() < 3 || wd.BeatCount() > 2 {
			t.Fatalf("wide-dq sample wrong: dq=%d beats=%d", wd.DQCount(), wd.BeatCount())
		}
	}
}

func TestProfilesWorkOnX8(t *testing.T) {
	rng := xrand.New(22)
	for _, p := range Profiles() {
		for i := 0; i < 50; i++ {
			e := p.Sample(dram.X8, rng)
			if e.IsZero() {
				t.Fatalf("profile %v produced empty signature on x8", p)
			}
		}
	}
}

// TestCEsAlwaysCorrectable is the simulator's core ECC invariant: every
// profile a fault can emit as a CE must be correctable on every platform
// that can emit it.
func TestCEsAlwaysCorrectable(t *testing.T) {
	rng := xrand.New(23)
	for _, id := range platform.All() {
		p := platform.MustGet(id)
		calib, err := DefaultCalibration(id)
		if err != nil {
			t.Fatal(err)
		}
		profiles := []Profile{calib.RiskyProfile, ProfileSingleBit}
		for prof := range calib.BenignProfileMix {
			profiles = append(profiles, prof)
		}
		for _, prof := range profiles {
			for i := 0; i < 200; i++ {
				e := prof.Sample(dram.X4, rng)
				tx := ecc.Transaction{PerDevice: map[int]dram.ErrorBits{0: e}}
				if p.ECC.Classify(tx) != ecc.Corrected {
					t.Fatalf("%s: profile %v emitted uncorrectable CE %v", id, prof, e)
				}
			}
		}
	}
}

// TestEscalationsAlwaysUncorrectable: every UE the simulator emits must be
// genuinely uncorrectable under the platform's ECC model.
func TestEscalationsAlwaysUncorrectable(t *testing.T) {
	rng := xrand.New(24)
	geo := dram.DefaultGeometry(dram.X4)
	for _, id := range platform.All() {
		p := platform.MustGet(id)
		for _, mode := range Modes() {
			for i := 0; i < 50; i++ {
				f := NewFault(mode, ProfileSingleBit, geo, rng)
				tx, err := f.EscalationTransaction(p, dram.X4, rng)
				if err != nil {
					t.Fatalf("%s/%v: %v", id, mode, err)
				}
				if p.ECC.Classify(tx) != ecc.Uncorrected {
					t.Fatalf("%s/%v: escalation classified as CE", id, mode)
				}
			}
		}
	}
}

func TestFaultAddressesValid(t *testing.T) {
	rng := xrand.New(25)
	geo := dram.DefaultGeometry(dram.X4)
	for _, mode := range Modes() {
		f := NewFault(mode, ProfileSingleBit, geo, rng)
		for i := 0; i < 500; i++ {
			a := f.SampleAddr(rng)
			if !validAddr(a, geo) {
				t.Fatalf("mode %v produced invalid address %v", mode, a)
			}
		}
	}
}

// validAddr reports whether a is inside the geometry.
func validAddr(a dram.Addr, g dram.Geometry) bool {
	return int(a.Rank) < g.Ranks && int(a.Device) < g.TotalDevices() && int(a.Bank) < g.Banks() &&
		int(a.Row) < g.Rows && int(a.Column) < g.Columns
}

func TestAddrValid(t *testing.T) {
	g := dram.DefaultGeometry(dram.X4)
	cases := []struct {
		a    dram.Addr
		want bool
	}{
		{dram.Addr{}, true},
		{dram.Addr{Rank: 1, Device: 17, Bank: 15, Row: uint32(g.Rows - 1), Column: uint16(g.Columns - 1)}, true},
		{dram.Addr{Rank: 2}, false},                   // rank out of range
		{dram.Addr{Device: 18}, false},                // device out of range
		{dram.Addr{Bank: 16}, false},                  // bank out of range
		{dram.Addr{Row: uint32(g.Rows)}, false},       // row out of range
		{dram.Addr{Column: uint16(g.Columns)}, false}, // column out of range
	}
	for _, c := range cases {
		if got := validAddr(c.a, g); got != c.want {
			t.Errorf("validAddr(%v) = %v, want %v", c.a, got, c.want)
		}
	}
}

func TestMultiDeviceFaultSpansDevices(t *testing.T) {
	rng := xrand.New(26)
	geo := dram.DefaultGeometry(dram.X4)
	f := NewFault(ModeMultiDevice, ProfileSingleBit, geo, rng)
	devs := map[uint8]bool{}
	for i := 0; i < 1000; i++ {
		devs[f.SampleAddr(rng).Device] = true
	}
	if len(devs) < 2 {
		t.Errorf("multi-device fault touched %d devices", len(devs))
	}
}

func TestCellFaultConcentrated(t *testing.T) {
	rng := xrand.New(27)
	geo := dram.DefaultGeometry(dram.X4)
	f := NewFault(ModeCell, ProfileSingleBit, geo, rng)
	counts := map[dram.Addr]int{}
	n := 1000
	for i := 0; i < n; i++ {
		counts[f.SampleAddr(rng)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/float64(n) < 0.80 {
		t.Errorf("cell fault concentration %.2f, want ≥0.80", float64(max)/float64(n))
	}
}

func TestProfileString(t *testing.T) {
	for _, p := range Profiles() {
		if p.String() == "" || p.String()[0] == 'P' {
			t.Errorf("profile %d has bad string %q", int(p), p.String())
		}
	}
}
