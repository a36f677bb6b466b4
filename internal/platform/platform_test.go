package platform

import (
	"testing"

	"memfp/internal/dram"
)

func TestGetAllPlatforms(t *testing.T) {
	for _, id := range All() {
		p, err := Get(id)
		if err != nil {
			t.Fatalf("Get(%s): %v", id, err)
		}
		if p.ID != id {
			t.Errorf("ID mismatch: %s vs %s", p.ID, id)
		}
		if p.ECC == nil {
			t.Errorf("%s has no ECC model", id)
		}
		if p.ChannelsPerSocket <= 0 || p.DIMMsPerChannel <= 0 || p.Sockets <= 0 {
			t.Errorf("%s topology invalid: %+v", id, p)
		}
	}
}

func TestGetUnknownPlatform(t *testing.T) {
	if _, err := Get("AMD_Rome"); err == nil {
		t.Error("unknown platform should error")
	}
}

func TestMustGetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustGet should panic on unknown ID")
		}
	}()
	MustGet("nope")
}

func TestArchAssignment(t *testing.T) {
	if MustGet(Purley).Arch != X86 || MustGet(Whitley).Arch != X86 {
		t.Error("Intel platforms must be x86")
	}
	if MustGet(K920).Arch != ARM {
		t.Error("K920 must be ARM")
	}
}

func TestECCDistinctPerPlatform(t *testing.T) {
	names := map[string]ID{}
	for _, id := range All() {
		n := MustGet(id).ECC.Name()
		if prev, ok := names[n]; ok {
			t.Errorf("platforms %s and %s share ECC %q", prev, id, n)
		}
		names[n] = id
	}
}

func TestCatalogIntegrity(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Catalog() {
		if seen[p.PartNumber] {
			t.Errorf("duplicate part number %s", p.PartNumber)
		}
		seen[p.PartNumber] = true
		if p.Width != dram.X4 && p.Width != dram.X8 {
			t.Errorf("%s has unsupported width %v", p.PartNumber, p.Width)
		}
		if p.Geometry.Width != p.Width {
			t.Errorf("%s geometry width mismatch", p.PartNumber)
		}
		if p.SpeedMTs < 2000 || p.SpeedMTs > 4000 {
			t.Errorf("%s implausible speed %d", p.PartNumber, p.SpeedMTs)
		}
		if p.ProcessNm <= 0 || p.CapacityGiB <= 0 {
			t.Errorf("%s bad static attributes", p.PartNumber)
		}
	}
	if len(Catalog()) < 8 {
		t.Errorf("catalog too small: %d", len(Catalog()))
	}
}

func TestCatalogCoversAllVendors(t *testing.T) {
	vendors := map[Manufacturer]bool{}
	for _, p := range Catalog() {
		vendors[p.Manufacturer] = true
	}
	for _, m := range []Manufacturer{VendorA, VendorB, VendorC, VendorD} {
		if !vendors[m] {
			t.Errorf("vendor %s missing from catalog", m)
		}
	}
}

func TestPartByNumber(t *testing.T) {
	p, err := PartByNumber("B4-3200-64")
	if err != nil {
		t.Fatal(err)
	}
	if p.Manufacturer != VendorB || p.SpeedMTs != 3200 || p.CapacityGiB != 64 {
		t.Errorf("part fields wrong: %+v", p)
	}
	if _, err := PartByNumber("ZZ-0000-0"); err == nil {
		t.Error("unknown part should error")
	}
}

func TestPlatformString(t *testing.T) {
	s := MustGet(Purley).String()
	if s == "" {
		t.Error("empty String()")
	}
}
